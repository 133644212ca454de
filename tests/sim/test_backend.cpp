// Unit tests for the pluggable evaluation-backend layer (sim/backend.hpp):
// backend resolution and auto-selection, EvalState representation handling
// and mixed dense/diagram overlaps, the dense backend's ceiling guard,
// per-operation apply parity between the two substrates, the primitives
// contract (a backend implementing only kind/zeroState/apply/
// circuitsEquivalent gets every verify entry point from the base class),
// and the batched prepare-and-verify API (concurrent-item semantics and
// per-item errors).

#include "mqsp/sim/backend.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace mqsp {
namespace {

TEST(BackendResolution, ForcedNamesResolveRegardlessOfSize) {
    EXPECT_EQ(resolveBackendKind("dense", 10), BackendKind::Dense);
    EXPECT_EQ(resolveBackendKind("dense", std::uint64_t{1} << 40U), BackendKind::Dense);
    EXPECT_EQ(resolveBackendKind("dd", 10), BackendKind::Dd);
    EXPECT_EQ(resolveBackendKind("dd", std::uint64_t{1} << 40U), BackendKind::Dd);
}

TEST(BackendResolution, AutoSwitchesAtTheThreshold) {
    EXPECT_EQ(resolveBackendKind("auto", kAutoBackendThreshold), BackendKind::Dense);
    EXPECT_EQ(resolveBackendKind("auto", kAutoBackendThreshold + 1), BackendKind::Dd);
    EXPECT_EQ(resolveBackendKind("auto", 36), BackendKind::Dense);
}

TEST(BackendResolution, UnknownSpecThrows) {
    EXPECT_THROW((void)resolveBackendKind("sparse", 10), InvalidArgumentError);
    EXPECT_THROW((void)resolveBackendKind("", 10), InvalidArgumentError);
}

TEST(BackendResolution, FactoriesProduceTheRequestedKind) {
    EXPECT_EQ(makeBackend(BackendKind::Dense)->kind(), BackendKind::Dense);
    EXPECT_EQ(makeBackend(BackendKind::Dd)->kind(), BackendKind::Dd);
    EXPECT_STREQ(makeBackend("auto", 10)->name(), "dense");
    EXPECT_STREQ(makeBackend("auto", kAutoBackendThreshold + 1)->name(), "dd");
}

TEST(EvalStateTest, RepresentationAccessorsGuard) {
    const EvalState dense(states::ghz({2, 2}));
    EXPECT_TRUE(dense.isDense());
    EXPECT_FALSE(dense.isDiagram());
    EXPECT_NO_THROW((void)dense.dense());
    EXPECT_THROW((void)dense.diagram(), InvalidArgumentError);

    const EvalState diagram(DecisionDiagram::ghzState({2, 2}));
    EXPECT_TRUE(diagram.isDiagram());
    EXPECT_THROW((void)diagram.dense(), InvalidArgumentError);
    EXPECT_EQ(diagram.totalDimension(), 4u);
}

TEST(EvalStateTest, OverlapsAgreeAcrossAllRepresentationPairs) {
    const Dimensions dims{3, 6, 2};
    const StateVector ghzDense = states::ghz(dims);
    const StateVector wDense = states::wState(dims);
    const EvalState dd1(DecisionDiagram::ghzState(dims));
    const EvalState dd2(DecisionDiagram::wState(dims));
    const EvalState dv1(ghzDense);
    const EvalState dv2(wDense);

    const Complex reference = ghzDense.innerProduct(wDense);
    for (const auto* lhs : {&dd1, &dv1}) {
        for (const auto* rhs : {&dd2, &dv2}) {
            const Complex overlap = lhs->overlapWith(*rhs);
            EXPECT_NEAR(overlap.real(), reference.real(), 1e-10);
            EXPECT_NEAR(overlap.imag(), reference.imag(), 1e-10);
        }
    }
    EXPECT_NEAR(dd1.fidelityWith(dv1), 1.0, 1e-10);
    EXPECT_NEAR(dd1.normSquared(), 1.0, 1e-10);
    EXPECT_NEAR(dv1.normSquared(), 1.0, 1e-10);
}

TEST(EvalStateTest, ToStateVectorHonorsTheCeiling) {
    const EvalState small(DecisionDiagram::ghzState({2, 2}));
    EXPECT_EQ(small.toStateVector().size(), 4u);
    EXPECT_THROW((void)small.toStateVector(/*ceiling=*/3), InvalidArgumentError);

    const EvalState big(DecisionDiagram::ghzState(Dimensions(27, 2)));
    EXPECT_THROW((void)big.toStateVector(), InvalidArgumentError);
    EXPECT_NO_THROW((void)big.toDiagram());
}

TEST(DenseBackendTest, RefusesPastItsCeilingWithAClearError) {
    const DenseBackend backend(/*maxAmplitudes=*/32);
    const Circuit big(Dimensions{4, 4, 4}); // 64 amplitudes
    try {
        (void)backend.runFromZero(big);
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("dense backend ceiling"), std::string::npos) << what;
        EXPECT_NE(what.find("--backend dd"), std::string::npos) << what;
    }
}

TEST(ApplyParity, PerOperationApplicationMatchesAcrossBackends) {
    const Dimensions dims{3, 4, 2};
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    Rng rng(12345);
    const StateVector target = states::random(dims, rng);
    const auto prep = prepareExact(target, lean);

    const DenseBackend dense;
    const DdBackend dd;
    EvalState dv{StateVector(dims)};
    EvalState diagram{DecisionDiagram::zeroState(dims)};
    for (const Operation& op : prep.circuit.operations()) {
        dense.apply(dv, op);
        dd.apply(diagram, op);
    }
    for (std::uint64_t i = 0; i < dv.dense().size(); ++i) {
        const Digits digits = dv.radix().digitsOf(i);
        const Complex a = dv.amplitudeOf(digits);
        const Complex b = diagram.amplitudeOf(digits);
        EXPECT_NEAR(a.real(), b.real(), 1e-10) << "index " << i;
        EXPECT_NEAR(a.imag(), b.imag(), 1e-10);
    }
    // Applying with the wrong representation is a caller error.
    EXPECT_THROW(dense.apply(diagram, prep.circuit.operations().front()),
                 InvalidArgumentError);
    EXPECT_THROW(dd.apply(dv, prep.circuit.operations().front()), InvalidArgumentError);
}

/// A backend that implements only the four primitives — on the dense
/// simulator — and counts its `apply` calls. Everything else it answers
/// comes from EvaluationBackend. (Atomic: verifyBatch may apply from pool
/// workers.)
class CountingBackend final : public EvaluationBackend {
public:
    [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::Dense; }
    [[nodiscard]] EvalState zeroState(const Dimensions& dims) const override {
        return EvalState(StateVector(dims));
    }
    void apply(EvalState& state, const Operation& op) const override {
        applies.fetch_add(1, std::memory_order_relaxed);
        Simulator::apply(state.dense(), op);
    }
    [[nodiscard]] bool circuitsEquivalent(const Circuit& /*a*/, const Circuit& /*b*/,
                                          double /*tol*/) const override {
        return false;
    }

    /// `apply` calls made while `run` executes.
    template <typename Run> std::uint64_t appliesDuring(Run&& run) const {
        applies.store(0);
        run();
        return applies.load();
    }

private:
    mutable std::atomic<std::uint64_t> applies{0};
};

TEST(BackendContract, EveryVerifyEntryPointIsReplayOnThePrimitives) {
    const Dimensions dims{3, 4, 2};
    Rng rng(2024);
    const StateVector target = states::random(dims, rng);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const Circuit circuit = prepareExact(target, lean).circuit;
    const std::uint64_t ops = circuit.numOperations();
    ASSERT_GT(ops, 0U);
    const double expected = Simulator::preparationFidelity(circuit, target);
    const EvalState evalTarget(target);
    const CountingBackend backend;

    EvalState replayed;
    EXPECT_EQ(backend.appliesDuring([&] { replayed = backend.runFromZero(circuit); }), ops);
    EXPECT_EQ(evalTarget.fidelityWith(replayed), expected);

    double fidelity = 0.0;
    EXPECT_EQ(backend.appliesDuring(
                  [&] { fidelity = backend.preparationFidelity(circuit, evalTarget); }),
              ops);
    EXPECT_EQ(fidelity, expected);

    VerifyReport report;
    EXPECT_EQ(backend.appliesDuring(
                  [&] { report = backend.verify({&circuit, &evalTarget, /*repeat=*/2}); }),
              2 * ops);
    EXPECT_FALSE(report.failed) << report.error;
    EXPECT_EQ(report.ops, ops);
    EXPECT_EQ(report.fidelity, expected);

    std::vector<VerifyReport> batch;
    EXPECT_EQ(backend.appliesDuring([&] {
                  batch = backend.verifyBatch({{&circuit, &evalTarget}, {&circuit, &evalTarget}});
              }),
              2 * ops);
    ASSERT_EQ(batch.size(), 2U);
    for (const VerifyReport& item : batch) {
        EXPECT_FALSE(item.failed) << item.error;
        EXPECT_EQ(item.fidelity, expected);
    }

    CircuitSource source(circuit);
    EXPECT_EQ(backend.appliesDuring(
                  [&] { report = backend.verifyStream(source, {nullptr, &evalTarget}); }),
              ops);
    EXPECT_EQ(report.ops, ops);
    EXPECT_EQ(report.fidelity, expected);

    EvalState advanced = backend.zeroState(dims);
    EXPECT_EQ(backend.appliesDuring([&] {
                  report = backend.reverifyAppended(circuit, 0, advanced, evalTarget);
              }),
              ops);
    EXPECT_EQ(report.fidelity, expected);
}

TEST(BackendContract, DdApplyInternsAPrivateInputIntoItsSession) {
    // A diagram from a store of its own is interned once, then every gate
    // allocates on the session: the uniform state comes out as one shared
    // node per site.
    const Dimensions dims{3, 2};
    const DdBackend backend;
    EvalState state(DecisionDiagram::zeroState(dims));
    ASSERT_FALSE(backend.ddSession()->owns(state.diagram()));
    backend.apply(state, Operation::hadamard(0));
    backend.apply(state, Operation::hadamard(1));
    EXPECT_TRUE(backend.ddSession()->owns(state.diagram()));
    EXPECT_TRUE(state.diagram().sharesStoreWith(backend.zeroState(dims).diagram()));
    EXPECT_EQ(state.diagram().nodeCount(NodeCountMode::Internal), dims.size());
    EXPECT_NEAR(state.fidelityWith(EvalState(states::uniform(dims))), 1.0, 1e-12);
}

TEST(DdBackendCache, TinyRotationsNeverShareACachedAddition) {
    // A tiny Givens angle makes one addition's y/x ratio ~1 / sin(theta / 2),
    // past the compute cache's bucket range. Such ratios once all bucketed
    // to one saturated value, so the second circuit replayed on the same
    // session took the first one's cached sum: fidelity 0.78 for -1.5e-9
    // after 2e-9, and a unit-norm state 1.41 away from the dense one for
    // -2e-9.
    const DdBackend backend;
    for (const double theta : {2e-9, 1.5e-9, -2e-9}) {
        Circuit circuit({2, 2});
        circuit.append(Operation::hadamard(0));
        circuit.append(Operation::hadamard(1, {{0, 0}}));
        circuit.append(Operation::givens(0, 0, 1, theta, 0.0));
        const StateVector expected = Simulator::runFromZero(circuit);
        const StateVector replayed = backend.runFromZero(circuit).toStateVector();
        for (std::uint64_t i = 0; i < expected.size(); ++i) {
            EXPECT_NEAR(std::abs(replayed[i] - expected[i]), 0.0, 1e-10)
                << "theta " << theta << ", amplitude " << i;
        }
    }
}

TEST(RunFromZeroTest, BothBackendsPrepareTheSameState) {
    const Dimensions dims{2, 3, 2};
    const StateVector target = states::wState(dims);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);

    const EvalState dense = DenseBackend().runFromZero(prep.circuit);
    const EvalState diagram = DdBackend().runFromZero(prep.circuit);
    EXPECT_TRUE(dense.isDense());
    EXPECT_TRUE(diagram.isDiagram());
    EXPECT_NEAR(dense.fidelityWith(diagram), 1.0, 1e-10);
    EXPECT_NEAR(dense.fidelityWith(EvalState(target)), 1.0, 1e-9);
}

using ScopedThreads = parallel::ScopedThreadCount;

TEST(ExecutionConfigPlumbing, BackendsCarryTheConfigTheyWereBuiltWith) {
    const ScopedThreads scope(3);
    EXPECT_EQ(DenseBackend().executionConfig().threads, 3U);
    EXPECT_EQ(makeBackend(BackendKind::Dd)->executionConfig().threads, 3U);
    const auto pinned = makeBackend(BackendKind::Dense, parallel::ExecutionConfig{1});
    EXPECT_EQ(pinned->executionConfig().threads, 1U);
}

TEST(ExecutionConfigPlumbing, EntryPointsPinTheirConfigAndRestoreTheAmbientWidth) {
    const ScopedThreads ambient(2);
    const auto backend = makeBackend(BackendKind::Dense, parallel::ExecutionConfig{4});
    const StateVector target = states::ghz({3, 3});
    const auto prep = prepareExact(target);
    const EvalState evalTarget(target);
    EXPECT_NEAR(backend->preparationFidelity(prep.circuit, evalTarget), 1.0, 1e-9);
    EXPECT_EQ(parallel::globalThreads(), 2U);
    const auto results = backend->verifyBatch({{&prep.circuit, &evalTarget}});
    ASSERT_EQ(results.size(), 1U);
    EXPECT_NEAR(results.front().fidelity, 1.0, 1e-9);
    EXPECT_EQ(parallel::globalThreads(), 2U);
}

/// Batch fixture: a handful of independent prepare-and-verify items on
/// small mixed-radix registers.
struct BatchFixture {
    std::vector<StateVector> targets;
    std::vector<Circuit> circuits;
    std::vector<EvalState> evalTargets;
    std::vector<VerifyRequest> items;

    BatchFixture() {
        SynthesisOptions lean;
        lean.emitIdentityOperations = false;
        const std::vector<Dimensions> registers = {
            {3, 6, 2}, {2, 2, 2, 2}, {3, 3, 3}, {9, 5, 6, 3}, {2, 3, 2}};
        Rng rng(99);
        for (const auto& dims : registers) {
            targets.push_back(states::random(dims, rng));
            circuits.push_back(prepareExact(targets.back(), lean).circuit);
        }
        // Fill evalTargets completely before taking addresses: a growing
        // vector would invalidate the earlier items' pointers.
        evalTargets.reserve(targets.size());
        for (const auto& target : targets) {
            evalTargets.emplace_back(target);
        }
        for (std::size_t i = 0; i < targets.size(); ++i) {
            items.push_back({&circuits[i], &evalTargets[i]});
        }
    }
};

class BatchVerify : public ::testing::TestWithParam<unsigned> {};

TEST_P(BatchVerify, AllItemsVerifyOnBothBackends) {
    const ScopedThreads scope(GetParam());
    const BatchFixture fixture;
    for (const BackendKind kind : {BackendKind::Dense, BackendKind::Dd}) {
        const auto backend = makeBackend(kind);
        const auto results = backend->verifyBatch(fixture.items);
        ASSERT_EQ(results.size(), fixture.items.size());
        for (const auto& result : results) {
            EXPECT_FALSE(result.failed) << result.error;
            EXPECT_NEAR(result.fidelity, 1.0, 1e-9);
        }
    }
}

TEST_P(BatchVerify, MatchesSequentialFidelities) {
    const BatchFixture fixture;
    const auto backend = makeBackend(BackendKind::Dense);
    std::vector<double> sequential;
    {
        const ScopedThreads scope(1);
        for (const auto& item : fixture.items) {
            sequential.push_back(backend->preparationFidelity(*item.circuit, *item.target));
        }
    }
    const ScopedThreads scope(GetParam());
    const auto results = backend->verifyBatch(fixture.items);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_NEAR(results[i].fidelity, sequential[i], 1e-12);
    }
}

TEST_P(BatchVerify, PerItemFailureDoesNotAbortSiblings) {
    const ScopedThreads scope(GetParam());
    BatchFixture fixture;
    // Make item 2 fail on the dense backend: a register past a tiny ceiling.
    const DenseBackend tiny(16);
    const auto results = tiny.verifyBatch(fixture.items);
    ASSERT_EQ(results.size(), fixture.items.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const bool fits = fixture.targets[i].size() <= 16;
        EXPECT_EQ(results[i].failed, !fits) << "item " << i;
        if (fits) {
            EXPECT_NEAR(results[i].fidelity, 1.0, 1e-9);
        } else {
            EXPECT_NE(results[i].error.find("ceiling"), std::string::npos);
        }
    }
}

TEST_P(BatchVerify, EmptyBatchIsANoOp) {
    const ScopedThreads scope(GetParam());
    EXPECT_TRUE(DenseBackend().verifyBatch({}).empty());
}

TEST_P(BatchVerify, RepeatedItemsResolveFromTheSharedSessionCache) {
    // All batch items of a DdBackend intern into the backend's one shared
    // DdSession (there is no per-item escape hatch), so a repeated item is
    // served by session state the first run left behind: its nodes hit in
    // the uniquing table instead of allocating, and its overlap traversal
    // hits the session compute cache. An exactly-reproduced target resolves
    // by root identity before the compute cache is even consulted, so the
    // batch includes a mismatched (fidelity < 1) pair whose overlap must
    // descend — that descent is what the cache persists across calls.
    const Dimensions dims{3, 4, 2};
    const StateVector ghz = states::ghz(dims);
    const auto prep = prepareExact(ghz);
    const EvalState ghzTarget(ghz);
    const EvalState wTarget(states::wState(dims));
    const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{GetParam()});
    const std::vector<VerifyRequest> items = {{&prep.circuit, &ghzTarget},
                                                {&prep.circuit, &wTarget}};

    const auto first = backend.verifyBatch(items);
    ASSERT_EQ(first.size(), items.size());
    EXPECT_NEAR(first[0].fidelity, 1.0, 1e-9);
    EXPECT_LT(first[1].fidelity, 0.5); // |<w|ghz>|^2 — genuinely mismatched
    const std::uint64_t poolAfterFirst = backend.ddSession()->stats().poolNodes;

    // Replay the whole batch on the same backend: every node re-resolves
    // from the shared table (no growth), the mismatched overlap resolves
    // from the compute cache, and the fidelities come out bit-identical.
    const auto second = backend.verifyBatch(items);
    ASSERT_EQ(second.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_FALSE(second[i].failed) << second[i].error;
        EXPECT_EQ(second[i].fidelity, first[i].fidelity) << "item " << i;
    }
    const dd::DdSessionStats stats = backend.ddSession()->stats();
    EXPECT_EQ(stats.poolNodes, poolAfterFirst);
    EXPECT_GT(stats.unique.hits, 0U);
    EXPECT_GT(stats.cache.hits, 0U);
    EXPECT_GT(stats.cacheHitRate(), 0.0);
}

/// "t<threads>" row labels (built without operator+ folding, which trips a
/// gcc-12 -Wrestrict false positive when two instantiations inline it).
std::string threadTag(const ::testing::TestParamInfo<unsigned>& paramInfo) {
    std::string name = "t";
    name += std::to_string(paramInfo.param);
    return name;
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchVerify, ::testing::Values(1U, 2U, 4U), threadTag);

TEST(ZeroStateSeed, BothBackendsSeedTheComputationalZero) {
    const Dimensions dims{3, 4, 2};
    const EvalState dense = DenseBackend().zeroState(dims);
    ASSERT_TRUE(dense.isDense());
    EXPECT_NEAR(squaredMagnitude(dense.dense()[0]), 1.0, 1e-12);

    const DdBackend dd;
    const EvalState diagram = dd.zeroState(dims);
    ASSERT_TRUE(diagram.isDiagram());
    EXPECT_NEAR(diagram.fidelityWith(dense), 1.0, 1e-12);
    // The zero state lives on the backend's session, like every other
    // state the backend evaluates.
    EXPECT_GT(dd.ddSession()->stats().poolNodes, 0U);
}

TEST(SingleVerify, ReportCarriesFidelityOpsAndSessionMetrics) {
    const StateVector ghz = states::ghz({3, 4, 2});
    const auto prep = prepareExact(ghz);
    const EvalState target(ghz);
    const DdBackend backend;
    const VerifyReport report = backend.verify({&prep.circuit, &target});
    EXPECT_FALSE(report.failed) << report.error;
    EXPECT_NEAR(report.fidelity, 1.0, 1e-9);
    EXPECT_EQ(report.ops, prep.circuit.numOperations());
    EXPECT_GT(report.ddNodes, 0U);
    EXPECT_TRUE(report.checkpoints.empty());

    // Repeats re-run the same replay; the session serves the repeats from
    // its caches, and the report's deltas measure exactly that. The target
    // is deliberately mismatched (fidelity < 1): an exactly-reproduced
    // target resolves by root identity before the compute cache is even
    // consulted, so only a descending overlap exercises it.
    const EvalState mismatched(states::wState({3, 4, 2}));
    const VerifyReport repeated = backend.verify({&prep.circuit, &mismatched, 3});
    EXPECT_FALSE(repeated.failed) << repeated.error;
    EXPECT_LT(repeated.fidelity, 1.0);
    EXPECT_GT(repeated.cacheHits, 0U);
}

TEST(SingleVerify, NullItemsFailInTheReportNotByThrowing) {
    const StateVector ghz = states::ghz({2, 2});
    const auto prep = prepareExact(ghz);
    const EvalState target(ghz);
    EXPECT_TRUE(DenseBackend().verify({nullptr, &target}).failed);
    EXPECT_TRUE(DenseBackend().verify({&prep.circuit, nullptr}).failed);
    const VerifyReport report = DenseBackend().verify({nullptr, nullptr});
    EXPECT_TRUE(report.failed);
    EXPECT_FALSE(report.error.empty());
}

class StreamVerify : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamVerify, DrainingACircuitSourceMatchesWholeCircuitReplay) {
    const ScopedThreads scope(GetParam());
    const StateVector ghz = states::ghz({3, 4, 2});
    const auto prep = prepareExact(ghz);
    const EvalState target(ghz);
    for (const BackendKind kind : {BackendKind::Dense, BackendKind::Dd}) {
        const auto backend = makeBackend(kind);
        CircuitSource source(prep.circuit);
        VerifyRequest request;
        request.target = &target;
        EvalState finalState;
        const VerifyReport report = backend->verifyStream(source, request, &finalState);
        EXPECT_FALSE(report.failed) << report.error;
        EXPECT_NEAR(report.fidelity, 1.0, 1e-9) << backendName(kind);
        EXPECT_EQ(report.ops, prep.circuit.numOperations());
        // The final state is handed out for further use and matches the
        // non-streaming replay of the same circuit.
        EXPECT_NEAR(finalState.fidelityWith(EvalState(ghz)), 1.0, 1e-9);
    }
}

TEST_P(StreamVerify, CheckpointsLandAtTheConfiguredCadence) {
    const ScopedThreads scope(GetParam());
    const StateVector ghz = states::ghz({3, 4, 2});
    const auto prep = prepareExact(ghz);
    const EvalState target(ghz);
    const DdBackend backend;
    CircuitSource source(prep.circuit);
    VerifyRequest request;
    request.target = &target;
    request.checkpointInterval = 2;
    const VerifyReport report = backend.verifyStream(source, request);
    const std::uint64_t expected = prep.circuit.numOperations() / 2;
    ASSERT_EQ(report.checkpoints.size(), expected);
    for (std::size_t i = 0; i < report.checkpoints.size(); ++i) {
        EXPECT_EQ(report.checkpoints[i].opIndex, 2 * (i + 1));
        EXPECT_GT(report.checkpoints[i].ddNodes, 0U);
        EXPECT_GE(report.checkpoints[i].fidelity, 0.0);
        EXPECT_LE(report.checkpoints[i].fidelity, 1.0 + 1e-9);
    }
}

TEST_P(StreamVerify, NullTargetReportsTheStateNorm) {
    const ScopedThreads scope(GetParam());
    const StateVector ghz = states::ghz({3, 2});
    const auto prep = prepareExact(ghz);
    const auto backend = makeBackend(BackendKind::Dd);
    CircuitSource source(prep.circuit);
    const VerifyReport report = backend->verifyStream(source, {});
    // Unitary replay preserves the norm; with no target the report's
    // fidelity is the norm² probe.
    EXPECT_NEAR(report.fidelity, 1.0, 1e-9);
}

TEST_P(StreamVerify, ReverifyAppendedReplaysOnlyTheDelta) {
    const ScopedThreads scope(GetParam());
    const StateVector ghz = states::ghz({3, 4, 2});
    const auto prep = prepareExact(ghz);
    const EvalState target(ghz);
    const DdBackend backend;

    Circuit grown = prep.circuit;
    EvalState replayed = backend.zeroState(grown.dimensions());
    const VerifyReport base = backend.reverifyAppended(grown, 0, replayed, target);
    EXPECT_NEAR(base.fidelity, 1.0, 1e-9);
    EXPECT_EQ(base.ops, grown.numOperations());

    // Grow by an identity pair: the verdict must stay fidelity 1, reached
    // by replaying exactly the two appended gates.
    const std::uint64_t fromOp = grown.numOperations();
    grown.append(Operation::levelSwap(0, 0, 1));
    grown.append(Operation::levelSwap(0, 0, 1));
    const VerifyReport delta = backend.reverifyAppended(grown, fromOp, replayed, target);
    EXPECT_NEAR(delta.fidelity, 1.0, 1e-9);
    EXPECT_EQ(delta.ops, 2U);

    // The incremental fidelity agrees with a from-scratch replay of the
    // grown circuit.
    EXPECT_NEAR(backend.preparationFidelity(grown, target), delta.fidelity, 1e-12);

    // A cursor past the end is a caller bug, reported as such.
    EXPECT_THROW((void)backend.reverifyAppended(grown, grown.numOperations() + 1,
                                                replayed, target),
                 InvalidArgumentError);
}

TEST(StreamVerifySession, AppendedDeltaResolvesFromTheSessionCache) {
    // Replay the same delta twice on one backend session: the second pass
    // repeats identical (gate, state) applications and overlaps, so the
    // report's cache deltas must show hits. The target is mismatched
    // (fidelity < 1) so the overlap genuinely descends — a reproduced
    // target resolves by root identity without touching the cache.
    // Single-threaded so the raw counters are deterministic.
    const ScopedThreads scope(1);
    const Dimensions dims{3, 4, 2};
    const StateVector ghz = states::ghz(dims);
    const auto prep = prepareExact(ghz);
    const EvalState target(states::wState(dims));
    const DdBackend backend;

    Circuit grown = prep.circuit;
    EvalState first = backend.zeroState(dims);
    const VerifyReport warmup = backend.reverifyAppended(grown, 0, first, target);
    EXPECT_LT(warmup.fidelity, 1.0);

    EvalState second = backend.zeroState(dims);
    const VerifyReport rerun = backend.reverifyAppended(grown, 0, second, target);
    EXPECT_EQ(rerun.fidelity, warmup.fidelity);
    EXPECT_GT(rerun.cacheHits, 0U);
    EXPECT_GT(rerun.cacheLookups, 0U);
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamVerify, ::testing::Values(1U, 2U, 4U), threadTag);

} // namespace
} // namespace mqsp
