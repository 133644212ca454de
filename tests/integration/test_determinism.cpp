// Thread-count determinism: the parallel execution layer must not change
// results. parallelReduce-based norms and inner products are bit-identical
// at 1 and at N threads (ordered-chunk contract); full prepare + verify
// pipelines produce end states identical to 1e-12 (in fact bit-identical:
// each amplitude's arithmetic is independent of the partition) across
// ghz / w / random targets on mixed-radix registers.

#include "mqsp/circuit/qasm.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/density_simulator.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include "common/random_circuit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mqsp {
namespace {

using ScopedThreads = parallel::ScopedThreadCount;

struct Target {
    std::string family;
    Dimensions dims;
};

std::vector<Target> targets() {
    return {
        {"ghz", {3, 4, 2, 5}},
        {"ghz", {2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
        {"w", {3, 6, 2}},
        {"w", {2, 3, 2, 3, 2}},
        {"random", {9, 5, 6, 3}},
        {"random", {4, 4, 4, 4}},
    };
}

StateVector makeTarget(const Target& target) {
    if (target.family == "ghz") {
        return states::ghz(target.dims);
    }
    if (target.family == "w") {
        return states::wState(target.dims);
    }
    Rng rng(12345);
    return states::random(target.dims, rng);
}

TEST(ThreadDeterminism, NormsBitIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        double norm1 = 0.0;
        Complex inner1{0.0, 0.0};
        {
            const ScopedThreads scope(1);
            norm1 = state.normSquared();
            inner1 = state.innerProduct(state);
        }
        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            // Bit-identical, not merely close: EXPECT_EQ on the doubles.
            EXPECT_EQ(norm1, state.normSquared())
                << target.family << " norm at " << threads << " threads";
            const Complex innerN = state.innerProduct(state);
            EXPECT_EQ(inner1.real(), innerN.real())
                << target.family << " inner product at " << threads << " threads";
            EXPECT_EQ(inner1.imag(), innerN.imag());
        }
    }
}

TEST(ThreadDeterminism, PrepVerifyEndStatesIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        const auto prep = prepareExact(state);

        StateVector out1;
        double fidelity1 = 0.0;
        {
            const ScopedThreads scope(1);
            out1 = Simulator::runFromZero(prep.circuit);
            fidelity1 = state.fidelityWith(out1);
        }
        EXPECT_NEAR(fidelity1, 1.0, 1e-9);

        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            const StateVector outN = Simulator::runFromZero(prep.circuit);
            ASSERT_EQ(out1.size(), outN.size());
            for (std::uint64_t i = 0; i < out1.size(); ++i) {
                EXPECT_NEAR(out1[i].real(), outN[i].real(), 1e-12)
                    << target.family << " amplitude " << i << " at " << threads
                    << " threads";
                EXPECT_NEAR(out1[i].imag(), outN[i].imag(), 1e-12);
            }
            EXPECT_NEAR(state.fidelityWith(outN), fidelity1, 1e-12);
        }
    }
}

TEST(ThreadDeterminism, BackendVerificationIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        const auto prep = prepareExact(state);
        const EvalState evalTarget(state);

        double fidelity1 = 0.0;
        {
            const ScopedThreads scope(1);
            fidelity1 = DenseBackend().preparationFidelity(prep.circuit, evalTarget);
        }
        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            const double fidelityN =
                DenseBackend().preparationFidelity(prep.circuit, evalTarget);
            EXPECT_NEAR(fidelityN, fidelity1, 1e-12) << target.family;
        }
    }
}

// The density-matrix kernels (sim/density_simulator.cpp) run on the same
// ordered-chunk parallelFor/parallelReduce contract as the dense
// simulator: every (row, col) cell's arithmetic is independent of the
// partition, and the reductions sum fixed per-grain partials in index
// order. Fidelity, trace, and purity must therefore be bit-identical —
// EXPECT_EQ on the doubles — at every thread count.
TEST(ThreadDeterminism, DensityReplayBitIdenticalAcrossThreadCounts) {
    const std::vector<Target> noisyTargets = {
        {"ghz", {3, 4, 2}},
        {"w", {3, 6, 2}},
        {"random", {4, 4, 4}},
    };
    NoiseModel noise;
    noise.singleQuditError = 1e-4;
    noise.twoQuditError = 1e-3;
    for (const auto& target : noisyTargets) {
        const StateVector state = makeTarget(target);
        const auto prep = prepareExact(state);

        double fidelity1 = 0.0;
        double trace1 = 0.0;
        double purity1 = 0.0;
        {
            const ScopedThreads scope(1);
            const DensityMatrix rho =
                NoisySimulator(parallel::ExecutionConfig{1}).run(prep.circuit, noise);
            fidelity1 = rho.fidelityWithPure(state);
            trace1 = rho.trace();
            purity1 = rho.purity();
        }
        EXPECT_NEAR(trace1, 1.0, 1e-9) << target.family;
        EXPECT_GT(fidelity1, 0.9) << target.family;

        for (const unsigned threads : {2U, 4U, 7U}) {
            const ScopedThreads scope(threads);
            const DensityMatrix rho =
                NoisySimulator(parallel::ExecutionConfig{threads}).run(prep.circuit, noise);
            EXPECT_EQ(rho.fidelityWithPure(state), fidelity1)
                << target.family << " fidelity at " << threads << " threads";
            EXPECT_EQ(rho.trace(), trace1)
                << target.family << " trace at " << threads << " threads";
            EXPECT_EQ(rho.purity(), purity1)
                << target.family << " purity at " << threads << " threads";
        }
    }
}

// Synthesis of one diagram runs on the calling thread at any width, so the
// circuit — and its QASM text — must be byte-identical at every thread
// count.
TEST(ThreadDeterminism, SynthesisQasmByteIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);

        std::string qasm1;
        {
            const ScopedThreads scope(1);
            qasm1 = toQasm(synthesize(dd));
        }
        EXPECT_FALSE(qasm1.empty());

        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            EXPECT_EQ(toQasm(synthesize(dd)), qasm1)
                << target.family << " QASM at " << threads << " threads";
        }
    }
}

// --- dense kernel against the digit walk -----------------------------------
//
// Simulator::apply enumerates only the bases a gate touches (an odometer over
// the free digits, decoded once per chunk). The reference below is the
// generic one-index-at-a-time digitAt walk; the kernel must reproduce it bit
// for bit, because each touched amplitude gets the same floating-point
// operations and untouched ones are never written.

/// Reference semantics of Simulator::apply: visit every base whose target
/// digit is 0. The two-level kinds test the controls on the index whose
/// target digit is levelA, the dense kinds on the base itself.
StateVector digitWalkApply(const StateVector& in, const Operation& op) {
    const MixedRadix& radix = in.radix();
    const Dimension dim = radix.dimensionAt(op.target);
    const DenseMatrix local = op.localMatrix(dim);
    const std::uint64_t stride = radix.strideAt(op.target);
    const bool twoLevel = op.kind == GateKind::GivensRotation ||
                          op.kind == GateKind::PhaseRotation || op.kind == GateKind::LevelSwap;
    const auto satisfied = [&](std::uint64_t index) {
        return std::all_of(op.controls.begin(), op.controls.end(), [&](const Control& ctrl) {
            return radix.digitAt(index, ctrl.qudit) == ctrl.level;
        });
    };
    std::vector<Complex> next(in.amplitudes().begin(), in.amplitudes().end());
    for (std::uint64_t base = 0; base < radix.totalDimension(); ++base) {
        if (radix.digitAt(base, op.target) != 0) {
            continue;
        }
        if (twoLevel) {
            const std::uint64_t idxA = base + static_cast<std::uint64_t>(op.levelA) * stride;
            if (!satisfied(idxA)) {
                continue;
            }
            const std::uint64_t idxB = base + static_cast<std::uint64_t>(op.levelB) * stride;
            const Complex va = in[idxA];
            const Complex vb = in[idxB];
            next[idxA] = local(op.levelA, op.levelA) * va + local(op.levelA, op.levelB) * vb;
            next[idxB] = local(op.levelB, op.levelA) * va + local(op.levelB, op.levelB) * vb;
            continue;
        }
        if (!satisfied(base)) {
            continue;
        }
        for (Dimension r = 0; r < dim; ++r) {
            Complex acc{0.0, 0.0};
            for (Dimension c = 0; c < dim; ++c) {
                acc += local(r, c) * in[base + static_cast<std::uint64_t>(c) * stride];
            }
            next[base + static_cast<std::uint64_t>(r) * stride] = acc;
        }
    }
    return StateVector(radix.dimensions(), std::move(next));
}

/// EXPECT_EQ on the bit patterns of every amplitude; reports the first
/// mismatch only.
void expectBitIdentical(const StateVector& actual, const StateVector& expected,
                        const std::string& label) {
    ASSERT_EQ(actual.size(), expected.size()) << label;
    const auto bits = [](const Complex& z) {
        return std::pair{std::bit_cast<std::uint64_t>(z.real()),
                         std::bit_cast<std::uint64_t>(z.imag())};
    };
    for (std::uint64_t i = 0; i < actual.size(); ++i) {
        if (bits(actual[i]) != bits(expected[i])) {
            EXPECT_EQ(bits(actual[i]), bits(expected[i])) << label << ", amplitude " << i;
            return;
        }
    }
}

/// One gate of every kind on `target`, under `controls`. The two-level
/// kinds walk levelA = dim - 1 down to levelB = 0 or the reverse, so both
/// orders of the (a, b) pair are covered.
std::vector<Operation> everyKind(std::size_t target, Dimension dim,
                                 const std::vector<Control>& controls) {
    const Level top = dim - 1;
    return {
        Operation::givens(target, top, 0, 0.7, 0.3, controls),
        Operation::phase(target, 0, top, -0.9, controls),
        Operation::levelSwap(target, top, 0, controls),
        Operation::hadamard(target, controls),
        Operation::shift(target, 1, controls),
    };
}

/// Every target and every subset of the other sites as controls (above,
/// below and on both sides of the target; adjacent free sites merge into
/// one odometer group), each gate kind applied in sequence to one evolving
/// state.
TEST(ThreadDeterminism, TouchedWalkMatchesDigitWalk) {
    const Dimensions dims{3, 2, 4, 2, 3};
    const MixedRadix radix(dims);
    Rng rng(777);
    StateVector state = states::random(dims, rng);
    const std::size_t n = dims.size();
    for (std::size_t target = 0; target < n; ++target) {
        for (std::uint32_t subset = 0; subset < (1U << n); ++subset) {
            if ((subset >> target) & 1U) {
                continue;
            }
            std::vector<Control> controls;
            for (std::size_t site = 0; site < n; ++site) {
                if ((subset >> site) & 1U) {
                    const auto level = static_cast<Level>((target + site + 1) % dims[site]);
                    controls.push_back({site, level});
                }
            }
            for (const Operation& op : everyKind(target, dims[target], controls)) {
                const StateVector expected = digitWalkApply(state, op);
                Simulator::apply(state, op);
                expectBitIdentical(state, expected, op.toString());
            }
        }
    }
}

/// Gates whose touched set spans at least three kKernelGrain (4096-base)
/// chunks, so at t2 and t4 chunks start mid-run and decode their start
/// digits; the result must be the same bits at every width.
TEST(ThreadDeterminism, TouchedWalkMatchesDigitWalkAcrossChunks) {
    const Dimensions dims{2, 5, 3, 4, 2, 7, 4, 3, 2, 3}; // 120960 amplitudes
    Rng rng(4242);
    const StateVector initial = states::random(dims, rng);
    const std::vector<Operation> ops = {
        // 15120 bases: controls on both sides, three free groups.
        Operation::givens(4, 1, 0, 1.1, -0.6, {{0, 1}, {8, 0}}),
        // 20160 bases: dense kernel, control below.
        Operation::hadamard(2, {{8, 1}}),
        // 20160 bases: least-significant target, control above.
        Operation::shift(9, 2, {{0, 0}}),
        // 30240 bases: most-significant target, control below.
        Operation::givens(0, 0, 1, 0.4, 0.8, {{4, 1}}),
        // 17280 bases: uncontrolled, every other site free.
        Operation::phase(5, 6, 2, 0.5),
        // 20160 bases: control directly above the target.
        Operation::levelSwap(7, 2, 0, {{4, 0}}),
    };
    StateVector expected = initial;
    for (const auto& op : ops) {
        expected = digitWalkApply(expected, op);
    }
    for (const unsigned threads : {1U, 2U, 4U}) {
        const ScopedThreads scope(threads);
        StateVector state = initial;
        for (const auto& op : ops) {
            Simulator::apply(state, op);
        }
        expectBitIdentical(state, expected, "t" + std::to_string(threads));
    }
}

/// Gates no Circuit accepts but Simulator::apply takes directly: a control
/// on the target (at the walked level it fires, at another level it is a
/// no-op), an out-of-range control level (no-op), duplicate controls on one
/// qudit (equal levels fire, contradictory levels are a no-op), and every
/// non-target site controlled (one base per gate).
TEST(ThreadDeterminism, TouchedWalkMatchesDigitWalkOnDegenerateGates) {
    const Dimensions dims{3, 2, 4, 2, 3};
    Rng rng(99);
    StateVector state = states::random(dims, rng);
    struct Case {
        std::string label;
        Operation op;
        bool noOp;
    };
    const std::vector<Case> cases = {
        {"target control at walked level", Operation::givens(2, 1, 3, 0.7, 0.2, {{2, 1}}), false},
        {"target control at walked level (dense)", Operation::hadamard(2, {{2, 0}, {0, 1}}),
         false},
        {"target control at another level", Operation::givens(2, 1, 3, 0.7, 0.2, {{2, 3}}),
         true},
        {"target control at another level (dense)", Operation::shift(2, 1, {{2, 2}}), true},
        {"out-of-range control level", Operation::givens(2, 0, 1, 0.7, 0.2, {{0, 5}}), true},
        {"out-of-range control level (dense)", Operation::hadamard(4, {{1, 2}}), true},
        {"duplicate equal controls", Operation::phase(1, 0, 1, 0.9, {{0, 1}, {3, 0}, {0, 1}}),
         false},
        {"duplicate contradictory controls",
         Operation::givens(1, 0, 1, 0.9, 0.1, {{0, 1}, {0, 2}}), true},
        {"duplicate contradictory controls (dense)", Operation::hadamard(0, {{4, 0}, {4, 1}}),
         true},
        {"every other site controlled",
         Operation::givens(2, 0, 3, 1.3, -0.2, {{0, 1}, {1, 1}, {3, 0}, {4, 2}}), false},
        {"every other site controlled (dense)",
         Operation::hadamard(2, {{4, 2}, {0, 1}, {3, 0}, {1, 1}}), false},
    };
    for (const auto& c : cases) {
        const StateVector before = state;
        const StateVector expected = digitWalkApply(state, c.op);
        Simulator::apply(state, c.op);
        expectBitIdentical(state, expected, c.label);
        if (c.noOp) {
            expectBitIdentical(state, before, c.label + " (must leave the state untouched)");
        } else {
            EXPECT_NE(state.amplitudes(), before.amplitudes()) << c.label << " must fire";
        }
    }
}

TEST(ThreadDeterminism, TouchedWalkRejectsOutOfRangeControlQudit) {
    StateVector state(Dimensions{3, 2, 4});
    const StateVector before = state;
    EXPECT_THROW(Simulator::apply(state, Operation::givens(1, 0, 1, 0.5, 0.0, {{0, 1}, {3, 0}})),
                 InvalidArgumentError);
    EXPECT_THROW(Simulator::apply(state, Operation::hadamard(0, {{7, 0}})), InvalidArgumentError);
    // Validation precedes the walk: even a gate that would never fire throws.
    EXPECT_THROW(Simulator::apply(state, Operation::shift(2, 1, {{0, 9}, {5, 0}})),
                 InvalidArgumentError);
    expectBitIdentical(state, before, "rejected gates leave the state untouched");
}

// --- batch determinism beside a populated session ----------------------------
//
// `DdBackend::verifyBatch` fans items out across the pool, each item on a
// worker session of its own, while the backend's session holds diagrams
// built before the batch. The batch adds nothing to that session, so its
// `dd_nodes` is a function of the work alone, and every fidelity is
// bit-identical at any thread count and item order.
//
// The families are curated so no two distinct targets produce bucketed-
// equal-but-bit-different weights on a shared key (e.g. a ghz 1/sqrt(2)
// against a cyclic sqrt(0.5)), the case where a shared session would make
// "who interns first" observable in the last ulp; the SessionApplyFixture
// batch below pins the items that do.

struct SharedSessionFixture {
    std::vector<StateVector> denseTargets;
    std::vector<Circuit> circuits;
    std::vector<EvalState> evalTargets;
    std::vector<VerifyRequest> items;

    SharedSessionFixture() {
        denseTargets.push_back(states::ghz({3, 4, 2, 3}));
        denseTargets.push_back(states::wState({2, 3, 2, 3}));
        denseTargets.push_back(states::cyclic({3, 4, 2, 3}, {1, 0, 1, 0}, 4));
        denseTargets.push_back(states::dicke({2, 3, 2}, 2));
        evalTargets.reserve(denseTargets.size());
        for (const auto& target : denseTargets) {
            circuits.push_back(prepareExact(target).circuit);
            evalTargets.emplace_back(target);
        }
        for (std::size_t i = 0; i < denseTargets.size(); ++i) {
            items.push_back({&circuits[i], &evalTargets[i]});
        }
    }
};

/// Run the fixture's batch on a fresh backend pinned to `threads`, after
/// building the cyclic and dicke targets as session diagrams, so the
/// session holds nodes the batch must leave as they are.
struct SharedSessionRun {
    std::vector<double> fidelities;
    std::uint64_t poolNodes = 0;

    SharedSessionRun(const SharedSessionFixture& fixture, unsigned threads,
                     bool reverseItems = false) {
        const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{threads});
        const auto session = backend.ddSession();
        const DecisionDiagram cyclicDd = DecisionDiagram::cyclicState({3, 4, 2, 3}, {1, 0, 1, 0}, 4, session.get());
        const DecisionDiagram dickeDd = DecisionDiagram::dickeState({2, 3, 2}, 2, session.get());
        EXPECT_NEAR(cyclicDd.normSquared(), 1.0, 1e-9);
        EXPECT_NEAR(dickeDd.normSquared(), 1.0, 1e-9);

        std::vector<VerifyRequest> items = fixture.items;
        if (reverseItems) {
            std::reverse(items.begin(), items.end());
        }
        const auto results = backend.verifyBatch(items);
        for (const auto& result : results) {
            EXPECT_FALSE(result.failed) << result.error;
            fidelities.push_back(result.fidelity);
        }
        if (reverseItems) {
            std::reverse(fidelities.begin(), fidelities.end());
        }
        poolNodes = session->stats().poolNodes;
    }
};

TEST(SharedSessionDeterminism, BatchFidelitiesBitIdenticalAcrossThreadCounts) {
    const SharedSessionFixture fixture;
    const SharedSessionRun baseline(fixture, 1);
    ASSERT_EQ(baseline.fidelities.size(), fixture.items.size());
    for (const double fidelity : baseline.fidelities) {
        EXPECT_NEAR(fidelity, 1.0, 1e-9);
    }
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SharedSessionRun run(fixture, threads);
        ASSERT_EQ(run.fidelities.size(), baseline.fidelities.size());
        for (std::size_t i = 0; i < run.fidelities.size(); ++i) {
            // Bit-identical, not merely close.
            EXPECT_EQ(run.fidelities[i], baseline.fidelities[i])
                << "item " << i << " at " << threads << " threads";
        }
    }
}

TEST(SharedSessionDeterminism, SessionNodeCountInvariantAcrossThreadCounts) {
    const SharedSessionFixture fixture;
    const SharedSessionRun baseline(fixture, 1);
    EXPECT_GT(baseline.poolNodes, 1U);
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SharedSessionRun run(fixture, threads);
        EXPECT_EQ(run.poolNodes, baseline.poolNodes) << threads << " threads";
    }
}

TEST(SharedSessionDeterminism, ItemOrderDoesNotChangeFidelitiesOrNodeCount) {
    const SharedSessionFixture fixture;
    const SharedSessionRun forward(fixture, 4);
    const SharedSessionRun reversed(fixture, 4, /*reverseItems=*/true);
    ASSERT_EQ(reversed.fidelities.size(), forward.fidelities.size());
    for (std::size_t i = 0; i < forward.fidelities.size(); ++i) {
        EXPECT_EQ(reversed.fidelities[i], forward.fidelities[i]) << "item " << i;
    }
    EXPECT_EQ(reversed.poolNodes, forward.poolNodes);
}

// --- session-backed apply determinism --------------------------------------
//
// A single-item DdBackend call runs its gate applications and equivalence
// checks on the calling thread at any configured width; only batches fan
// out, across items. The session's `dd_nodes`, every fidelity and every
// replayed amplitude are therefore functions of the work alone — invariant
// across thread counts, bit for bit. The preparation circuits never add two
// populated edges; the random all-kind circuits do, so they also pin the
// session's cached addition against a dense reference.

struct SessionApplyFixture {
    std::vector<StateVector> denseTargets;
    std::vector<Circuit> circuits;

    /// The preparation circuits, then (with `randomCircuits`) random
    /// all-kind circuits whose expected states are their dense replays.
    explicit SessionApplyFixture(bool randomCircuits = true) {
        Rng rng(424242);
        denseTargets.push_back(states::random({9, 5, 6, 3}, rng));
        denseTargets.push_back(states::ghz({3, 4, 2, 5}));
        denseTargets.push_back(states::wState({2, 3, 2, 3, 2}));
        for (const auto& target : denseTargets) {
            circuits.push_back(prepareExact(target).circuit);
        }
        if (!randomCircuits) {
            return;
        }
        for (std::uint64_t seed = 21; seed <= 28; ++seed) {
            circuits.push_back(randomAllKindCircuit({3, 4, 2, 5}, 60, seed));
            denseTargets.push_back(Simulator::runFromZero(circuits.back()));
        }
    }
};

/// Replay and verify every fixture item on a fresh backend pinned to
/// `threads`, optionally in reverse item order (results are re-indexed to
/// the fixture order either way, so runs compare element-wise).
struct SessionApplyRun {
    std::vector<StateVector> replays;
    std::vector<double> replayFidelities;
    std::vector<double> verifyFidelities;
    std::uint64_t poolNodes = 0;

    SessionApplyRun(const SessionApplyFixture& fixture, unsigned threads,
                    bool reverseItems = false) {
        const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{threads});
        std::vector<std::size_t> order(fixture.circuits.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        if (reverseItems) {
            std::reverse(order.begin(), order.end());
        }
        replays.resize(order.size());
        replayFidelities.resize(order.size(), 0.0);
        verifyFidelities.resize(order.size(), 0.0);
        for (const std::size_t i : order) {
            replays[i] = backend.runFromZero(fixture.circuits[i]).toStateVector(4096);
            replayFidelities[i] = fixture.denseTargets[i].fidelityWith(replays[i]);
            verifyFidelities[i] = backend.preparationFidelity(
                fixture.circuits[i], EvalState(fixture.denseTargets[i]));
        }
        poolNodes = backend.ddSession()->stats().poolNodes;
    }

    /// Bit-identical replays and fidelities, item by item.
    void expectSameBits(const SessionApplyRun& other, const std::string& label) const {
        ASSERT_EQ(replays.size(), other.replays.size());
        for (std::size_t i = 0; i < replays.size(); ++i) {
            const std::string item = label + ", item " + std::to_string(i);
            expectBitIdentical(replays[i], other.replays[i], item + " replay");
            EXPECT_EQ(replayFidelities[i], other.replayFidelities[i]) << item;
            EXPECT_EQ(verifyFidelities[i], other.verifyFidelities[i]) << item;
        }
    }
};

TEST(SessionApplyDeterminism, FidelitiesBitIdenticalAcrossThreadCounts) {
    const SessionApplyFixture fixture;
    const SessionApplyRun baseline(fixture, 1);
    for (std::size_t i = 0; i < baseline.replayFidelities.size(); ++i) {
        EXPECT_NEAR(baseline.replayFidelities[i], 1.0, 1e-9) << "item " << i;
        EXPECT_NEAR(baseline.verifyFidelities[i], 1.0, 1e-9) << "item " << i;
    }
    for (const unsigned threads : {2U, 4U, 7U}) {
        SessionApplyRun(fixture, threads)
            .expectSameBits(baseline, std::to_string(threads) + " threads");
    }
}

TEST(SessionApplyDeterminism, SessionNodeCountInvariantAcrossThreadCounts) {
    const SessionApplyFixture fixture;
    const SessionApplyRun baseline(fixture, 1);
    EXPECT_GT(baseline.poolNodes, 1U);
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SessionApplyRun run(fixture, threads);
        EXPECT_EQ(run.poolNodes, baseline.poolNodes) << threads << " threads";
    }
}

// Item order fixes which of two bucketed-equal but bit-different weights a
// session interns first (see SharedSessionFixture). The random circuits
// produce such pairs, so with them only `dd_nodes` is order-invariant; the
// preparation circuits alone keep every bit.
TEST(SessionApplyDeterminism, ItemOrderDoesNotChangeFidelitiesOrNodeCount) {
    const SessionApplyFixture fixture;
    EXPECT_EQ(SessionApplyRun(fixture, 4, /*reverseItems=*/true).poolNodes,
              SessionApplyRun(fixture, 4).poolNodes);

    const SessionApplyFixture preparations(/*randomCircuits=*/false);
    const SessionApplyRun forward(preparations, 4);
    const SessionApplyRun reversed(preparations, 4, /*reverseItems=*/true);
    reversed.expectSameBits(forward, "reversed order");
    EXPECT_EQ(reversed.poolNodes, forward.poolNodes);
}

// The same eleven items as one batch. Sequential calls on one session let
// item order fix which of two bucket-equal weights a key keeps (the test
// above); batch items each replay on an emptied worker session, so every
// fidelity keeps its bits at any width and in any order.
TEST(SessionApplyDeterminism, BatchFidelitiesBitIdenticalAcrossWidthsAndOrders) {
    const SessionApplyFixture fixture;
    std::vector<EvalState> targets;
    targets.reserve(fixture.denseTargets.size());
    for (const StateVector& target : fixture.denseTargets) {
        targets.emplace_back(target);
    }
    ASSERT_EQ(targets.size(), 11U);
    /// Fidelities of one batch over the items in `order`, re-indexed to the
    /// fixture order.
    const auto runBatch = [&](unsigned threads, const std::vector<std::size_t>& order) {
        std::vector<VerifyRequest> items;
        for (const std::size_t i : order) {
            items.push_back({&fixture.circuits[i], &targets[i]});
        }
        const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{threads});
        const std::vector<VerifyReport> reports = backend.verifyBatch(items);
        std::vector<double> fidelities(order.size(), 0.0);
        for (std::size_t k = 0; k < order.size(); ++k) {
            EXPECT_FALSE(reports[k].failed) << reports[k].error;
            fidelities[order[k]] = reports[k].fidelity;
        }
        return fidelities;
    };

    std::vector<std::size_t> forward(targets.size());
    for (std::size_t i = 0; i < forward.size(); ++i) {
        forward[i] = i;
    }
    std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
    std::vector<std::size_t> rotated = forward;
    std::rotate(rotated.begin(), rotated.begin() + 5, rotated.end());

    const std::vector<double> baseline = runBatch(1, forward);
    for (const double fidelity : baseline) {
        EXPECT_NEAR(fidelity, 1.0, 1e-9);
    }
    for (const unsigned threads : {1U, 2U, 4U, 7U}) {
        for (const auto& [label, order] :
             {std::pair{"forward", forward}, std::pair{"reversed", reversed},
              std::pair{"rotated by 5", rotated}}) {
            const std::vector<double> run = runBatch(threads, order);
            for (std::size_t i = 0; i < run.size(); ++i) {
                EXPECT_EQ(run[i], baseline[i])
                    << "item " << i << ", " << label << " at " << threads << " threads";
            }
        }
    }
}


} // namespace
} // namespace mqsp
