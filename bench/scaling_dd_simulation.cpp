// Evaluation-backend scaling (the substrate of the paper's reference [12]):
// replay synthesized preparation circuits through the pluggable
// EvaluationBackend interface (sim/backend.hpp) and compare the dense
// state-vector backend against the decision-diagram backend under one
// methodology. On structured states the DD stays small and the dd backend
// wins as the register grows; on dense random states the DD degenerates to
// the full tree and the dense backend is the better tool — the classic
// DD-simulation trade-off. Each small-register workload registers the same
// case under both backends (the `backend` provenance field keeps them apart
// in reports); the past-the-ceiling rows (>= 10^8 amplitudes, far beyond
// what the dense backend will allocate) register dd-only and demonstrate
// preparation + verification that never materializes an amplitude vector.
// Every case verifies its output against the target state and fails on
// mismatch.

#include "bench_common.hpp"
#include "harness.hpp"

#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace {

using namespace mqsp;
using namespace mqsp::bench;

StateVector makeDenseTarget(const std::string& family, const Dimensions& dims, Rng& rng) {
    if (family == "GHZ") {
        return states::ghz(dims);
    }
    if (family == "W") {
        return states::wState(dims);
    }
    return states::random(dims, rng);
}

/// DD-native target for the structured families — the only construction
/// path that works past the dense ceiling. With a session, the target is
/// built straight into the backend's shared uniquing table, so the replay
/// that follows re-finds these very nodes.
DecisionDiagram makeDiagramTarget(const std::string& family, const Dimensions& dims,
                                  const dd::DdSession* session) {
    if (family == "GHZ") {
        return DecisionDiagram::ghzState(dims, session);
    }
    if (family == "W") {
        return DecisionDiagram::wState(dims, session);
    }
    if (family == "Emb. W") {
        return DecisionDiagram::embeddedWState(dims, session);
    }
    if (family == "Cyclic") {
        // All distinct shifts of |0...0>; lcm of the benchmark registers'
        // dims is small, so pass the max dimension as the count cap.
        const Dimension maxDim = *std::max_element(dims.begin(), dims.end());
        return DecisionDiagram::cyclicState(dims, Digits(dims.size(), 0), maxDim, session);
    }
    if (family == "Dicke-2") {
        return DecisionDiagram::dickeState(dims, 2, session);
    }
    throw std::runtime_error("no diagram builder for family " + family);
}

/// Record the DD-session memory metrics alongside a case's timings: the
/// live diagram size plus the uniquing-table and compute-cache hit rates
/// of the backend session the repetition ran on.
void recordSessionMetrics(Repetition& rep, const EvaluationBackend& backend,
                          const EvalState& out) {
    const auto session = backend.ddSession();
    if (!session || !out.isDiagram()) {
        return;
    }
    const auto stats = session->stats();
    rep.metric("dd_nodes",
               static_cast<double>(out.diagram().nodeCount(NodeCountMode::Internal)));
    rep.metric("unique_hit_rate", stats.uniqueHitRate());
    rep.metric("cache_hit_rate", stats.cacheHitRate());
}

/// Register one backend's case for a workload whose target fits in memory,
/// pinned to `threads` workers (1 = the historical single-threaded rows;
/// higher counts register speedup-curve variants of the same workload).
void addSmallRegisterCase(Harness& harness, const std::string& family,
                          const Dimensions& dims, BackendKind kind,
                          std::uint64_t caseSeed, bool smoke, unsigned threads = 1) {
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    CaseSpec spec;
    spec.name = family;
    spec.dims = dims;
    spec.backend = backendName(kind);
    spec.threads = threads;
    spec.reps = 10;
    spec.smoke = smoke;
    spec.body = [family, dims, kind, caseSeed, lean](Repetition& rep) {
        Rng rng = repetitionRng(caseSeed, rep.index());
        const StateVector target = makeDenseTarget(family, dims, rng);
        const auto prep = prepareExact(target, lean);
        const auto backend = makeBackend(kind);

        EvalState out;
        rep.time([&] { out = backend->runFromZero(prep.circuit); });
        rep.metric("amplitudes", static_cast<double>(target.size()));
        rep.metric("ops", static_cast<double>(prep.circuit.numOperations()));
        const double fidelity = out.fidelityWith(EvalState(target));
        rep.metric("fidelity", fidelity);
        recordSessionMetrics(rep, *backend, out);
        if (std::abs(fidelity - 1.0) > 1e-6) {
            throw std::runtime_error(std::string(backendName(kind)) +
                                     " simulation failed verification");
        }
    };
    harness.add(std::move(spec));
}

/// Register a dd-only case on a register past the dense ceiling: target,
/// synthesis, replay and fidelity all stay on diagrams.
void addPastCeilingCase(Harness& harness, const std::string& family,
                        const Dimensions& dims, bool smoke) {
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    CaseSpec spec;
    spec.name = family;
    spec.dims = dims;
    spec.backend = "dd";
    spec.threads = 1;
    spec.reps = 10;
    spec.smoke = smoke;
    spec.body = [family, dims, lean](Repetition& rep) {
        // One backend per repetition: the session statistics below describe
        // exactly one cold target-build + replay + verification, so the
        // recorded metrics are repetition-count-invariant (and CI can gate
        // on them).
        const auto backend = makeBackend(BackendKind::Dd);
        const DecisionDiagram target =
            makeDiagramTarget(family, dims, backend->ddSession().get());
        const Circuit circuit = synthesize(target, lean);

        EvalState out;
        rep.time([&] { out = backend->runFromZero(circuit); });
        rep.metric("amplitudes",
                   static_cast<double>(MixedRadix(dims).totalDimension()));
        rep.metric("ops", static_cast<double>(circuit.numOperations()));
        rep.metric("nodes", static_cast<double>(
                                target.nodeCount(NodeCountMode::Internal)));
        const double fidelity = EvalState(target).fidelityWith(out);
        rep.metric("fidelity", fidelity);
        recordSessionMetrics(rep, *backend, out);
        if (std::abs(fidelity - 1.0) > 1e-6) {
            throw std::runtime_error("past-ceiling dd preparation failed verification");
        }
    };
    harness.add(std::move(spec));
}

/// Register a batch case: `count` independent prepare-and-verify items
/// through EvaluationBackend::verifyBatch. With threads pinned
/// above 1 the items fan out across the pool workers (and each item's
/// kernels run serially inside its worker — the nested-use contract);
/// at 1 thread the same batch runs sequentially, so the t1/tN pair is the
/// batch-level speedup curve. (A single-item dd replay runs on one thread
/// at any width — see addIntraApplyCase below.)
void addBatchCase(Harness& harness, const std::string& family, const Dimensions& dims,
                  BackendKind kind, std::size_t count, unsigned threads, bool smoke) {
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    CaseSpec spec;
    spec.name = family + " batch" + std::to_string(count);
    spec.dims = dims;
    spec.backend = backendName(kind);
    spec.threads = threads;
    spec.reps = 10;
    spec.smoke = smoke;
    spec.body = [family, dims, kind, count, lean](Repetition& rep) {
        Rng rng(Rng::kDefaultSeed);
        std::vector<StateVector> targets;
        std::vector<EvalState> evalTargets;
        std::vector<Circuit> circuits;
        std::vector<VerifyRequest> items;
        targets.reserve(count);
        circuits.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            targets.push_back(makeDenseTarget(family, dims, rng));
            circuits.push_back(prepareExact(targets.back(), lean).circuit);
        }
        evalTargets.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            evalTargets.emplace_back(targets[i]);
            items.push_back({&circuits[i], &evalTargets[i]});
        }
        const auto backend = makeBackend(kind);

        std::vector<VerifyReport> results;
        rep.time([&] { results = backend->verifyBatch(items); });
        rep.metric("batch_items", static_cast<double>(count));
        if (kind == BackendKind::Dd) {
            // Each item replays on a worker session of its own, so its
            // dd_nodes is its own pool: a function of the item alone,
            // whatever the width and the item order. The largest is the
            // batch's per-item pool (the backend's session, which a batch
            // does not grow, says nothing about the work); cache hit rates
            // stay out of the gated report.
            std::uint64_t largestPool = 0;
            for (const auto& result : results) {
                largestPool = std::max(largestPool, result.ddNodes);
            }
            rep.metric("dd_nodes", static_cast<double>(largestPool));
        }
        for (const auto& result : results) {
            if (result.failed || std::abs(result.fidelity - 1.0) > 1e-6) {
                throw std::runtime_error("batch item failed verification: " + result.error);
            }
        }
    };
    harness.add(std::move(spec));
}

/// Register an intra-apply case: ONE session-backed replay of a dense
/// random-state preparation circuit. Parallelism stops at the item, so every
/// gate application runs on the calling thread whatever the configured
/// width: the t1/t2/t4/t8 rows check that a single replay pays nothing for
/// the width (docs/BENCHMARKS.md). `dd_nodes` and `fidelity` are
/// thread-count-invariant and feed the CI metrics gate.
void addIntraApplyCase(Harness& harness, const Dimensions& dims, std::uint64_t caseSeed,
                       unsigned threads, bool smoke) {
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    CaseSpec spec;
    spec.name = "random intra-apply";
    spec.dims = dims;
    spec.backend = "dd";
    spec.threads = threads;
    spec.reps = 10;
    spec.smoke = smoke;
    spec.body = [dims, caseSeed, lean](Repetition& rep) {
        Rng rng = repetitionRng(caseSeed, rep.index());
        const StateVector target = states::random(dims, rng);
        const auto prep = prepareExact(target, lean);
        // One backend per repetition: the session pool below describes
        // exactly one cold replay, so dd_nodes is repetition-count- and
        // thread-count-invariant.
        const auto backend = makeBackend(BackendKind::Dd);

        EvalState out;
        rep.time([&] { out = backend->runFromZero(prep.circuit); });
        rep.metric("amplitudes", static_cast<double>(target.size()));
        rep.metric("ops", static_cast<double>(prep.circuit.numOperations()));
        const double fidelity = out.fidelityWith(EvalState(target));
        rep.metric("fidelity", fidelity);
        rep.metric("dd_nodes",
                   static_cast<double>(backend->ddSession()->stats().poolNodes));
        if (std::abs(fidelity - 1.0) > 1e-6) {
            throw std::runtime_error("intra-apply dd replay failed verification");
        }
    };
    harness.add(std::move(spec));
}

} // namespace

int main(int argc, char** argv) {
    struct Row {
        const char* family;
        Dimensions dims;
        bool smoke = false;
    };
    const Row rows[] = {
        {"GHZ", {3, 3, 3}, true},
        {"GHZ", {3, 3, 3, 3, 3}, false},
        {"GHZ", {3, 3, 3, 3, 3, 3, 3}, false},
        {"GHZ", {4, 4, 4, 4, 4, 4}, false},
        {"W", {3, 3, 3, 3, 3}, false},
        {"W", {2, 2, 2, 2, 2, 2, 2, 2}, false},
        {"random", {3, 6, 2}, false},
        {"random", {9, 5, 6, 3}, false},
    };

    // Structured states on registers the dense backend refuses outright
    // (>= 10^8 amplitudes): the headline workloads of the dd backend.
    const Row pastCeiling[] = {
        {"GHZ", Dimensions(27, 2), true},       // 2^27 ≈ 1.34e8
        {"GHZ", Dimensions(17, 3), false},      // 3^17 ≈ 1.29e8
        {"W", Dimensions(17, 3), false},
        {"Emb. W", Dimensions(27, 2), true},
        {"GHZ", Dimensions(14, 4), false},      // 4^14 ≈ 2.68e8
        // The session-scoped DD memory additions: both families exist only
        // as DD-native DAG builders (their tree forms are combinatorial),
        // and both run in CI smoke so the merged artifact always carries
        // their dd_nodes / unique_hit_rate / cache_hit_rate metrics.
        {"Cyclic", Dimensions(27, 2), true},
        {"Dicke-2", Dimensions(27, 2), true},
    };

    Harness harness("scaling_dd_simulation");
    Rng driverSeeder(Rng::kDefaultSeed);
    for (const auto& row : rows) {
        const std::uint64_t denseSeed = driverSeeder.childSeed();
        addSmallRegisterCase(harness, row.family, row.dims, BackendKind::Dense,
                             denseSeed, row.smoke);
        const std::uint64_t ddSeed = driverSeeder.childSeed();
        addSmallRegisterCase(harness, row.family, row.dims, BackendKind::Dd, ddSeed,
                             row.smoke);
    }
    for (const auto& row : pastCeiling) {
        addPastCeilingCase(harness, row.family, row.dims, row.smoke);
    }

    // Thread-count variants. In-state parallelism: the same 2^20-amplitude
    // dense replay at 1 and at 4 workers. Batch parallelism: eight
    // independent prepare-and-verify items on each backend, sequential vs
    // fanned out across four workers.
    const Dimensions megaRegister(20, 2);
    const std::uint64_t megaSeed = driverSeeder.childSeed();
    addSmallRegisterCase(harness, "GHZ", megaRegister, BackendKind::Dense, megaSeed, false,
                         1);
    addSmallRegisterCase(harness, "GHZ", megaRegister, BackendKind::Dense, megaSeed, false,
                         4);
    const Dimensions batchRegister{3, 3, 3, 3, 3};
    for (const unsigned threads : {1U, 4U}) {
        addBatchCase(harness, "GHZ", batchRegister, BackendKind::Dense, 8, threads,
                     threads == 4);
    }
    // The dd batch replays each of its eight items on a worker session of
    // its own; the t1/t2/t4/t8 rows read as the worker-session speedup
    // curve, and each row's dd_nodes (the largest per-item pool) must be
    // identical — the determinism contract, gated in CI via the smoke
    // baseline (t4) and recorded as a curve in bench/baselines/.
    for (const unsigned threads : {1U, 2U, 4U, 8U}) {
        addBatchCase(harness, "GHZ", batchRegister, BackendKind::Dd, 8, threads,
                     threads == 4);
    }
    // Single-item dd replay at every width, on a dense random register
    // whose diagram degenerates toward the full tree — the most per-gate
    // work one item carries. The rows must stay flat from t1 to t8.
    const Dimensions intraRegister{9, 5, 6, 3};
    const std::uint64_t intraSeed = driverSeeder.childSeed();
    for (const unsigned threads : {1U, 2U, 4U, 8U}) {
        addIntraApplyCase(harness, intraRegister, intraSeed, threads, threads == 4);
    }
    return harness.main(argc, argv);
}
