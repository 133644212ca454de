// Baseline comparison: DD-aware synthesis (zero sub-trees never produce
// operations — the paper's method) against the dense multiplexed-rotation
// baseline (the exhaustive uniformly-controlled cascade that visits every
// node of the full splitting tree, as classical qubit state preparation
// does). The gap is the abstract's claim made concrete: "performance
// directly linked to the size of the decision diagram" (structured states:
// the DD skips every zero sub-tree; dense random states: ratio 1). Both
// circuits are verified on registers small enough to simulate instantly;
// a verification failure fails the case. The timed region covers both
// syntheses.

#include "bench_common.hpp"
#include "harness.hpp"

#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

using namespace mqsp;
using namespace mqsp::bench;

namespace {

/// A replay input: the circuit to time and the state it must prepare.
using ReplayInput = std::function<std::pair<Circuit, StateVector>()>;

/// Dense-backend replay: time the dense simulation of a preparation circuit
/// (target and circuit are built outside the timed region) and verify it.
/// One case per pinned thread count, so the wall-vs-cpu columns of the
/// t1/tN variants read as a speedup curve.
void addDenseReplayCase(Harness& harness, std::string name, const Dimensions& dims,
                        unsigned threads, int reps, bool smoke, ReplayInput makeInput) {
    CaseSpec spec;
    spec.name = std::move(name);
    spec.dims = dims;
    spec.backend = "dense";
    spec.threads = threads;
    spec.reps = reps;
    spec.smoke = smoke;
    spec.body = [makeInput = std::move(makeInput)](Repetition& rep) {
        auto [circuit, state] = makeInput();
        const EvalState target(std::move(state));
        const auto backend = makeBackend(BackendKind::Dense);

        EvalState out;
        rep.time([&] { out = backend->runFromZero(circuit); });
        rep.metric("amplitudes", static_cast<double>(target.totalDimension()));
        rep.metric("ops", static_cast<double>(circuit.numOperations()));
        const double fidelity = out.fidelityWith(target);
        rep.metric("fidelity", fidelity);
        if (std::abs(fidelity - 1.0) > 1e-6) {
            throw std::runtime_error("dense replay failed verification");
        }
    };
    harness.add(std::move(spec));
}

} // namespace

int main(int argc, char** argv) {
    SynthesisOptions options; // paper-faithful emission for both
    options.elideTensorProductControls = false;

    Harness harness("baseline_dense");
    Rng driverSeeder(Rng::kDefaultSeed);
    for (const auto& workload : table1Workloads()) {
        const std::uint64_t caseSeed = driverSeeder.childSeed();
        CaseSpec spec;
        spec.name = workload.family;
        spec.dims = workload.dims;
        spec.backend = "dense";
        // Pinned to one thread: these medians predate the parallel layer
        // and stay comparable against the historical baseline.
        spec.threads = 1;
        spec.reps = 5;
        spec.smoke = workload.family == "GHZ State" && workload.dims.size() == 3;
        spec.body = [workload, caseSeed, options](Repetition& rep) {
            Rng rng = repetitionRng(caseSeed, rep.index());
            const StateVector state = makeState(workload, rng);

            Circuit ddCircuit;
            Circuit baseline;
            rep.time([&] {
                const DecisionDiagram sparse = DecisionDiagram::fromStateVector(state);
                ddCircuit = synthesize(sparse, options);
                const DecisionDiagram dense = DecisionDiagram::fromStateVectorDense(state);
                baseline = synthesize(dense, options);
            });

            rep.metric("dd_ops", static_cast<double>(ddCircuit.numOperations()));
            rep.metric("dense_ops", static_cast<double>(baseline.numOperations()));
            rep.metric("speedup", static_cast<double>(baseline.numOperations()) /
                                      static_cast<double>(ddCircuit.numOperations()));
            if (rep.index() == 0 && state.size() <= 1024) {
                // Verification goes through the backend interface; this
                // driver's provenance is the dense backend.
                const DenseBackend verifier;
                const EvalState target(state);
                const bool okA =
                    verifier.preparationFidelity(ddCircuit, target) > 1.0 - 1e-8;
                const bool okB =
                    verifier.preparationFidelity(baseline, target) > 1.0 - 1e-8;
                if (!okA || !okB) {
                    throw std::runtime_error("synthesized circuit failed verification");
                }
                rep.metric("verified", 1.0);
            }
        };
        harness.add(std::move(spec));
    }

    SynthesisOptions lean; // the CLI default: identity operations elided
    lean.emitIdentityOperations = false;

    // The parallel-kernel headline: dense replay of GHZ on 2^24 amplitudes,
    // once single-threaded and once on four workers (compare the two rows —
    // the harness keys them apart by thread count). Target and circuit come
    // from the DD-native pipeline (cheap); the 2^24-entry target moves
    // straight into its EvalState — no 256 MB copy per rep.
    const Dimensions bigRegister(24, 2);
    const ReplayInput ghz = [bigRegister, lean] {
        return std::pair{synthesize(DecisionDiagram::ghzState(bigRegister), lean),
                         states::ghz(bigRegister)};
    };
    addDenseReplayCase(harness, "GHZ dense replay", bigRegister, 1, 3, false, ghz);
    addDenseReplayCase(harness, "GHZ dense replay", bigRegister, 4, 3, false, ghz);

    // The gate-work case: the circuit of a seeded random state, whose gates
    // carry several controls each, so every gate touches a small fraction
    // of the register (the mqsp_prep --verify replay).
    const Dimensions randomRegister{5, 4, 2, 5, 5, 2}; // 2,000 amplitudes
    const std::uint64_t randomSeed = driverSeeder.childSeed();
    addDenseReplayCase(harness, "Random dense replay", randomRegister, 1, 10, true,
                       [randomRegister, randomSeed, lean] {
                           Rng rng(randomSeed);
                           StateVector state = states::random(randomRegister, rng);
                           Circuit circuit =
                               synthesize(DecisionDiagram::fromStateVector(state), lean);
                           return std::pair{std::move(circuit), std::move(state)};
                       });
    return harness.main(argc, argv);
}
