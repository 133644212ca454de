// Ablation E: the peephole optimizer on synthesized circuits. Quantifies
// how much of the paper-faithful operation count the optimizer recovers
// (identity stripping should match the synthesizer's own elision mode) and
// what rotation merging / control-fan collapsing add on top: 'optimized_ops'
// at or below 'elided_ops' everywhere. A full-mode row runs the optimizer on
// a transpiled circuit, where lowering to two-qudit gates multiplies the op
// count and leaves thousands of same-axis neighbours to merge: it shows how
// the passes scale with circuit length. The timed region is the optimizer
// pass alone (synthesis and transpilation are setup).

#include "bench_common.hpp"
#include "harness.hpp"

#include "mqsp/opt/optimizer.hpp"
#include "mqsp/synth/synthesizer.hpp"
#include "mqsp/transpile/transpiler.hpp"


int main(int argc, char** argv) {
    using namespace mqsp;
    using namespace mqsp::bench;

    SynthesisOptions faithful;
    faithful.emitIdentityOperations = true;
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    Harness harness("ablation_optimizer");
    Rng driverSeeder(Rng::kDefaultSeed);
    for (const auto& workload : table1Workloads()) {
        const std::uint64_t caseSeed = driverSeeder.childSeed();
        CaseSpec spec;
        spec.name = workload.family;
        spec.dims = workload.dims;
        spec.reps = 5;
        spec.smoke = workload.family == "GHZ State" && workload.dims.size() == 3;
        spec.body = [workload, caseSeed, faithful, lean](Repetition& rep) {
            Rng rng = repetitionRng(caseSeed, rep.index());
            const StateVector state = makeState(workload, rng);
            const auto full = prepareExact(state, faithful);
            const auto slim = prepareExact(state, lean);

            Circuit optimized = full.circuit;
            OptimizerReport report;
            rep.time([&] { report = optimizeCircuit(optimized); });

            rep.metric("faithful_ops",
                       static_cast<double>(full.circuit.numOperations()));
            rep.metric("elided_ops", static_cast<double>(slim.circuit.numOperations()));
            rep.metric("optimized_ops", static_cast<double>(optimized.numOperations()));
            rep.metric("merged_rotations", static_cast<double>(report.mergedRotations));
            rep.metric("dropped_identities",
                       static_cast<double>(report.droppedIdentities));
            rep.metric("merged_control_fans",
                       static_cast<double>(report.mergedControlFans));
        };
        harness.add(std::move(spec));
    }

    const std::uint64_t transpiledSeed = driverSeeder.childSeed();
    CaseSpec transpiled;
    transpiled.name = "Transpiled Random State";
    transpiled.dims = {9, 5, 6, 3};
    transpiled.threads = 1;
    transpiled.reps = 5;
    transpiled.body = [dims = transpiled.dims, transpiledSeed, lean](Repetition& rep) {
        Rng rng = repetitionRng(transpiledSeed, rep.index());
        const auto prep = prepareExact(states::random(dims, rng), lean);
        Circuit lowered = transpileToTwoQudit(prep.circuit).circuit;
        OptimizerReport report;
        rep.time([&] { report = optimizeCircuit(lowered); });

        rep.metric("transpiled_ops", static_cast<double>(report.opsBefore));
        rep.metric("optimized_ops", static_cast<double>(report.opsAfter));
        rep.metric("merged_rotations", static_cast<double>(report.mergedRotations));
        rep.metric("dropped_identities", static_cast<double>(report.droppedIdentities));
        rep.metric("merged_control_fans", static_cast<double>(report.mergedControlFans));
    };
    harness.add(std::move(transpiled));
    return harness.main(argc, argv);
}
