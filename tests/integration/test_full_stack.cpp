// Cross-module integration: chains that exercise synthesis, optimization,
// QASM round trips, transpilation, routing, DD-native simulation and
// entanglement analysis together, asserting bitwise/amplitude-level
// consistency at every joint.

#include "mqsp/analysis/entanglement.hpp"
#include "mqsp/circuit/qasm.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/hardware/router.hpp"
#include "mqsp/opt/optimizer.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"
#include "mqsp/transpile/transpiler.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mqsp {
namespace {

TEST(FullStack, SynthesizeOptimizeQasmSimulate) {
    Rng rng(1);
    const StateVector target = states::random({3, 4, 2}, rng);
    auto prep = prepareExact(target); // paper-faithful: has identity ops
    (void)optimizeCircuit(prep.circuit);
    const Circuit parsed = parseQasmString(toQasm(prep.circuit));
    EXPECT_NEAR(Simulator::preparationFidelity(parsed, target), 1.0, 1e-9);
}

TEST(FullStack, OptimizedCircuitsStillMatchOnDDSimulation) {
    Rng rng(2);
    const StateVector target = states::random({2, 3, 3}, rng);
    auto prep = prepareExact(target);
    (void)optimizeCircuit(prep.circuit);
    const DecisionDiagram simulated = DdBackend().runFromZero(prep.circuit).diagram();
    EXPECT_NEAR(simulated.fidelityWith(target), 1.0, 1e-8);
}

TEST(FullStack, TranspiledCircuitSurvivesQasmRoundTrip) {
    const StateVector target = states::ghz({3, 3});
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);
    const auto lowered = transpileToTwoQudit(prep.circuit);

    std::stringstream stream(toQasm(lowered.circuit));
    const Circuit parsed = parseQasm(stream);
    ASSERT_EQ(parsed.numOperations(), lowered.circuit.numOperations());
    const StateVector a = Simulator::runFromZero(lowered.circuit);
    const StateVector b = Simulator::runFromZero(parsed);
    EXPECT_NEAR(a.fidelityWith(b), 1.0, 1e-10);
}

TEST(FullStack, RoutedOptimizedCircuitPreparesTheState) {
    const Dimensions dims{3, 3, 3};
    const StateVector target = states::wState(dims);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);
    const auto lowered = transpileToTwoQudit(prep.circuit);
    ASSERT_EQ(lowered.numAncillas, 0U);

    auto routed = routeCircuit(lowered.circuit, Architecture::linearChain(dims));
    // The optimizer must preserve the routed circuit too (it contains
    // shifts and level swaps from the SWAP ladders).
    (void)optimizeCircuit(routed.circuit);
    EXPECT_NEAR(Simulator::preparationFidelity(routed.circuit, target), 1.0, 1e-8);
}

TEST(FullStack, ApproximatedStateKeepsItsEntanglementProfile) {
    // Approximation at high fidelity must not change entanglement much:
    // compare entropies of the exact and approximated prepared states.
    Rng rng(3);
    const StateVector target = states::random({3, 4, 2}, rng);
    const auto approx = prepareApproximated(target, 0.99);
    const StateVector prepared = Simulator::runFromZero(approx.circuit);
    const double exactEntropy = analysis::entanglementEntropy(target, {0});
    const double approxEntropy = analysis::entanglementEntropy(prepared, {0});
    EXPECT_NEAR(exactEntropy, approxEntropy, 0.2);
}

TEST(FullStack, SerializedDiagramRoundTripsThroughSynthesis) {
    Rng rng(4);
    const StateVector target = states::random({3, 6, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    std::stringstream stream;
    dd.serialize(stream);
    const DecisionDiagram restored = DecisionDiagram::deserialize(stream);
    const Circuit circuit = synthesize(restored);
    EXPECT_NEAR(Simulator::preparationFidelity(circuit, target), 1.0, 1e-9);
}

TEST(FullStack, SamplingThePreparedCircuitMatchesTheTargetDistribution) {
    const StateVector target = states::wState({2, 2, 2, 2});
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);
    const StateVector prepared = Simulator::runFromZero(prep.circuit);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(prepared);

    Rng rng(5);
    const auto histogram = dd.sampleHistogram(rng, 8000);
    // All 4 single-excitation outcomes, near-uniform, nothing else.
    EXPECT_EQ(histogram.size(), 4U);
    for (const auto& [index, count] : histogram) {
        EXPECT_NEAR(static_cast<double>(count) / 8000.0, 0.25, 0.05) << index;
    }
}

TEST(FullStack, EveryPipelineStageAgreesOnTheGhzState) {
    // One state, five independent representations of the prepared result:
    // dense simulation, DD simulation, diagram reconstruction, QASM round
    // trip, optimizer output — all must agree pairwise.
    const StateVector target = states::ghz({3, 6, 2});
    const auto prep = prepareExact(target);

    const StateVector dense = Simulator::runFromZero(prep.circuit);
    const StateVector viaDD = DdBackend().runFromZero(prep.circuit).diagram().toStateVector();
    const StateVector viaDiagram = prep.diagram.toStateVector();
    const StateVector viaQasm =
        Simulator::runFromZero(parseQasmString(toQasm(prep.circuit)));
    Circuit optimized = prep.circuit;
    (void)optimizeCircuit(optimized);
    const StateVector viaOpt = Simulator::runFromZero(optimized);

    for (const StateVector* state : {&dense, &viaDD, &viaDiagram, &viaQasm, &viaOpt}) {
        EXPECT_NEAR(state->fidelityWith(target), 1.0, 1e-9);
    }
}

} // namespace
} // namespace mqsp
