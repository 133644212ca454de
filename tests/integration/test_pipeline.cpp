// End-to-end pipeline tests: state -> DD -> (approximate) -> circuit ->
// simulate -> compare. These integrate every module of the library.

#include "mqsp/approx/approximation.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"
#include "mqsp/transpile/transpiler.hpp"

#include <gtest/gtest.h>

namespace mqsp {
namespace {

TEST(Pipeline, ExactPreparationOnAllPaperRegisters) {
    Rng rng(2024);
    const std::vector<Dimensions> registers = {
        {3, 6, 2}, {9, 5, 6, 3}, {6, 6, 5, 3, 3}, {5, 4, 2, 5, 5, 2}, {4, 7, 4, 4, 3, 5}};
    for (const auto& dims : registers) {
        const StateVector target = states::random(dims, rng);
        const auto result = prepareExact(target);
        EXPECT_NEAR(Simulator::preparationFidelity(result.circuit, target), 1.0, 1e-8)
            << formatDimensionSpec(dims);
    }
}

TEST(Pipeline, ApproximatePreparationOnAllPaperRegisters) {
    Rng rng(2025);
    const std::vector<Dimensions> registers = {
        {3, 6, 2}, {9, 5, 6, 3}, {6, 6, 5, 3, 3}, {5, 4, 2, 5, 5, 2}};
    for (const auto& dims : registers) {
        const StateVector target = states::random(dims, rng);
        const auto result = prepareApproximated(target, 0.98);
        const double fidelity = Simulator::preparationFidelity(result.circuit, target);
        EXPECT_GE(fidelity + 1e-8, 0.98) << formatDimensionSpec(dims);
        EXPECT_NEAR(fidelity, result.approx.fidelity, 1e-7);
    }
}

TEST(Pipeline, ApproximationShrinksRandomCircuits) {
    Rng rng(11);
    const StateVector target = states::random({9, 5, 6, 3}, rng);
    const auto exact = prepareExact(target);
    const auto approx = prepareApproximated(target, 0.98);
    EXPECT_LE(approx.circuit.numOperations(), exact.circuit.numOperations());
    EXPECT_LT(approx.diagram.nodeCount(NodeCountMode::Slots),
              exact.diagram.nodeCount(NodeCountMode::Slots));
}

TEST(Pipeline, StructuredStatesKeepFidelityOneUnderApproximation) {
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}}) {
        for (int which = 0; which < 3; ++which) {
            const StateVector target = which == 0   ? states::ghz(dims)
                                       : which == 1 ? states::wState(dims)
                                                    : states::embeddedWState(dims);
            const auto approx = prepareApproximated(target, 0.98);
            EXPECT_NEAR(Simulator::preparationFidelity(approx.circuit, target), 1.0, 1e-9);
        }
    }
}

TEST(Pipeline, SynthesisAfterManualPruneAndReduce) {
    // Drive the three Figure-2 stages by hand and verify the final circuit.
    Rng rng(3);
    const StateVector target = states::random({3, 4, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    ApproximationOptions options;
    options.fidelityThreshold = 0.95;
    const auto report = approximate(dd, options);
    const Circuit circuit = synthesize(dd);
    const StateVector prepared = Simulator::runFromZero(circuit);
    EXPECT_NEAR(prepared.fidelityWith(target), report.fidelity, 1e-8);
    EXPECT_GE(report.fidelity + 1e-10, 0.95);
}

TEST(Pipeline, PreparedStateMatchesDiagramNotJustFidelity) {
    // The circuit must reproduce the approximated diagram's state exactly
    // (amplitude-wise), not merely achieve the fidelity bound.
    Rng rng(8);
    const StateVector target = states::random({3, 6, 2}, rng);
    const auto result = prepareApproximated(target, 0.9);
    const StateVector fromDiagram = result.diagram.toStateVector();
    const StateVector fromCircuit = Simulator::runFromZero(result.circuit);
    EXPECT_NEAR(fromCircuit.fidelityWith(fromDiagram), 1.0, 1e-9);
}

TEST(Pipeline, FullStackDownToTwoQuditGates) {
    // state -> DD -> approximate -> synthesize -> transpile -> simulate.
    Rng rng(21);
    const StateVector target = states::random({3, 3, 2}, rng);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareApproximated(target, 0.97, lean);
    const auto lowered = transpileToTwoQudit(prep.circuit);
    const StateVector out = Simulator::runFromZero(lowered.circuit);

    std::uint64_t scale = 1;
    for (std::size_t a = 0; a < lowered.numAncillas; ++a) {
        scale *= 2;
    }
    Complex overlap{0.0, 0.0};
    for (std::uint64_t i = 0; i < target.size(); ++i) {
        overlap += std::conj(target[i]) * out[i * scale];
    }
    EXPECT_GE(squaredMagnitude(overlap) + 1e-8, 0.97);
}

TEST(Pipeline, UniformStateCollapsesToControlFreeCircuit) {
    // The uniform state is a full tensor product; the pipeline synthesizes
    // from the reduced diagram, so it emits zero controls on every qudit
    // (§4.3's best case).
    const StateVector target = states::uniform({3, 4, 2});
    const Circuit circuit = prepareExact(target).circuit;
    EXPECT_EQ(circuit.stats().maxControls, 0U);
    EXPECT_NEAR(Simulator::preparationFidelity(circuit, target), 1.0, 1e-9);
}

} // namespace
} // namespace mqsp
