// Edge-of-the-envelope registers: single qudits, one large qudit, deep
// qubit-only chains, and two-level everything — places where off-by-one
// bugs in mixed-radix handling, tree construction or cascade emission like
// to hide.

#include "mqsp/approx/approximation.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

namespace mqsp {
namespace {

TEST(EdgeRegisters, SingleQubit) {
    Rng rng(1);
    const StateVector target = states::random({2}, rng);
    const auto prep = prepareExact(target);
    // One node, paper-faithful: 1 phase + 1 rotation.
    EXPECT_EQ(prep.circuit.numOperations(), 2U);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-10);
}

TEST(EdgeRegisters, SingleLargeQudit) {
    Rng rng(2);
    const StateVector target = states::random({16}, rng);
    const auto prep = prepareExact(target);
    EXPECT_EQ(prep.circuit.numOperations(), 16U); // d ops for the single node
    EXPECT_EQ(prep.circuit.stats().maxControls, 0U);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-10);
}

TEST(EdgeRegisters, DeepQubitChain) {
    // Ten qubits: 1024 amplitudes, depth-10 tree, deep control chains.
    const Dimensions dims(10, Dimension{2});
    const StateVector target = states::wState(dims);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-9);
    // DD-native verification agrees.
    const DecisionDiagram simulated = DdBackend().runFromZero(prep.circuit).diagram();
    EXPECT_NEAR(simulated.fidelityWith(target), 1.0, 1e-8);
}

TEST(EdgeRegisters, TwoSitesMaximallyAsymmetric) {
    Rng rng(3);
    const StateVector target = states::random({2, 12}, rng);
    const auto prep = prepareExact(target);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-9);
    const StateVector flipped = states::random({12, 2}, rng);
    const auto prepFlipped = prepareExact(flipped);
    EXPECT_NEAR(Simulator::preparationFidelity(prepFlipped.circuit, flipped), 1.0, 1e-9);
}

TEST(EdgeRegisters, ApproximationOnDeepChains) {
    Rng rng(4);
    const Dimensions dims(8, Dimension{2});
    const StateVector target = states::random(dims, rng);
    const auto result = prepareApproximated(target, 0.95);
    const double fidelity = Simulator::preparationFidelity(result.circuit, target);
    EXPECT_GE(fidelity + 1e-9, 0.95);
    EXPECT_NEAR(fidelity, result.approx.fidelity, 1e-8);
}

TEST(EdgeRegisters, SynthesisFromReducedStructuredDiagrams) {
    // Reduction shares sub-trees; the traversal must still visit each
    // shared child once per path and produce the exact state.
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}}) {
        for (int which = 0; which < 3; ++which) {
            const StateVector target = which == 0   ? states::ghz(dims)
                                       : which == 1 ? states::wState(dims)
                                                    : states::embeddedWState(dims);
            const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
            for (const bool elide : {true, false}) {
                SynthesisOptions options;
                options.elideTensorProductControls = elide;
                options.emitIdentityOperations = false;
                const Circuit circuit = synthesize(dd, options);
                EXPECT_NEAR(Simulator::preparationFidelity(circuit, target), 1.0, 1e-9)
                    << formatDimensionSpec(dims) << " which=" << which
                    << " elide=" << elide;
            }
        }
    }
}

TEST(EdgeRegisters, AmplitudeAtTheVeryLastIndex) {
    // Basis state at the maximal flat index stresses stride arithmetic.
    const Dimensions dims{5, 4, 3};
    Digits top{4, 3, 2};
    const StateVector target = StateVector::basis(dims, top);
    const auto prep = prepareExact(target);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-10);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    EXPECT_NEAR(std::abs(dd.amplitudeOf(top)), 1.0, 1e-12);
}

TEST(EdgeRegisters, NearZeroAmplitudesAtToleranceBoundary) {
    // Amplitudes straddling the zero tolerance: below-threshold entries
    // become structural zeros, above-threshold ones survive.
    StateVector state({2, 2});
    state[0] = Complex{1.0, 0.0};
    state[1] = Complex{5e-11, 0.0};  // below default tolerance -> dropped
    state[2] = Complex{5e-9, 0.0};   // above -> kept
    state[3] = Complex{0.0, 0.0};
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({0, 1})), 0.0, 1e-15);
    EXPECT_GT(std::abs(dd.amplitudeOf({1, 0})), 0.0);
    EXPECT_EQ(dd.checkInvariants(), "");
}

class EdgeRegisterSweep : public ::testing::TestWithParam<Dimensions> {};

TEST_P(EdgeRegisterSweep, ExactPipelineOnUnusualShapes) {
    Rng rng(99);
    const StateVector target = states::random(GetParam(), rng);
    const auto prep = prepareExact(target);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-9);
    EXPECT_EQ(prep.diagram.checkInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Shapes, EdgeRegisterSweep,
                         ::testing::Values(Dimensions{2, 16}, Dimensions{16, 2},
                                           Dimensions{2, 2, 2, 2, 2, 2, 2},
                                           Dimensions{11, 3}, Dimensions{3, 11},
                                           Dimensions{7, 7}, Dimensions{2, 3, 5, 7}));

} // namespace
} // namespace mqsp
