#include "mqsp/synth/synthesizer.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace mqsp {
namespace {

void expectPrepares(const StateVector& target, const Circuit& circuit, double tol = 1e-9) {
    EXPECT_NEAR(Simulator::preparationFidelity(circuit, target), 1.0, tol);
}

TEST(Synthesizer, EmptyDiagramGivesEmptyCircuit) {
    const StateVector zero({2, 2}, std::vector<Complex>(4, Complex{0.0, 0.0}));
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(zero);
    const Circuit circuit = synthesize(dd);
    EXPECT_TRUE(circuit.empty());
}

TEST(Synthesizer, PreparesBasisState) {
    const StateVector target = StateVector::basis({3, 6, 2}, {2, 4, 1});
    const auto result = prepareExact(target);
    expectPrepares(target, result.circuit);
}

TEST(Synthesizer, PreparesGhzOnQutritPair) {
    const StateVector target = states::ghz({3, 3});
    const auto result = prepareExact(target);
    expectPrepares(target, result.circuit);
}

TEST(Synthesizer, PreparesStatesWithComplexPhases) {
    StateVector target({3, 2});
    target[0] = Complex{0.0, 0.0};
    target.at({0, 0}) = Complex{0.0, 0.5};
    target.at({1, 1}) = Complex{-0.5, 0.0};
    target.at({2, 0}) = Complex{0.5, -0.5};
    target.normalize();
    const auto result = prepareExact(target);
    expectPrepares(target, result.circuit);
}

TEST(Synthesizer, PaperFaithfulOpCountPerNode) {
    // GHZ [3,6,2]: nonzero tree nodes contribute dim ops each:
    // 3 + 2*6 + 2*2 = 19 — Table 1's "Operations" for this row.
    const auto result = prepareExact(states::ghz({3, 6, 2}));
    EXPECT_EQ(result.circuit.numOperations(), 19U);
}

TEST(Synthesizer, ElisionModeShortensCircuits) {
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const StateVector target = states::ghz({3, 6, 2});
    const auto faithful = prepareExact(target);
    const auto short_ = prepareExact(target, lean);
    EXPECT_LT(short_.circuit.numOperations(), faithful.circuit.numOperations());
    expectPrepares(target, short_.circuit);
    expectPrepares(target, faithful.circuit);
}

TEST(Synthesizer, ControlsFollowThePathFromRoot) {
    const auto result = prepareExact(states::ghz({3, 3, 3}));
    // Root node ops carry no controls; level-1 ops carry one control on the
    // root qudit; level-2 ops carry two controls.
    for (const auto& op : result.circuit.operations()) {
        EXPECT_EQ(op.numControls(), op.target) << op.toString();
        for (std::size_t i = 0; i < op.controls.size(); ++i) {
            EXPECT_EQ(op.controls[i].qudit, i);
        }
    }
}

TEST(Synthesizer, ControlLevelsEncodeTheEdgeIndex) {
    // For GHZ, the branch through level k is controlled at level k (the
    // paper's Example 5 semantics).
    const auto result = prepareExact(states::ghz({3, 3}));
    for (const auto& op : result.circuit.operations()) {
        if (op.target == 1) {
            ASSERT_EQ(op.numControls(), 1U);
            // The level-1 node reached via edge k holds amplitude on level k.
            EXPECT_EQ(op.controls[0].qudit, 0U);
        }
    }
}

TEST(Synthesizer, TensorProductElisionDropsControls) {
    // Product state: (uniform qutrit) x (uniform qubit). The split diagram
    // is reduced, so the root is a tensor node and the qubit ops lose their
    // control.
    const StateVector target = states::uniform({3, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);

    SynthesisOptions withElision;
    withElision.elideTensorProductControls = true;
    const Circuit elided = synthesize(dd, withElision);
    SynthesisOptions without;
    without.elideTensorProductControls = false;
    const Circuit plain = synthesize(dd, without);

    EXPECT_LT(elided.stats().totalControls, plain.stats().totalControls);
    EXPECT_EQ(elided.stats().maxControls, 0U); // fully product state
    expectPrepares(target, elided);
    expectPrepares(target, plain);
}

TEST(Synthesizer, LinearComplexityInDiagramNodes) {
    // Operations = sum of dims over nonzero nodes <= dim * nodes: the op
    // count scales with the diagram, not the Hilbert space.
    Rng rng(3);
    const StateVector sparse = states::randomSparse({4, 4, 4, 4}, 4, rng);
    const auto result = prepareExact(sparse);
    // 4 nonzero amplitudes: at most 4 nodes per level, each emitting <= 4 ops.
    EXPECT_LE(result.circuit.numOperations(), 4U * 4U * 4U);
    expectPrepares(sparse, result.circuit);
}

TEST(Synthesizer, ApproximatedPipelineMeetsFidelityThreshold) {
    Rng rng(55);
    const StateVector target = states::random({3, 6, 2}, rng);
    const auto result = prepareApproximated(target, 0.98);
    const double fidelity = Simulator::preparationFidelity(result.circuit, target);
    EXPECT_GE(fidelity + 1e-9, 0.98);
    EXPECT_NEAR(fidelity, result.approx.fidelity, 1e-8);
}

TEST(Synthesizer, ApproximatedPipelineIsExactOnStructuredStates) {
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}}) {
        const StateVector target = states::wState(dims);
        const auto result = prepareApproximated(target, 0.98);
        expectPrepares(target, result.circuit);
    }
}

struct SynthesizerCase {
    std::string name;
    Dimensions dims;
};

// gtest writes the parameter into every registered test name. Its default
// byte dump of this struct includes heap pointers, so the names would change
// from one build to the next; print the case as "mixed4 dims 2x3x4x2" instead.
void PrintTo(const SynthesizerCase& param, std::ostream* os) {
    *os << param.name << " dims ";
    for (std::size_t i = 0; i < param.dims.size(); ++i) {
        *os << (i == 0 ? "" : "x") << param.dims[i];
    }
}

class SynthesizerFidelityProperty : public ::testing::TestWithParam<SynthesizerCase> {};

TEST_P(SynthesizerFidelityProperty, ExactPipelineReachesFidelityOne) {
    const auto& param = GetParam();
    Rng rng(7);
    std::vector<StateVector> targets;
    targets.push_back(states::ghz(param.dims));
    targets.push_back(states::wState(param.dims));
    targets.push_back(states::embeddedWState(param.dims));
    targets.push_back(states::uniform(param.dims));
    targets.push_back(states::random(param.dims, rng));
    targets.push_back(states::random(param.dims, rng, states::RandomKind::PhaseOnly));
    targets.push_back(states::randomSparse(
        param.dims, 1 + rng.uniformIndex(MixedRadix(param.dims).totalDimension()), rng));

    for (const auto& target : targets) {
        const auto result = prepareExact(target);
        EXPECT_NEAR(Simulator::preparationFidelity(result.circuit, target), 1.0, 1e-9);
        // Identity elision must never change semantics.
        SynthesisOptions lean;
        lean.emitIdentityOperations = false;
        const auto leanResult = prepareExact(target, lean);
        EXPECT_NEAR(Simulator::preparationFidelity(leanResult.circuit, target), 1.0, 1e-9);
        EXPECT_LE(leanResult.circuit.numOperations(), result.circuit.numOperations());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registers, SynthesizerFidelityProperty,
    ::testing::Values(SynthesizerCase{"qubits2", {2, 2}},
                      SynthesizerCase{"qutritPair", {3, 3}},
                      SynthesizerCase{"paper3q", {3, 6, 2}},
                      SynthesizerCase{"paper4q", {9, 5, 6, 3}},
                      SynthesizerCase{"mixed4", {2, 3, 4, 2}},
                      SynthesizerCase{"qubits5", {2, 2, 2, 2, 2}}),
    [](const ::testing::TestParamInfo<SynthesizerCase>& paramInfo) { return paramInfo.param.name; });

} // namespace
} // namespace mqsp
