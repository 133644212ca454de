// DD-native gate application and inner products (the simulation substrate
// of the paper's reference [12]), validated against the dense simulator.

#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include "common/random_circuit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace mqsp {
namespace {

constexpr double kPi = std::numbers::pi;

/// DD-native replay of `circuit` gate by gate from |0...0> on a fresh
/// session store, the evaluation regime.
DecisionDiagram replay(const Circuit& circuit) {
    const dd::DdSession session;
    DecisionDiagram state = DecisionDiagram::zeroState(circuit.dimensions(), &session);
    for (const Operation& op : circuit.operations()) {
        state.applyOperation(op);
    }
    return state;
}

void expectMatchesDense(const Circuit& circuit, double tol = 1e-9) {
    const StateVector dense = Simulator::runFromZero(circuit);
    const DecisionDiagram dd = replay(circuit);
    EXPECT_EQ(dd.checkInvariants(), "");
    const StateVector fromDD = dd.toStateVector();
    for (std::uint64_t i = 0; i < dense.size(); ++i) {
        EXPECT_NEAR(std::abs(fromDD[i] - dense[i]), 0.0, tol) << "amplitude " << i;
    }
}

TEST(DDApply, ZeroStateDiagram) {
    const DecisionDiagram dd = DecisionDiagram::zeroState({3, 2});
    EXPECT_NEAR(std::abs(dd.amplitudeOf({0, 0}) - Complex{1.0, 0.0}), 0.0, 1e-12);
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 2U);
}

TEST(DDApply, HadamardOnZero) {
    Circuit circuit({3});
    circuit.append(Operation::hadamard(0));
    expectMatchesDense(circuit);
}

TEST(DDApply, SingleRotationWithPhases) {
    Circuit circuit({4});
    circuit.append(Operation::givens(0, 1, 3, 1.2, -0.7));
    circuit.append(Operation::givens(0, 0, 1, 0.4, 0.3));
    circuit.append(Operation::phase(0, 0, 2, 0.9));
    expectMatchesDense(circuit);
}

TEST(DDApply, ControlledOperations) {
    Circuit circuit({3, 3});
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::shift(1, 1, {{0, 1}}));
    circuit.append(Operation::shift(1, 2, {{0, 2}}));
    expectMatchesDense(circuit);
    // This is Figure 1's GHZ circuit: the DD result must be the GHZ state.
    const DecisionDiagram dd = replay(circuit);
    EXPECT_NEAR(dd.fidelityWith(states::ghz({3, 3})), 1.0, 1e-10);
}

TEST(DDApply, MultiControlledOperations) {
    Circuit circuit({2, 3, 2});
    circuit.append(Operation::givens(0, 0, 1, 0.8, 0.0));
    circuit.append(Operation::givens(1, 0, 2, 1.1, 0.5, {{0, 1}}));
    circuit.append(Operation::givens(2, 0, 1, kPi / 3.0, -0.2, {{0, 1}, {1, 2}}));
    expectMatchesDense(circuit);
}

TEST(DDApply, RejectsControlsBelowTheTarget) {
    DecisionDiagram dd = DecisionDiagram::zeroState({2, 2});
    EXPECT_THROW(dd.applyOperation(Operation::givens(0, 0, 1, 0.5, 0.0, {{1, 1}})),
                 InvalidArgumentError);
}

TEST(DDApply, LevelSwapAndShiftKinds) {
    Circuit circuit({4, 3});
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::levelSwap(0, 0, 3));
    circuit.append(Operation::shift(1, 2, {{0, 3}}));
    expectMatchesDense(circuit);
}

TEST(DDApply, NormStaysOneThroughLongCircuits) {
    Rng rng(5);
    const Dimensions dims{3, 2, 3};
    const MixedRadix radix(dims);
    Circuit circuit(dims);
    for (int i = 0; i < 40; ++i) {
        const auto target = static_cast<std::size_t>(rng.uniformIndex(3));
        const Dimension dim = radix.dimensionAt(target);
        auto a = static_cast<Level>(rng.uniformIndex(dim));
        auto b = static_cast<Level>(rng.uniformIndex(dim));
        if (a == b) {
            b = (b + 1) % dim;
        }
        std::vector<Control> controls;
        if (target > 0 && rng.uniform01() < 0.4) {
            const auto ctrl = static_cast<std::size_t>(rng.uniformIndex(target));
            controls.push_back(
                {ctrl, static_cast<Level>(rng.uniformIndex(radix.dimensionAt(ctrl)))});
        }
        circuit.append(Operation::givens(target, std::min(a, b), std::max(a, b),
                                         rng.uniform(-kPi, kPi), rng.uniform(-kPi, kPi),
                                         controls));
    }
    const DecisionDiagram dd = replay(circuit);
    EXPECT_NEAR(std::abs(dd.rootWeight()), 1.0, 1e-8);
    expectMatchesDense(circuit, 1e-7);
}

TEST(DDApply, SynthesizedCircuitsReproduceTheirTargetsNatively) {
    // The fully DD-native verification loop: target -> DD -> circuit ->
    // DD simulation -> DD inner product. No dense vector anywhere.
    Rng rng(7);
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{2, 3, 4}}) {
        const StateVector target = states::random(dims, rng);
        const DecisionDiagram targetDD = DecisionDiagram::fromStateVector(target);
        const auto prep = prepareExact(target);
        const DecisionDiagram prepared = replay(prep.circuit);
        const Complex overlap = targetDD.innerProductWith(prepared);
        EXPECT_NEAR(std::abs(overlap), 1.0, 1e-8) << formatDimensionSpec(dims);
    }
}

TEST(DDInnerProduct, MatchesDenseInnerProduct) {
    Rng rng(11);
    const Dimensions dims{3, 4, 2};
    const StateVector a = states::random(dims, rng);
    const StateVector b = states::random(dims, rng);
    const DecisionDiagram da = DecisionDiagram::fromStateVector(a);
    const DecisionDiagram db = DecisionDiagram::fromStateVector(b);
    const Complex native = da.innerProductWith(db);
    const Complex dense = a.innerProduct(b);
    EXPECT_NEAR(std::abs(native - dense), 0.0, 1e-10);
    // Conjugate symmetry.
    EXPECT_NEAR(std::abs(db.innerProductWith(da) - std::conj(native)), 0.0, 1e-10);
}

TEST(DDInnerProduct, SelfInnerProductIsOne) {
    Rng rng(13);
    const DecisionDiagram dd =
        DecisionDiagram::fromStateVector(states::random({3, 6, 2}, rng));
    EXPECT_NEAR(std::abs(dd.innerProductWith(dd) - Complex{1.0, 0.0}), 0.0, 1e-10);
}

TEST(DDInnerProduct, OrthogonalStates) {
    const DecisionDiagram a =
        DecisionDiagram::fromStateVector(StateVector::basis({3, 2}, {0, 0}));
    const DecisionDiagram b =
        DecisionDiagram::fromStateVector(StateVector::basis({3, 2}, {2, 1}));
    EXPECT_NEAR(std::abs(a.innerProductWith(b)), 0.0, 1e-12);
}

TEST(DDInnerProduct, RegisterMismatchRejected) {
    const DecisionDiagram a = DecisionDiagram::zeroState({2, 2});
    const DecisionDiagram b = DecisionDiagram::zeroState({3, 2});
    EXPECT_THROW((void)a.innerProductWith(b), InvalidArgumentError);
}

TEST(DDInnerProduct, WorksOnReducedDiagrams) {
    // The split diagram is reduced (one node per level) and the dense
    // baseline is the full tree: the overlap walks both shapes.
    const DecisionDiagram a = DecisionDiagram::fromStateVector(states::uniform({3, 4, 2}));
    ASSERT_EQ(a.nodeCount(NodeCountMode::Internal), 3U);
    const DecisionDiagram b = DecisionDiagram::fromStateVectorDense(states::uniform({3, 4, 2}));
    EXPECT_NEAR(std::abs(a.innerProductWith(b) - Complex{1.0, 0.0}), 0.0, 1e-10);
}

class DDApplyRandomCircuits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DDApplyRandomCircuits, AgreesWithDenseSimulatorOnAllGateKinds) {
    expectMatchesDense(randomAllKindCircuit({3, 4, 2}, 25, GetParam()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDApplyRandomCircuits,
                         ::testing::Values(21U, 22U, 23U, 24U, 25U, 26U, 27U, 28U));

} // namespace
} // namespace mqsp
