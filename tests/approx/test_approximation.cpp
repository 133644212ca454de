#include "mqsp/approx/approximation.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

namespace mqsp {
namespace {

TEST(Approximation, RejectsBadThreshold) {
    DecisionDiagram dd = DecisionDiagram::fromStateVector(states::uniform({2, 2}));
    ApproximationOptions options;
    options.fidelityThreshold = 0.0;
    EXPECT_THROW((void)approximate(dd, options), InvalidArgumentError);
    options.fidelityThreshold = 1.5;
    EXPECT_THROW((void)approximate(dd, options), InvalidArgumentError);
}

TEST(Approximation, RejectsReducedDiagrams) {
    // A reduced diagram is pruned, not refused: the W state's "all zeros
    // below" sub-trees are shared across parents, and cutting one edge into
    // such a shared child removes exactly that edge's mass. Each of the five
    // terms holds 0.2, so a 0.7 pass removes one term.
    const StateVector state = states::wState({3, 3, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    ASSERT_LT(dd.nodeCount(NodeCountMode::Internal), dd.nodeCount(NodeCountMode::TreeSlots));
    ApproximationOptions options;
    options.fidelityThreshold = 0.7;
    const ApproximationReport report = approximate(dd, options);
    EXPECT_EQ(report.removedLeafEdges + report.removedInternalNodes, 1U);
    EXPECT_NEAR(report.removedMass, 0.2, 1e-12);
    EXPECT_NEAR(dd.fidelityWith(state), report.fidelity, 1e-9);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(Approximation, EmptyDiagramIsNoop) {
    const StateVector zero({2, 2}, std::vector<Complex>(4, Complex{0.0, 0.0}));
    DecisionDiagram dd = DecisionDiagram::fromStateVector(zero);
    const auto report = approximate(dd);
    EXPECT_DOUBLE_EQ(report.removedMass, 0.0);
    EXPECT_DOUBLE_EQ(report.fidelity, 1.0);
}

TEST(Approximation, StructuredStatesSurviveUntouched) {
    // Table 1: "Due to the regular structure of the first three benchmarks,
    // the approximation shows no effect" — every GHZ/W amplitude carries
    // more than 2% of the mass, so nothing fits the 0.98 budget.
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}}) {
        for (int which = 0; which < 3; ++which) {
            const StateVector state = which == 0   ? states::ghz(dims)
                                      : which == 1 ? states::wState(dims)
                                                   : states::embeddedWState(dims);
            DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
            const auto report = approximate(dd);
            EXPECT_DOUBLE_EQ(report.removedMass, 0.0);
            EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
        }
    }
}

TEST(Approximation, FidelityGuaranteeHolds) {
    // Property over random states: the renormalized approximate state has
    // fidelity >= threshold against the original (the §4.3 guarantee).
    Rng rng(41);
    for (const double threshold : {0.90, 0.95, 0.98, 0.999}) {
        for (int round = 0; round < 5; ++round) {
            const StateVector state = states::random({3, 6, 2}, rng);
            DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
            ApproximationOptions options;
            options.fidelityThreshold = threshold;
            const auto report = approximate(dd, options);
            const double actual = dd.fidelityWith(state);
            EXPECT_GE(actual + 1e-10, threshold)
                << "threshold " << threshold << " round " << round;
            EXPECT_NEAR(actual, report.fidelity, 1e-9);
            EXPECT_EQ(dd.checkInvariants(), "");
        }
    }
}

TEST(Approximation, RemovesSomethingFromRandomStates) {
    Rng rng(7);
    const StateVector state = states::random({3, 6, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const auto before = dd.nodeCount(NodeCountMode::Slots);
    const auto report = approximate(dd);
    EXPECT_GT(report.removedLeafEdges + report.removedInternalNodes, 0U);
    EXPECT_LT(dd.nodeCount(NodeCountMode::Slots), before);
    EXPECT_LE(report.removedMass, 0.02 + 1e-12);
}

TEST(Approximation, ThresholdOneRemovesNothing) {
    Rng rng(13);
    const StateVector state = states::random({3, 4, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    ApproximationOptions options;
    options.fidelityThreshold = 1.0;
    const auto report = approximate(dd, options);
    EXPECT_DOUBLE_EQ(report.removedMass, 0.0);
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
}

TEST(Approximation, LowerThresholdPrunesMore) {
    Rng rng(29);
    const StateVector state = states::random({3, 6, 2}, rng);
    std::vector<std::uint64_t> slots;
    for (const double threshold : {0.999, 0.98, 0.90, 0.70}) {
        DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
        ApproximationOptions options;
        options.fidelityThreshold = threshold;
        (void)approximate(dd, options);
        slots.push_back(dd.nodeCount(NodeCountMode::Slots));
    }
    for (std::size_t i = 1; i < slots.size(); ++i) {
        EXPECT_LE(slots[i], slots[i - 1]);
    }
    EXPECT_LT(slots.back(), slots.front());
}

TEST(Approximation, SparseStateWholeSubtreePruning) {
    // A sparse state with one tiny isolated branch: pruning must remove the
    // whole branch (an internal node), not just a leaf.
    StateVector state({2, 2, 2});
    state[0] = Complex{0.0, 0.0};
    state.at({0, 0, 0}) = Complex{0.9, 0.0};
    state.at({0, 1, 1}) = Complex{0.42, 0.0};
    state.at({1, 0, 0}) = Complex{0.1, 0.0}; // mass 0.01 < 2% budget
    state.normalize();
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const auto report = approximate(dd);
    EXPECT_GT(report.removedInternalNodes + report.removedLeafEdges, 0U);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({1, 0, 0})), 0.0, 1e-12);
    EXPECT_GE(dd.fidelityWith(state), 0.98);
}

TEST(Approximation, ReductionMergesAfterPruning) {
    // After pruning, the two branches become identical and merge (Example
    // 6): branch 0 differs from branch 1 only by a small |0 2> amplitude,
    // and once that leaf is cut the root's two edges share one child.
    StateVector state({2, 3});
    state[0] = Complex{0.0, 0.0};
    state.at({0, 0}) = Complex{0.5, 0.0};
    state.at({0, 1}) = Complex{0.5, 0.0};
    state.at({0, 2}) = Complex{0.05, 0.0};
    state.at({1, 0}) = Complex{0.5, 0.0};
    state.at({1, 1}) = Complex{0.5, 0.0};
    state.normalize();
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    ASSERT_FALSE(dd.isTensorProductNode(dd.rootNode()));
    const auto report = approximate(dd);
    EXPECT_EQ(report.removedLeafEdges, 1U);
    EXPECT_EQ(report.mergedNodes, 1U);
    EXPECT_TRUE(dd.isTensorProductNode(dd.rootNode()));
}

class ApproximationFidelitySweep
    : public ::testing::TestWithParam<std::tuple<Dimensions, double>> {};

TEST_P(ApproximationFidelitySweep, GuaranteeHoldsAcrossRegistersAndThresholds) {
    const auto& [dims, threshold] = GetParam();
    Rng rng(97);
    const StateVector state = states::random(dims, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    ApproximationOptions options;
    options.fidelityThreshold = threshold;
    const auto report = approximate(dd, options);
    EXPECT_GE(dd.fidelityWith(state) + 1e-10, threshold);
    EXPECT_GE(report.fidelity + 1e-10, threshold);
    EXPECT_EQ(dd.checkInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproximationFidelitySweep,
    ::testing::Combine(::testing::Values(Dimensions{2, 2, 2}, Dimensions{3, 6, 2},
                                         Dimensions{4, 3, 2}, Dimensions{2, 5, 3}),
                       ::testing::Values(0.999, 0.99, 0.98, 0.95, 0.85)));

} // namespace
} // namespace mqsp
