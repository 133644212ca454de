#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mqsp {
namespace {

TEST(DDMetrics, DenseTreeCountMatchesPaperTable1Registers) {
    // Table 1 reports the same "Nodes" for every state on a register: the
    // dense splitting tree including one leaf per amplitude.
    EXPECT_EQ(DecisionDiagram::denseTreeNodeCount({3, 6, 2}), 58U);
    EXPECT_EQ(DecisionDiagram::denseTreeNodeCount({9, 5, 6, 3}), 1135U);
    EXPECT_EQ(DecisionDiagram::denseTreeNodeCount({6, 6, 5, 3, 3}), 2383U);
    EXPECT_EQ(DecisionDiagram::denseTreeNodeCount({5, 4, 2, 5, 5, 2}), 3266U);
    EXPECT_EQ(DecisionDiagram::denseTreeNodeCount({4, 7, 4, 4, 3, 5}), 8657U);
}

TEST(DDMetrics, InternalCountForRandomStateIsFullTree) {
    Rng rng;
    const StateVector state = states::random({3, 6, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // Internal nodes of the dense tree over (3, 6, 2): 1 + 3 + 18 = 22.
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 22U);
    // Slots: root + all child positions = 1 + (3 + 18 + 36) = 58.
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Slots), 58U);
}

TEST(DDMetrics, SlotsCountSkipsZeroSubtrees) {
    const StateVector state = states::ghz({3, 6, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // GHZ over (3,6,2) has min(dims)=2 branches: nonzero internal nodes are
    // root(3 slots) + 2 x dim-6 (12) + 2 x dim-2 (4) -> slots = 1 + 19 = 20
    // (the paper's approximated "Nodes" for this row).
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Slots), 20U);
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 5U);
}

TEST(DDMetrics, DistinctComplexMatchesPaperForGhz) {
    // {0, 1/sqrt(2)-ish branch weights, 1} -> 3 distinct values (Table 1).
    const DecisionDiagram dd =
        DecisionDiagram::fromStateVector(states::ghz({3, 6, 2}));
    EXPECT_EQ(dd.distinctComplexCount(), 3U);
    const DecisionDiagram dd4 =
        DecisionDiagram::fromStateVector(states::ghz({9, 5, 6, 3}));
    EXPECT_EQ(dd4.distinctComplexCount(), 3U);
}

TEST(DDMetrics, DistinctComplexMatchesPaperForWStates) {
    const DecisionDiagram w =
        DecisionDiagram::fromStateVector(states::wState({3, 6, 2}));
    EXPECT_EQ(w.distinctComplexCount(), 5U); // Table 1, W-State 3-qudit row
    const DecisionDiagram embw =
        DecisionDiagram::fromStateVector(states::embeddedWState({3, 6, 2}));
    EXPECT_EQ(embw.distinctComplexCount(), 5U); // Table 1, Emb. W-State row
}

TEST(DDMetrics, NodeContributionsSumAlongLevels) {
    Rng rng(5);
    const StateVector state = states::random({3, 4, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const auto contributions = dd.nodeContributions();
    // Root carries all the mass.
    EXPECT_NEAR(contributions[dd.rootNode()], 1.0, 1e-10);
    // Contributions of the root's children sum to 1 (dense random state).
    const DDNode& root = dd.node(dd.rootNode());
    double sum = 0.0;
    for (const auto& edge : root.edges) {
        ASSERT_FALSE(edge.isZeroStub());
        sum += contributions[edge.node];
    }
    EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(DDMetrics, ContributionEqualsSubtreeMass) {
    // The contribution of a node equals the probability mass of all basis
    // states routed through it (§4.3).
    const StateVector state = states::wState({3, 3});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const auto contributions = dd.nodeContributions();
    const DDNode& root = dd.node(dd.rootNode());
    // W(3,3) has 4 terms: |01>,|02>,|10>,|20| each 1/4. Root edge 0 leads to
    // the child holding |01>,|02> -> mass 1/2. Root edges 1 and 2 share the
    // reduced |0> child, which carries |10> and |20> -> mass 1/2.
    ASSERT_FALSE(root.edges[0].isZeroStub());
    EXPECT_NEAR(contributions[root.edges[0].node], 0.5, 1e-10);
    ASSERT_FALSE(root.edges[1].isZeroStub());
    ASSERT_EQ(root.edges[1].node, root.edges[2].node);
    EXPECT_NEAR(contributions[root.edges[1].node], 0.5, 1e-10);
}

TEST(DDMetrics, TensorProductDetectionAfterReduce) {
    // |psi> = (uniform qutrit) x (uniform qubit): after reduction the root's
    // three edges share one child -> tensor-product node. Every store
    // reduces, so the zero-keeping dense baseline shares that child too.
    const StateVector state = states::uniform({3, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_TRUE(dd.isTensorProductNode(dd.rootNode()));
    const DecisionDiagram dense = DecisionDiagram::fromStateVectorDense(state);
    EXPECT_TRUE(dense.isTensorProductNode(dense.rootNode()));
}

TEST(DDMetrics, TensorProductFalseForEntangledStates) {
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(states::ghz({3, 3}));
    EXPECT_FALSE(dd.isTensorProductNode(dd.rootNode()));
}

TEST(DDMetrics, CheckInvariantsFlagsNothingOnFreshDiagrams) {
    Rng rng(8);
    for (const auto& dims :
         {Dimensions{2, 2}, Dimensions{3, 6, 2}, Dimensions{5, 4, 2, 5, 5, 2}}) {
        const DecisionDiagram dd =
            DecisionDiagram::fromStateVector(states::random(dims, rng));
        EXPECT_EQ(dd.checkInvariants(), "");
    }
}

TEST(DDMetrics, DistinctComplexCountsForRandomDenseState) {
    Rng rng(12);
    const StateVector state = states::random({3, 6, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // All 36 leaf weights, 21 inner norms and the root weight are expected
    // to be pairwise distinct for a continuous random state; zero stubs do
    // not occur. 36 + 21 + 1 = 58 (Table 1 reports DistinctC = Nodes = 58).
    EXPECT_EQ(dd.distinctComplexCount(), 58U);
}

} // namespace
} // namespace mqsp
