#include "mqsp/approx/approximation.hpp"
#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace mqsp {
namespace {

/// A normalized state on `dims` from its amplitudes in mixed-radix order.
StateVector stateOf(const Dimensions& dims, const std::vector<double>& amplitudes) {
    std::vector<Complex> values;
    for (const double amplitude : amplitudes) {
        values.emplace_back(amplitude, 0.0);
    }
    StateVector state(dims, std::move(values));
    state.normalize();
    return state;
}

/// `dd` pruned at fidelity `threshold` (the one pass that cuts edges).
ApproximationReport prune(DecisionDiagram& dd, double threshold) {
    ApproximationOptions options;
    options.fidelityThreshold = threshold;
    return approximate(dd, options);
}

TEST(DDTransform, CutLeafEdgeRemovesAmplitude) {
    // |0 0> carries ~1% of the mass, the smallest leaf: a 0.98 pass cuts
    // exactly that leaf edge.
    const StateVector state = stateOf({2, 2}, {0.1, 0.7, 0.5, 0.5});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const ApproximationReport report = prune(dd, 0.98);
    EXPECT_EQ(report.removedLeafEdges, 1U);
    EXPECT_EQ(report.removedInternalNodes, 0U);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({0, 0})), 0.0, 1e-12);
    // Remaining amplitudes keep their relative values.
    const Complex a01 = dd.amplitudeOf({0, 1});
    const Complex a11 = dd.amplitudeOf({1, 1});
    const Complex ratioBefore = state.at({0, 1}) / state.at({1, 1});
    EXPECT_NEAR(std::abs(a01 / a11 - ratioBefore), 0.0, 1e-10);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, RenormalizeTracksRemovedMassInRootWeight) {
    // After the cut the lost mass is renormalized away: every surviving
    // amplitude grows by 1/sqrt(1 - removed), and the root weight is 1.
    const StateVector state = stateOf({2, 2}, {0.1, 0.7, 0.5, 0.5});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const ApproximationReport report = prune(dd, 0.98);
    EXPECT_NEAR(report.removedMass, squaredMagnitude(state.at({0, 0})), 1e-15);
    EXPECT_NEAR(std::abs(dd.rootWeight()), 1.0, 1e-12);
    const double scale = 1.0 / std::sqrt(1.0 - report.removedMass);
    for (const Digits& digits : {Digits{0, 1}, Digits{1, 0}, Digits{1, 1}}) {
        EXPECT_NEAR(std::abs(dd.amplitudeOf(digits) - state.at(digits) * scale), 0.0, 1e-12);
    }
    EXPECT_NEAR(dd.normSquared(), 1.0, 1e-10);
}

TEST(DDTransform, CuttingWholeNodeDropsSubtree) {
    // The |2 x> branch holds one amplitude with ~1% of the mass: cutting
    // its node edge or its only leaf drops the whole node.
    const StateVector state = stateOf({3, 2}, {0.6, 0.5, 0.4, 0.45, 0.1, 0.0});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const ApproximationReport report = prune(dd, 0.98);
    EXPECT_NEAR(report.removedMass, squaredMagnitude(state.at({2, 0})), 1e-15);
    EXPECT_TRUE(dd.node(dd.rootNode()).edges[2].pruned);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({2, 0})), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({2, 1})), 0.0, 1e-12);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, NodesDyingFromCutsAreDropped) {
    // The root's child 0 holds two small leaves that are cut one by one;
    // the child dies, and the root's edge 0 must become a pruned stub.
    const StateVector state = stateOf({2, 2}, {0.05, 0.06, 0.7, 0.7});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const ApproximationReport report = prune(dd, 0.99);
    EXPECT_EQ(report.removedLeafEdges, 2U);
    const DDEdge& edge = dd.node(dd.rootNode()).edges[0];
    EXPECT_TRUE(edge.isZeroStub());
    EXPECT_TRUE(edge.pruned);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, CuttingEverythingYieldsEmptyDiagram) {
    // A pass keeps at least its threshold's mass, so only cutRoot empties a
    // diagram; pruning the empty diagram is then a no-op.
    const StateVector state = StateVector::basis({2, 2}, {0, 0});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    dd.cutRoot();
    EXPECT_EQ(dd.rootNode(), kNoNode);
    EXPECT_NEAR(dd.normSquared(), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(prune(dd, 0.5).removedMass, 0.0);
    EXPECT_EQ(dd.rootNode(), kNoNode);
}

TEST(DDTransform, ReduceMergesIdenticalSubtrees) {
    // Uniform product state: every node at one level is identical, so the
    // splitter interns one node per level where the dense tree has 16.
    const StateVector state = states::uniform({3, 4, 2});
    const DecisionDiagram tree = DecisionDiagram::fromStateVectorDense(state);
    EXPECT_EQ(tree.nodeCount(NodeCountMode::Internal), 1U + 3U + 12U);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 3U);
    // Reduction must preserve semantics exactly.
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, ReducePreservesRandomStates) {
    Rng rng(23);
    const StateVector state = states::random({3, 6, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // A continuous random state has no identical sub-trees; nothing merges,
    // and the amplitudes stay exact either way.
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 22U);
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
}

TEST(DDTransform, ReduceIsIdempotent) {
    // Interning an already reduced diagram merges nothing more.
    const StateVector state = states::ghz({3, 6, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const dd::DdSession session;
    const DecisionDiagram again = session.intern(dd);
    EXPECT_EQ(again.nodeCount(NodeCountMode::Internal), dd.nodeCount(NodeCountMode::Internal));
    EXPECT_EQ(session.stats().unique.hits, 0U);
}

TEST(DDTransform, GarbageCollectCompactsPool) {
    // A split or a pruning pass builds on a store of its own and leaves no
    // garbage: each pool holds the reachable nodes plus the terminal.
    Rng rng(31);
    const StateVector state = states::random({3, 4, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.poolSize(), dd.nodeCount(NodeCountMode::Internal) + 1U);
    ASSERT_GT(prune(dd, 0.9).removedMass, 0.0);
    EXPECT_EQ(dd.poolSize(), dd.nodeCount(NodeCountMode::Internal) + 1U);
    EXPECT_GE(dd.fidelityWith(state), 0.9);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, GarbageCollectOnEmptyDiagram) {
    const StateVector state({2, 2}, std::vector<Complex>(4, Complex{0.0, 0.0}));
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.rootNode(), kNoNode);
    EXPECT_EQ(dd.poolSize(), 1U); // the terminal only
    (void)prune(dd, 0.9);
    EXPECT_EQ(dd.rootNode(), kNoNode);
}

TEST(DDTransform, DotExportMentionsAllLevels) {
    const StateVector state = states::ghz({3, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const std::string dot = dd.toDot();
    EXPECT_NE(dot.find("digraph DD"), std::string::npos);
    EXPECT_NE(dot.find("q1"), std::string::npos);
    EXPECT_NE(dot.find("q0"), std::string::npos);
    EXPECT_NE(dot.find("root"), std::string::npos);
}

} // namespace
} // namespace mqsp
