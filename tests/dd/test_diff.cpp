// Structural diagram diffing (dd::diffDiagrams): the primitive behind
// incremental re-verification's root-diff reporting. Hash-consing makes
// NodeRef identity structural identity within one session, so the diff is
// a pair of reachability marks plus one counting pass — these tests pin
// the counting invariants and the same-store requirement.

#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/support/error.hpp"

#include <gtest/gtest.h>

namespace mqsp {
namespace {

const Dimensions kDims{3, 6, 2};

TEST(DiagramDiff, IdenticalRootsShareEverything) {
    const dd::DdSession session;
    const DecisionDiagram ghz = DecisionDiagram::ghzState(kDims, &session);
    const dd::DiagramDiffStats stats = dd::diffDiagrams(ghz, ghz);
    EXPECT_EQ(stats.nodesA, stats.nodesB);
    EXPECT_GT(stats.shared, 0U);
    EXPECT_EQ(stats.shared, stats.nodesA);
    EXPECT_EQ(stats.added, 0U);
    EXPECT_EQ(stats.removed, 0U);
}

TEST(DiagramDiff, CountsArePartitionedByReachability) {
    const dd::DdSession session;
    const DecisionDiagram ghz = DecisionDiagram::ghzState(kDims, &session);
    const DecisionDiagram w = DecisionDiagram::wState(kDims, &session);
    const dd::DiagramDiffStats stats = dd::diffDiagrams(ghz, w);
    // The marks partition each side: everything reachable from A is either
    // shared with B or removed, and vice versa.
    EXPECT_EQ(stats.nodesA, stats.shared + stats.removed);
    EXPECT_EQ(stats.nodesB, stats.shared + stats.added);
    EXPECT_GT(stats.nodesA, 0U);
    EXPECT_GT(stats.nodesB, 0U);

    // The diff is symmetric with the roles swapped.
    const dd::DiagramDiffStats reverse = dd::diffDiagrams(w, ghz);
    EXPECT_EQ(reverse.nodesA, stats.nodesB);
    EXPECT_EQ(reverse.nodesB, stats.nodesA);
    EXPECT_EQ(reverse.shared, stats.shared);
    EXPECT_EQ(reverse.added, stats.removed);
    EXPECT_EQ(reverse.removed, stats.added);
}

TEST(DiagramDiff, AppliedGateShowsUpAsAddedNodes) {
    // The incremental re-verification use: snapshot a replay state, apply
    // a delta, and diff old root against new root. An identity delta
    // changes nothing; a real delta adds nodes without invalidating the
    // old snapshot (session diagrams are immutable).
    const dd::DdSession session;
    DecisionDiagram state = DecisionDiagram::zeroState(kDims, &session);
    const DecisionDiagram before = state;
    state.applyOperation(Operation::givens(0, 0, 1, 1.1, 0.3));
    const dd::DiagramDiffStats stats = dd::diffDiagrams(before, state);
    EXPECT_GT(stats.added, 0U);
    EXPECT_EQ(stats.nodesB, stats.shared + stats.added);

    const dd::DiagramDiffStats unchanged = dd::diffDiagrams(before, before);
    EXPECT_EQ(unchanged.added, 0U);
    EXPECT_EQ(unchanged.removed, 0U);
}

TEST(DiagramDiff, RefusesDiagramsFromDifferentStores) {
    const dd::DdSession a;
    const dd::DdSession b;
    const DecisionDiagram onA = DecisionDiagram::ghzState(kDims, &a);
    const DecisionDiagram onB = DecisionDiagram::ghzState(kDims, &b);
    try {
        (void)dd::diffDiagrams(onA, onB);
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find("different stores"), std::string::npos)
            << error.what();
    }
}

} // namespace
} // namespace mqsp
