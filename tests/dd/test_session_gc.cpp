#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/support/error.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mqsp {
namespace {

const Dimensions kDims{3, 6, 2};

/// Exact amplitude-by-amplitude equality: a GC is a pure renumbering, so
/// the represented state must survive bit-for-bit, not just approximately.
void expectSameState(const StateVector& expected, const DecisionDiagram& diagram) {
    const StateVector actual = diagram.toStateVector();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::uint64_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].real(), expected[i].real()) << "amplitude " << i;
        EXPECT_EQ(actual[i].imag(), expected[i].imag()) << "amplitude " << i;
    }
}

TEST(SessionGc, CompactsPoolToTheLiveRootReachableSet) {
    const dd::DdSession session;
    DecisionDiagram ghz = DecisionDiagram::ghzState(kDims, &session);
    DecisionDiagram w = DecisionDiagram::wState(kDims, &session);
    // Transient garbage the GC must reclaim.
    { const DecisionDiagram dead = DecisionDiagram::dickeState(kDims, 3, &session); }
    { const DecisionDiagram dead = DecisionDiagram::cyclicState(kDims, Digits{0, 0, 0}, 6, &session); }
    const std::uint64_t before = session.stats().poolNodes;

    const StateVector ghzState = ghz.toStateVector();
    const StateVector wState = w.toStateVector();

    const dd::DdSessionGcStats stats = session.garbageCollect({&ghz, &w});
    EXPECT_EQ(stats.nodesBefore, before);
    EXPECT_EQ(stats.liveRoots, 2U);
    EXPECT_LT(stats.nodesAfter, stats.nodesBefore);
    EXPECT_EQ(session.stats().poolNodes, stats.nodesAfter);

    // The compacted pool holds exactly what a fresh session holds after
    // building only the live states: the union of their reachable sets
    // (plus the terminal), nothing else.
    const dd::DdSession fresh;
    const DecisionDiagram freshGhz = DecisionDiagram::ghzState(kDims, &fresh);
    const DecisionDiagram freshW = DecisionDiagram::wState(kDims, &fresh);
    EXPECT_EQ(stats.nodesAfter, fresh.stats().poolNodes);

    expectSameState(ghzState, ghz);
    expectSameState(wState, w);
}

TEST(SessionGc, SingleRootCompactsToItsReachableNodesPlusTerminal) {
    const dd::DdSession session;
    DecisionDiagram keep = DecisionDiagram::wState(kDims, &session);
    { const DecisionDiagram dead = DecisionDiagram::ghzState(kDims, &session); }

    const dd::DdSessionGcStats stats = session.garbageCollect({&keep});
    EXPECT_EQ(stats.nodesAfter, keep.nodeCount(NodeCountMode::Internal) + 1);
    // Roots were renumbered into the compacted space.
    EXPECT_LT(keep.rootNode(), stats.nodesAfter);
}

TEST(SessionGc, SecondPassIsIdempotent) {
    const dd::DdSession session;
    DecisionDiagram keep = DecisionDiagram::ghzState(kDims, &session);
    { const DecisionDiagram dead = DecisionDiagram::uniformState(kDims, &session); }

    const dd::DdSessionGcStats first = session.garbageCollect({&keep});
    const dd::DdSessionGcStats second = session.garbageCollect({&keep});
    EXPECT_EQ(second.nodesBefore, first.nodesAfter);
    EXPECT_EQ(second.nodesAfter, first.nodesAfter);
    EXPECT_EQ(second.cacheEntriesEvicted, 0U);
}

TEST(SessionGc, EmptyLiveListKeepsOnlyTheTerminal) {
    const dd::DdSession session;
    { const DecisionDiagram dead = DecisionDiagram::wState(kDims, &session); }
    const dd::DdSessionGcStats stats = session.garbageCollect({});
    EXPECT_EQ(stats.liveRoots, 0U);
    EXPECT_EQ(stats.nodesAfter, 1U);
}

TEST(SessionGc, DuplicateAndAliasedRootsRemapExactlyOnce) {
    const dd::DdSession session;
    DecisionDiagram ghz = DecisionDiagram::ghzState(kDims, &session);
    DecisionDiagram alias = ghz; // session-backed copy: O(1), shares the store
    { const DecisionDiagram dead = DecisionDiagram::dickeState(kDims, 2, &session); }
    const StateVector expected = ghz.toStateVector();

    // The same object listed twice and an aliasing copy must each end up
    // remapped exactly once — a double remap would renumber a root through
    // the compacted space a second time and corrupt it.
    const dd::DdSessionGcStats stats =
        session.garbageCollect({&ghz, &alias, &ghz});
    EXPECT_EQ(stats.liveRoots, 3U);
    EXPECT_EQ(ghz.rootNode(), alias.rootNode());
    expectSameState(expected, ghz);
    expectSameState(expected, alias);
}

TEST(SessionGc, ComputeCacheEntriesSurviveCompaction) {
    const dd::DdSession session;
    DecisionDiagram ghz = DecisionDiagram::ghzState(kDims, &session);
    DecisionDiagram w = DecisionDiagram::wState(kDims, &session);

    const Complex first = ghz.innerProductWith(w);
    const std::uint64_t hitsBefore = session.stats().cache.hits;
    const Complex repeat = ghz.innerProductWith(w);
    EXPECT_EQ(repeat, first);
    EXPECT_GT(session.stats().cache.hits, hitsBefore);

    const dd::DdSessionGcStats stats = session.garbageCollect({&ghz, &w});
    // Every cached pair names live nodes: nothing to evict, and the
    // remapped entries still answer the repeat verification.
    EXPECT_EQ(stats.cacheEntriesEvicted, 0U);
    const std::uint64_t hitsAfterGc = session.stats().cache.hits;
    const Complex postGc = ghz.innerProductWith(w);
    EXPECT_EQ(postGc, first);
    EXPECT_GT(session.stats().cache.hits, hitsAfterGc);
}

TEST(SessionGc, CacheEntriesNamingDeadNodesAreEvicted) {
    const dd::DdSession session;
    DecisionDiagram keep = DecisionDiagram::ghzState(kDims, &session);
    std::uint64_t evictedByGc = 0;
    {
        const DecisionDiagram dead = DecisionDiagram::dickeState(kDims, 3, &session);
        (void)keep.innerProductWith(dead);
        const dd::DdSessionGcStats stats = session.garbageCollect({&keep});
        evictedByGc = stats.cacheEntriesEvicted;
    }
    EXPECT_GT(evictedByGc, 0U);
    EXPECT_GE(session.stats().cache.evictions, evictedByGc);
}

TEST(SessionGc, RebuiltTableInternsSurvivorsWithoutNewNodes) {
    const dd::DdSession session;
    DecisionDiagram keep = DecisionDiagram::wState(kDims, &session);
    { const DecisionDiagram dead = DecisionDiagram::ghzState(kDims, &session); }
    const dd::DdSessionGcStats stats = session.garbageCollect({&keep});

    // Re-building a live state after GC must resolve every node from the
    // rebuilt uniquing table — the pool does not grow by a single node.
    const DecisionDiagram again = DecisionDiagram::wState(kDims, &session);
    EXPECT_EQ(session.stats().poolNodes, stats.nodesAfter);
    EXPECT_EQ(again.rootNode(), keep.rootNode());
}

TEST(SessionGc, SurvivesRepeatedBuildCollectCycles) {
    const dd::DdSession session;
    std::uint64_t steadyState = 0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        DecisionDiagram keep = DecisionDiagram::ghzState(kDims, &session);
        { const DecisionDiagram dead = DecisionDiagram::dickeState(kDims, 2, &session); }
        const dd::DdSessionGcStats stats = session.garbageCollect({&keep});
        if (cycle == 0) {
            steadyState = stats.nodesAfter;
        }
        // The compacted size is a pure function of the live set: cycling
        // build/collect must not leak nodes into the "live" count.
        EXPECT_EQ(stats.nodesAfter, steadyState) << "cycle " << cycle;
        EXPECT_EQ(session.garbageCollect({&keep}).nodesAfter, steadyState);
    }
}

TEST(SessionGc, RejectsNullAndForeignDiagrams) {
    const dd::DdSession session;
    DecisionDiagram keep = DecisionDiagram::ghzState(kDims, &session);
    EXPECT_THROW((void)session.garbageCollect({nullptr}), InvalidArgumentError);

    DecisionDiagram foreign = DecisionDiagram::ghzState(kDims); // a fresh store
    EXPECT_THROW((void)session.garbageCollect({&keep, &foreign}), InvalidArgumentError);

    const dd::DdSession other;
    DecisionDiagram otherBacked = DecisionDiagram::ghzState(kDims, &other);
    EXPECT_THROW((void)session.garbageCollect({&otherBacked}), InvalidArgumentError);
}

} // namespace
} // namespace mqsp
