// The session-scoped DD memory subsystem (dd/unique_table.{hpp,cpp}):
// open-addressed uniquing table (collision handling, growth, hit/miss
// counters), the operation/compute cache, the two node-store regimes
// (private append vs session interning), and DdSession reuse across
// diagrams — targets, replays, and repeat verification sharing one pool.

#include "common/random_circuit.hpp"
#include "mqsp/approx/approximation.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/mdd/matrix_dd.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

namespace mqsp {
namespace {

constexpr double kTol = 1e-10;

std::vector<DDEdge> edgeList(std::initializer_list<std::pair<NodeRef, double>> spec) {
    std::vector<DDEdge> edges;
    for (const auto& [node, weight] : spec) {
        edges.push_back(DDEdge{node, Complex{weight, 0.0}});
    }
    return edges;
}

/// findOrInsert whose miss records `fresh`, a ref the test makes up.
NodeRef findOrRecord(dd::UniqueTable& table, std::uint32_t site,
                     const std::vector<DDEdge>& edges, NodeRef fresh) {
    const auto record = [fresh](std::size_t /*shard*/) { return fresh; };
    return table.findOrInsert(site, edges, dd::detail::MakeNodeFnRef(record));
}

// --- UniqueTable -----------------------------------------------------------

TEST(UniqueTable, FindOrInsertDeduplicatesStructuralTwins) {
    dd::UniqueTable table(kTol);
    const auto edges = edgeList({{0, 1.0}});

    EXPECT_EQ(findOrRecord(table, 2, edges, 41), 41U);
    EXPECT_EQ(findOrRecord(table, 2, edges, 99), 41U); // twin: canonical ref wins
    EXPECT_EQ(table.size(), 1U);

    const auto& stats = table.stats();
    EXPECT_EQ(stats.lookups, 2U);
    EXPECT_EQ(stats.misses, 1U);
    EXPECT_EQ(stats.hits, 1U);
}

TEST(UniqueTable, DistinguishesSiteChildrenAndWeights) {
    dd::UniqueTable table(kTol);
    EXPECT_EQ(findOrRecord(table, 0, edgeList({{0, 1.0}}), 1), 1U);
    EXPECT_EQ(findOrRecord(table, 1, edgeList({{0, 1.0}}), 2), 2U); // site differs
    EXPECT_EQ(findOrRecord(table, 0, edgeList({{5, 1.0}}), 3), 3U); // child differs
    EXPECT_EQ(findOrRecord(table, 0, edgeList({{0, 0.5}}), 4), 4U); // weight differs
    EXPECT_EQ(findOrRecord(table, 0, edgeList({{0, 1.0}, {0, 1.0}}), 5), 5U); // arity differs
    EXPECT_EQ(table.size(), 5U);
    EXPECT_EQ(table.stats().hits, 0U);
}

TEST(UniqueTable, WeightsMergeWithinToleranceBucketsOnly) {
    dd::UniqueTable table(1e-6);
    const NodeRef first = findOrRecord(table, 0, edgeList({{0, 0.5}}), 1);
    // Deep inside the same bucket: merges.
    EXPECT_EQ(findOrRecord(table, 0, edgeList({{0, 0.5 + 1e-9}}), 2), first);
    // Far outside: distinct.
    EXPECT_EQ(findOrRecord(table, 0, edgeList({{0, 0.5 + 1e-3}}), 3), 3U);
}

TEST(UniqueTable, GrowsPastInitialCapacityAndKeepsEveryEntry) {
    dd::UniqueTable table(kTol);
    constexpr NodeRef kCount = 3000;
    for (NodeRef i = 0; i < kCount; ++i) {
        ASSERT_EQ(findOrRecord(table, 0, edgeList({{i, 1.0}}), i + 1), i + 1);
    }
    EXPECT_EQ(table.size(), kCount);
    EXPECT_GT(table.stats().grows, 0U);
    EXPECT_GE(table.capacity(), kCount);
    // Every key still resolves to its original canonical ref after growth.
    for (NodeRef i = 0; i < kCount; ++i) {
        ASSERT_EQ(findOrRecord(table, 0, edgeList({{i, 1.0}}), kNoNode), i + 1);
    }
    EXPECT_EQ(table.stats().hits, kCount);
}

// --- ComputeCache ----------------------------------------------------------

TEST(ComputeCache, StoresAndRetrievesPerOperationKeys) {
    dd::ComputeCache cache(kTol, /*slots=*/64);
    const Complex ratio{0.5, 0.25};
    EXPECT_FALSE(cache.lookup(dd::ComputeCache::Op::Add, 1, 2, ratio).has_value());

    cache.store(dd::ComputeCache::Op::Add, 1, 2, ratio,
                dd::ComputeCache::Result{7, Complex{2.0, 0.0}});
    const auto hit = cache.lookup(dd::ComputeCache::Op::Add, 1, 2, ratio);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->node, 7U);
    EXPECT_EQ(hit->value, (Complex{2.0, 0.0}));

    // Same operands, different operation: distinct entry space.
    EXPECT_FALSE(cache.lookup(dd::ComputeCache::Op::InnerProduct, 1, 2, ratio).has_value());
    // Different ratio bucket: miss.
    EXPECT_FALSE(
        cache.lookup(dd::ComputeCache::Op::Add, 1, 2, Complex{0.75, 0.25}).has_value());

    const auto& stats = cache.stats();
    EXPECT_EQ(stats.lookups, 4U);
    EXPECT_EQ(stats.hits, 1U);
    EXPECT_EQ(stats.misses, 3U);
    EXPECT_NEAR(stats.hitRate(), 0.25, 1e-12);
}

TEST(ComputeCache, ConflictingKeysEvict) {
    dd::ComputeCache cache(kTol, /*slots=*/1); // every key maps to one slot
    cache.store(dd::ComputeCache::Op::Add, 1, 2, Complex{1.0, 0.0},
                dd::ComputeCache::Result{7, Complex{1.0, 0.0}});
    cache.store(dd::ComputeCache::Op::Add, 3, 4, Complex{1.0, 0.0},
                dd::ComputeCache::Result{8, Complex{1.0, 0.0}});
    EXPECT_EQ(cache.stats().evictions, 1U);
    EXPECT_FALSE(
        cache.lookup(dd::ComputeCache::Op::Add, 1, 2, Complex{1.0, 0.0}).has_value());
    ASSERT_TRUE(
        cache.lookup(dd::ComputeCache::Op::Add, 3, 4, Complex{1.0, 0.0}).has_value());
}

TEST(ComputeCache, SaturatedRatiosNeverShareAKey) {
    // An addition's y/x ratio is bucketed as llround(ratio / tol). Past
    // |ratio / tol| = 2^62 that stops naming a bucket (llround saturates,
    // and every larger ratio lands on the same value), so such an addition
    // is never cached: its lookup is a miss and its store is dropped. Tiny
    // rotation angles produce these ratios (~1 / sin(theta / 2)).
    dd::ComputeCache cache(kTol, /*slots=*/64);
    const auto add = dd::ComputeCache::Op::Add;
    const Complex first{0.0, 2e9}; // 2e19 buckets
    const Complex second{0.0, 1.5e9};
    cache.store(add, 1, 2, first, dd::ComputeCache::Result{7, Complex{1.0, 0.0}});
    EXPECT_FALSE(cache.lookup(add, 1, 2, second).has_value());
    EXPECT_FALSE(cache.lookup(add, 1, 2, first).has_value());
    cache.store(add, 3, 4, Complex{-1e300, 0.0}, dd::ComputeCache::Result{8, Complex{}});
    EXPECT_FALSE(cache.lookup(add, 3, 4, Complex{-3e300, 0.0}).has_value());
    EXPECT_FALSE(
        cache.lookup(add, 3, 4, Complex{std::nan(""), 0.0}).has_value());

    // Just inside the range (4e18 buckets) a ratio is an ordinary key.
    const Complex inside{4e8, -4e8};
    cache.store(add, 5, 6, inside, dd::ComputeCache::Result{9, Complex{0.5, 0.0}});
    const auto hit = cache.lookup(add, 5, 6, inside);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->node, 9U);

    const dd::ComputeCacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 5U);
    EXPECT_EQ(stats.hits, 1U);
    EXPECT_EQ(stats.misses, 4U);
    EXPECT_EQ(stats.evictions, 0U);
}

// --- DdNodeStore -----------------------------------------------------------

TEST(DdNodeStore, PrivateStoreAppendsWithoutUniquing) {
    dd::DdNodeStore store(dd::DdNodeStore::Mode::Private);
    EXPECT_EQ(store.size(), 1U); // the terminal
    const NodeRef a = store.allocate(0, edgeList({{0, 1.0}}));
    const NodeRef b = store.allocate(0, edgeList({{0, 1.0}}));
    EXPECT_NE(a, b); // structural twins stay distinct (historical tree semantics)
    EXPECT_EQ(store.size(), 3U);
}

TEST(DdNodeStore, InterningStoreDeduplicatesWithoutCreatingGarbage) {
    dd::DdNodeStore store(dd::DdNodeStore::Mode::Interning, kTol);
    const NodeRef a = store.allocate(0, edgeList({{0, 1.0}}));
    const NodeRef b = store.allocate(0, edgeList({{0, 1.0}}));
    EXPECT_EQ(a, b);
    EXPECT_EQ(store.size(), 2U); // terminal + one canonical node, no garbage
    EXPECT_EQ(store.uniqueTable()->stats().hits, 1U);
}

TEST(DdNodeStore, InterningStoreRefusesInPlaceMutation) {
    // Nothing writes a node after the call that made it: pruning a session
    // diagram rebuilds the result on a store of its own and leaves the
    // session's pool, and every byte of the pruned diagram's source, as it
    // was.
    const dd::DdSession session;
    Rng rng(0x5E55'10ULL);
    const DecisionDiagram target =
        DecisionDiagram::fromStateVector(states::random({3, 4, 2}, rng), kTol, &session);
    std::ostringstream before;
    target.serialize(before);
    const std::uint64_t pool = session.stats().poolNodes;

    DecisionDiagram pruned = target;
    ASSERT_TRUE(pruned.sharesStoreWith(target)); // copies alias the store
    const ApproximationReport report = approximate(pruned);
    ASSERT_GT(report.removedLeafEdges + report.removedInternalNodes, 0U);
    EXPECT_FALSE(pruned.sharesStoreWith(target));
    EXPECT_FALSE(session.owns(pruned));
    EXPECT_EQ(session.stats().poolNodes, pool);
    std::ostringstream after;
    target.serialize(after);
    EXPECT_EQ(after.str(), before.str());
}

// --- DdSession: builders, reuse, lifetime ---------------------------------

TEST(DdSession, RepeatedBuildsShareEveryNode) {
    const Dimensions dims{3, 6, 2};
    dd::DdSession session;
    const DecisionDiagram first = DecisionDiagram::wState(dims, &session);
    const std::size_t poolAfterFirst = first.poolSize();
    const DecisionDiagram second = DecisionDiagram::wState(dims, &session);

    EXPECT_TRUE(first.sharesStoreWith(second));
    EXPECT_EQ(second.poolSize(), poolAfterFirst); // second build allocated nothing
    EXPECT_EQ(first.rootNode(), second.rootNode());
    EXPECT_NEAR(squaredMagnitude(first.innerProductWith(second)), 1.0, kTol);
}

TEST(DdSession, DiagramsOfDifferentFamiliesShareCommonSubtrees) {
    const Dimensions dims{3, 4, 2, 3};
    dd::DdSession session;
    const DecisionDiagram w = DecisionDiagram::wState(dims, &session);
    const std::size_t poolAfterW = w.poolSize();
    // The embedded W state reuses the all-|0> suffix chains the full W
    // state already interned: the session pool grows by less than a
    // private embedded-W build would allocate.
    const DecisionDiagram embedded = DecisionDiagram::embeddedWState(dims, &session);
    const std::size_t sessionGrowth = embedded.poolSize() - poolAfterW;
    const std::size_t privateSize = DecisionDiagram::embeddedWState(dims).poolSize() - 1;
    EXPECT_LT(sessionGrowth, privateSize);
    EXPECT_GT(session.stats().unique.hits, 0U);

    // Both diagrams still evaluate correctly.
    const StateVector denseW = states::wState(dims);
    const StateVector denseEmb = states::embeddedWState(dims);
    EXPECT_NEAR(w.fidelityWith(denseW), 1.0, kTol);
    EXPECT_NEAR(embedded.fidelityWith(denseEmb), 1.0, kTol);
}

TEST(DdSession, SessionBuildersMatchPrivateBuildersAmplitudeForAmplitude) {
    const Dimensions dims{3, 6, 2};
    dd::DdSession session;
    const std::vector<std::pair<DecisionDiagram, StateVector>> pairs = [&] {
        std::vector<std::pair<DecisionDiagram, StateVector>> list;
        list.emplace_back(DecisionDiagram::ghzState(dims, &session), states::ghz(dims));
        list.emplace_back(DecisionDiagram::wState(dims, &session), states::wState(dims));
        list.emplace_back(DecisionDiagram::embeddedWState(dims, &session), states::embeddedWState(dims));
        list.emplace_back(DecisionDiagram::uniformState(dims, &session), states::uniform(dims));
        list.emplace_back(DecisionDiagram::cyclicState(dims, Digits(dims.size(), 0), 6, &session),
                          states::cyclic(dims, Digits(dims.size(), 0), 6));
        list.emplace_back(DecisionDiagram::dickeState(dims, 2, &session), states::dicke(dims, 2));
        return list;
    }();
    for (const auto& [diagram, state] : pairs) {
        EXPECT_TRUE(diagram.sessionBacked());
        EXPECT_TRUE(diagram.checkInvariants().empty()) << diagram.checkInvariants();
        for (std::uint64_t i = 0; i < state.size(); ++i) {
            const Digits digits = state.radix().digitsOf(i);
            const Complex amp = diagram.amplitudeOf(digits);
            EXPECT_NEAR(amp.real(), state[i].real(), kTol) << "index " << i;
            EXPECT_NEAR(amp.imag(), state[i].imag(), kTol) << "index " << i;
        }
    }
}

TEST(DdSession, ReplayInternsIntoTheTargetsPool) {
    const Dimensions dims{3, 3, 3};
    dd::DdSession session;
    const DecisionDiagram target = DecisionDiagram::ghzState(dims, &session);

    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const Circuit circuit = synthesize(target, lean);

    DecisionDiagram replayed = DecisionDiagram::zeroState(dims, &session);
    for (const Operation& op : circuit.operations()) {
        replayed.applyOperation(op);
    }
    EXPECT_TRUE(replayed.sharesStoreWith(target));
    EXPECT_NEAR(squaredMagnitude(target.innerProductWith(replayed)), 1.0, 1e-9);
    // The replay re-derived the target's structure through the table:
    // its hits include the target's own nodes.
    EXPECT_GT(session.stats().unique.hits, 0U);
}

TEST(DdSession, InternImportsForeignDiagramsAndAliasesOwnOnes) {
    const Dimensions dims{3, 6, 2};
    Rng rng(0xDD5E55'10ULL);
    const StateVector state = states::random(dims, rng);

    dd::DdSession session;
    const DecisionDiagram imported = session.intern(DecisionDiagram::fromStateVector(state));
    EXPECT_TRUE(imported.sessionBacked());
    EXPECT_NEAR(imported.fidelityWith(state), 1.0, kTol);

    // Interning a session-backed diagram is an O(1) alias, not a copy.
    const std::size_t pool = imported.poolSize();
    const DecisionDiagram aliased = session.intern(imported);
    EXPECT_EQ(aliased.poolSize(), pool);
    EXPECT_EQ(aliased.rootNode(), imported.rootNode());
}

TEST(DdSession, SessionDiagramsRefuseMutatorsAndSkipReduce) {
    // Already canonical, and never written in place: a pruning pass that
    // cuts nothing (each GHZ branch holds a third of the mass) hands the
    // session diagram back as it was, on the session's pool.
    const Dimensions dims{3, 3};
    dd::DdSession session;
    DecisionDiagram diagram = DecisionDiagram::ghzState(dims, &session);
    const NodeRef root = diagram.rootNode();
    const std::size_t pool = diagram.poolSize();

    const ApproximationReport report = approximate(diagram);
    EXPECT_DOUBLE_EQ(report.removedMass, 0.0);
    EXPECT_EQ(report.mergedNodes, 0U);
    EXPECT_TRUE(session.owns(diagram));
    EXPECT_EQ(diagram.rootNode(), root);
    EXPECT_EQ(diagram.poolSize(), pool);
}

TEST(DdSession, CopyOfSessionDiagramAliasesThePool) {
    const Dimensions dims(16, 2);
    dd::DdSession session;
    const DecisionDiagram original = DecisionDiagram::uniformState(dims, &session);
    const DecisionDiagram copy = original; // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_TRUE(copy.sharesStoreWith(original));
    EXPECT_EQ(copy.rootNode(), original.rootNode());
}

TEST(DdSession, SerializationDetachesFromTheSessionPool) {
    const Dimensions dims{3, 6, 2};
    dd::DdSession session;
    const DecisionDiagram ghz = DecisionDiagram::ghzState(dims, &session);
    (void)DecisionDiagram::wState(dims, &session); // unrelated nodes in the same pool

    std::stringstream stream;
    ghz.serialize(stream);
    const DecisionDiagram parsed = DecisionDiagram::deserialize(stream);
    EXPECT_FALSE(parsed.sessionBacked());
    // Only GHZ-reachable nodes round-trip, not the session's W nodes.
    EXPECT_LT(parsed.poolSize(), ghz.poolSize());
    EXPECT_NEAR(squaredMagnitude(parsed.innerProductWith(ghz)), 1.0, kTol);
}

TEST(DdSession, DiagramsOutliveTheSessionObject) {
    const Dimensions dims{3, 3, 3};
    DecisionDiagram survivor;
    {
        dd::DdSession session;
        survivor = DecisionDiagram::ghzState(dims, &session);
    } // session gone; the shared store lives through the diagram's ref
    EXPECT_NEAR(survivor.fidelityWith(states::ghz(dims)), 1.0, kTol);
}

TEST(DdSession, StatsResetClearsCountersButKeepsNodes) {
    const Dimensions dims{3, 6, 2};
    dd::DdSession session;
    (void)DecisionDiagram::wState(dims, &session);
    (void)DecisionDiagram::wState(dims, &session);
    ASSERT_GT(session.stats().unique.hits, 0U);
    const std::uint64_t pool = session.stats().poolNodes;

    session.resetStats();
    EXPECT_EQ(session.stats().unique.lookups, 0U);
    EXPECT_EQ(session.stats().cache.lookups, 0U);
    EXPECT_EQ(session.stats().poolNodes, pool);
}

TEST(DdSession, RepeatVerificationHitsTheOperationCache) {
    // An approximated circuit prepares a state that differs from the exact
    // target, so verification must genuinely traverse node pairs — the
    // case the session operation cache exists for. The second verification
    // resolves from the cache at the root pair instead of re-walking.
    const Dimensions dims{4, 3, 2, 5};
    Rng rng(0xCAFEULL);
    const StateVector target = states::random(dims, rng);
    const auto prep = prepareApproximated(target, 0.98);
    ASSERT_LT(prep.approx.fidelity, 1.0);

    const DdBackend backend;
    const EvalState evalTarget(target);
    const double first = backend.preparationFidelity(prep.circuit, evalTarget);
    const auto afterFirst = backend.ddSession()->stats();
    const double second = backend.preparationFidelity(prep.circuit, evalTarget);
    const auto afterSecond = backend.ddSession()->stats();

    EXPECT_NEAR(first, prep.approx.fidelity, 1e-6);
    EXPECT_EQ(second, first); // cached overlap is the identical double
    EXPECT_GT(afterSecond.cache.hits, afterFirst.cache.hits);
    // No new structure on the second run: the pool did not grow.
    EXPECT_EQ(afterSecond.poolNodes, afterFirst.poolNodes);
}

TEST(DdSession, PastCeilingFamiliesStayPolynomial) {
    // 2^27 amplitudes: dicke and cyclic exist only as DAG builders; their
    // session diagrams must stay tiny and verify exactly.
    const Dimensions dims(27, 2);
    dd::DdSession session;
    const DecisionDiagram dicke = DecisionDiagram::dickeState(dims, 2, &session);
    EXPECT_LE(dicke.nodeCount(NodeCountMode::Internal), 27U * 3U);
    EXPECT_NEAR(dicke.normSquared(), 1.0, kTol);

    const DecisionDiagram cyclic = DecisionDiagram::cyclicState(dims, Digits(27, 0), 2, &session);
    EXPECT_LE(cyclic.nodeCount(NodeCountMode::Internal), 27U * 2U);
    EXPECT_NEAR(cyclic.normSquared(), 1.0, kTol);
    // GHZ on a qubit register IS the 2-shift cyclic state of |0...0>.
    EXPECT_NEAR(squaredMagnitude(cyclic.innerProductWith(DecisionDiagram::ghzState(dims, &session))), 1.0,
                1e-9);
}

TEST(DdSession, KeyHashKeepsProbesShort) {
    // Hash-quality guard: the structured families past the dense ceiling
    // plus a random all-kind replay. Their keys are as regular as keys get
    // (runs of equal sites, sequential child refs, a handful of distinct
    // weights), so a weak key hash shows up as long linear-probe runs.
    // The bound is 1.1x the probe displacements per lookup measured with
    // the three-finalizers-per-edge hash this table used before.
    constexpr double kReferenceProbesPerLookup = 51120.0 / 28583.0; // 1.788
    dd::DdSession session;
    for (const Dimensions& dims : {Dimensions(27, 2), Dimensions{3, 4, 2, 5, 3, 6, 2, 4, 3}}) {
        (void)DecisionDiagram::ghzState(dims, &session);
        (void)DecisionDiagram::wState(dims, &session);
        (void)DecisionDiagram::dickeState(dims, 2, &session);
        (void)DecisionDiagram::cyclicState(dims, Digits(dims.size(), 0), 2, &session);
    }
    const Dimensions replayDims{3, 4, 2, 5, 3};
    const Circuit replay = randomAllKindCircuit(replayDims, 400, 9);
    DecisionDiagram state = DecisionDiagram::zeroState(replayDims, &session);
    for (const Operation& op : replay.operations()) {
        state.applyOperation(op);
    }
    const dd::UniqueTableStats stats = session.stats().unique;
    ASSERT_GT(stats.lookups, 0U);
    const double probesPerLookup =
        static_cast<double>(stats.probeSteps) / static_cast<double>(stats.lookups);
    EXPECT_LE(probesPerLookup, 1.1 * kReferenceProbesPerLookup)
        << stats.probeSteps << " probe steps over " << stats.lookups << " lookups";
}

// --- operator diagrams on a DdNodeStore --------------------------------------

TEST(DdNodeStore, SharedOperatorStoreCrossesDiagramBoundaries) {
    const Dimensions dims{3, 2};
    Rng rng(7);
    const StateVector target = states::random(dims, rng);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);

    const auto store = std::make_shared<dd::DdNodeStore>(dd::DdNodeStore::Mode::Interning);
    const MatrixDD a = MatrixDD::fromCircuit(prep.circuit, Tolerance::kDefault, store);
    const std::size_t afterFirst = store->size();
    const MatrixDD b = MatrixDD::fromCircuit(prep.circuit, Tolerance::kDefault, store);

    // The identical circuit recompiles without allocating a single node...
    EXPECT_EQ(store->size(), afterFirst);
    EXPECT_GT(store->uniqueTable()->stats().hits, 0U);
    // ...lands on the same canonical root, and the equivalence check
    // short-circuits on root identity.
    EXPECT_EQ(a.root().node, b.root().node);
    EXPECT_TRUE(a.equivalentUpToGlobalPhase(b, 1e-9));
}

} // namespace
} // namespace mqsp
