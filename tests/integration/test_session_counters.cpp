// Session counter identity: fixed DD workloads pinned as every session
// counter plus a digest of the bits they produce. The first replays random
// all-kind circuits on one single-threaded backend, verifies synthesized
// circuits singly and as a batch, collects the session, replays again after
// the collection, and runs a DD equivalence check. The second builds every
// structured family on fresh stores and on a session, interns random
// states, collects, approximates, interns a session-less W onto a session
// of its own, and serializes the results. How the uniquing table and the
// compute cache are laid out in memory, and which code path puts a node on
// a store, are free to change; which keys hit, which miss, which nodes
// exist at which ref, and every bit and byte the workloads produce are not,
// so these constants only move when a change means to move them.

#include "common/fnv1a.hpp"
#include "common/random_circuit.hpp"
#include "mqsp/approx/approximation.hpp"
#include "mqsp/mdd/matrix_dd.hpp"
#include "mqsp/opt/optimizer.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

namespace mqsp {
namespace {

/// Every amplitude of `state` by bit pattern.
void addAmplitudes(Fnv1a& digest, const StateVector& state) {
    for (const Complex& amplitude : state.amplitudes()) {
        digest.add(amplitude.real());
        digest.add(amplitude.imag());
    }
}

/// Unique lookups, hits, misses; cache lookups, hits, evictions; GC nodes
/// before, after, evicted; pool nodes at the end.
using Counters = std::array<std::uint64_t, 10>;

struct Observed {
    Counters counters{};
    std::uint64_t digest = 0;
};

Observed runWorkload() {
    const Dimensions dims{3, 4, 2, 5};
    const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{1});
    const auto session = backend.ddSession();
    Fnv1a digest;

    // Random all-kind replays (the cached addition and every gate kind).
    std::vector<EvalState> replays;
    for (std::uint64_t seed = 41; seed <= 46; ++seed) {
        replays.push_back(backend.runFromZero(randomAllKindCircuit(dims, 80, seed)));
        addAmplitudes(digest, replays.back().toStateVector(4096));
    }

    // Synthesized circuits, verified one by one on the session and then as
    // one batch, whose items replay on worker sessions and leave this
    // session's counters alone.
    Rng rng(2718);
    std::vector<StateVector> targets{states::random({3, 6, 2}, rng), states::random(dims, rng),
                                     states::ghz(dims), states::wState({2, 3, 2, 3, 2})};
    std::vector<Circuit> circuits;
    std::vector<EvalState> evalTargets;
    for (const StateVector& target : targets) {
        circuits.push_back(prepareExact(target).circuit);
        evalTargets.emplace_back(target);
    }
    std::vector<VerifyRequest> batch;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        digest.add(backend.preparationFidelity(circuits[i], evalTargets[i]));
        batch.push_back(VerifyRequest{&circuits[i], &evalTargets[i]});
    }
    for (const VerifyReport& report : backend.verifyBatch(batch)) {
        EXPECT_FALSE(report.failed) << report.error;
        digest.add(report.fidelity);
        digest.add(report.ddNodes);
        digest.add(report.cacheLookups);
        digest.add(report.cacheHits);
    }

    // Collect down to two replays, then replay the same circuits again.
    const dd::DdSessionGcStats gc =
        session->garbageCollect({&replays[0].diagram(), &replays[1].diagram()});
    for (std::uint64_t seed = 41; seed <= 44; ++seed) {
        addAmplitudes(digest,
                      backend.runFromZero(randomAllKindCircuit(dims, 80, seed)).toStateVector(4096));
    }

    // Equivalence of a synthesized circuit and its optimized form.
    Circuit optimized = circuits[1];
    (void)optimizeCircuit(optimized);
    digest.add(static_cast<std::uint64_t>(backend.circuitsEquivalent(circuits[1], optimized)));

    const dd::DdSessionStats stats = session->stats();
    Observed observed;
    observed.counters = {stats.unique.lookups, stats.unique.hits,   stats.unique.misses,
                         stats.cache.lookups,  stats.cache.hits,    stats.cache.evictions,
                         gc.nodesBefore,       gc.nodesAfter,       gc.cacheEntriesEvicted,
                         stats.poolNodes};
    observed.digest = digest.value();
    return observed;
}

TEST(SessionCountersIdentity, FixedWorkloadKeepsEveryCounterAndBit) {
    const Observed observed = runWorkload();
    const Counters expected{10752, 1200, 9552, 4756, 78, 2711, 5911, 81, 2623, 3723};
    EXPECT_EQ(observed.counters, expected);
    EXPECT_EQ(observed.digest, 0xe978f30b930ec10eULL);
}

/// Pool size, root ref and every byte of the serialized text of `diagram`.
void addDiagram(Fnv1a& digest, const DecisionDiagram& diagram) {
    digest.add(static_cast<std::uint64_t>(diagram.poolSize()));
    digest.add(static_cast<std::uint64_t>(diagram.rootNode()));
    std::ostringstream text;
    diagram.serialize(text);
    for (const char c : text.str()) {
        digest.add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
}

/// One diagram of each structured family on `dims`, built on `session`, or
/// each on a fresh store of its own when `session` is null.
std::vector<DecisionDiagram> everyFamily(const Dimensions& dims, const dd::DdSession* session) {
    Digits digits(dims.size());
    for (std::size_t site = 0; site < dims.size(); ++site) {
        digits[site] = static_cast<Level>((site + 1) % dims[site]);
    }
    return {DecisionDiagram::zeroState(dims, session),
            DecisionDiagram::basisState(dims, digits, session),
            DecisionDiagram::ghzState(dims, session),
            DecisionDiagram::wState(dims, session),
            DecisionDiagram::embeddedWState(dims, session),
            DecisionDiagram::uniformState(dims, session),
            DecisionDiagram::cyclicState(dims, digits, 6, session),
            DecisionDiagram::dickeState(dims, 2, session)};
}

/// Unique lookups, hits and misses of `stats`.
void addUnique(Fnv1a& digest, const dd::UniqueTableStats& stats) {
    digest.add(stats.lookups);
    digest.add(stats.hits);
    digest.add(stats.misses);
}

TEST(SessionCountersIdentity, BuildersInternAndCollectionKeepEveryRefAndByte) {
    const std::array<Dimensions, 4> registers{
        Dimensions{3, 4, 2}, Dimensions{2, 3, 2, 3, 2}, Dimensions{4, 2, 5}, Dimensions{3, 6, 2}};
    Fnv1a digest;
    Fnv1a approxDigest;
    Rng rng(1618);
    std::uint64_t sessionLookups = 0;
    std::uint64_t sessionHits = 0;
    std::uint64_t sessionMisses = 0;
    for (const Dimensions& dims : registers) {
        // Every family on fresh stores.
        for (const DecisionDiagram& diagram : everyFamily(dims, nullptr)) {
            addDiagram(digest, diagram);
        }

        // Every family on a session, twice: the second round is all hits.
        const dd::DdSession session;
        std::vector<DecisionDiagram> families = everyFamily(dims, &session);
        for (const DecisionDiagram& diagram : families) {
            addDiagram(digest, diagram);
        }
        for (const DecisionDiagram& diagram : everyFamily(dims, &session)) {
            addDiagram(digest, diagram);
        }
        addUnique(digest, session.stats().unique);

        // Random states interned twice, and a session-less W.
        const DecisionDiagram tree = DecisionDiagram::fromStateVector(states::random(dims, rng));
        DecisionDiagram interned = session.intern(tree);
        addDiagram(digest, interned);
        addDiagram(digest, session.intern(tree));
        addDiagram(digest, session.intern(DecisionDiagram::fromStateVector(
                               states::random(dims, rng))));
        DecisionDiagram internedW = session.intern(DecisionDiagram::wState(dims));
        digest.add(static_cast<std::uint64_t>(internedW.rootNode() == families[3].rootNode()));
        addUnique(digest, session.stats().unique);

        // A session collection down to two diagrams.
        const dd::DdSessionGcStats gc = session.garbageCollect({&interned, &families[6]});
        digest.add(gc.nodesBefore);
        digest.add(gc.nodesAfter);
        addDiagram(digest, interned);
        addDiagram(digest, families[6]);
        addDiagram(digest, session.intern(tree));

        // The pruning pass on a random tree, pinned apart from the rest: a
        // tree's cuts, masses, refs and bits do not depend on the store
        // the pass reads or builds on.
        DecisionDiagram approximated = tree;
        const ApproximationReport report =
            approximate(approximated, ApproximationOptions{0.9, Tolerance::kDefault});
        approxDigest.add(static_cast<std::uint64_t>(report.removedLeafEdges));
        approxDigest.add(static_cast<std::uint64_t>(report.removedInternalNodes));
        approxDigest.add(static_cast<std::uint64_t>(report.mergedNodes));
        approxDigest.add(report.removedMass);
        approxDigest.add(report.fidelity);
        addDiagram(approxDigest, approximated);

        // A session-less W interned onto a session of its own: already
        // reduced, so the rebuild merges nothing.
        const dd::DdSession reducing;
        const DecisionDiagram sessionlessW = DecisionDiagram::wState(dims);
        const DecisionDiagram reduced = reducing.intern(sessionlessW);
        digest.add(sessionlessW.nodeCount(NodeCountMode::Internal) -
                   reduced.nodeCount(NodeCountMode::Internal));
        addDiagram(digest, reduced);

        // An operator DD compiled twice on one shared store.
        const auto store = std::make_shared<dd::DdNodeStore>(Tolerance::kDefault);
        const Circuit circuit = prepareExact(states::random(dims, rng)).circuit;
        const MatrixDD first = MatrixDD::fromCircuit(circuit, Tolerance::kDefault, store);
        const MatrixDD second = MatrixDD::fromCircuit(circuit, Tolerance::kDefault, store);
        digest.add(static_cast<std::uint64_t>(second.root().node == first.root().node));
        digest.add(static_cast<std::uint64_t>(store->size()));
        addUnique(digest, store->uniqueTable().stats());

        const dd::DdSessionStats stats = session.stats();
        sessionLookups += stats.unique.lookups;
        sessionHits += stats.unique.hits;
        sessionMisses += stats.unique.misses;
    }
    EXPECT_EQ(sessionLookups, 916U);
    EXPECT_EQ(sessionHits, 593U);
    EXPECT_EQ(sessionMisses, 323U);
    EXPECT_EQ(digest.value(), 0x475b5af067e93ab4ULL);
    EXPECT_EQ(approxDigest.value(), 0x196a8b48b0e99b09ULL);
}

} // namespace
} // namespace mqsp
