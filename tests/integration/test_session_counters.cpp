// Session counter identity: one fixed DD workload on one single-threaded
// backend, pinned as every session counter plus a digest of the replayed
// bits. The workload replays random all-kind circuits, verifies
// synthesized circuits singly and as a batch, collects the session, replays
// again after the collection, and runs a DD equivalence check. How the
// uniquing table and the compute cache are laid out in memory is free to
// change; which keys hit, which miss, which nodes exist and every bit the
// replays produce are not, so these constants only move when a change means
// to move them.

#include "common/fnv1a.hpp"
#include "common/random_circuit.hpp"
#include "mqsp/opt/optimizer.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
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

    // Synthesized circuits, verified one by one and then as one batch.
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
    const Counters expected{11821, 2269, 9552, 4756, 78, 2711, 5911, 81, 2623, 3723};
    EXPECT_EQ(observed.counters, expected);
    EXPECT_EQ(observed.digest, 0xc36a2b84260779f1ULL);
}

} // namespace
} // namespace mqsp
