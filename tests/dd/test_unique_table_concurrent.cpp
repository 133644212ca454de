// Concurrency stress tests for the sharded uniquing table, the chunked
// node pool, and the striped compute cache (dd/unique_table.{hpp,cpp}),
// and for operator diagrams compiled concurrently onto one store.
// These run threads through parallel::runOnThreads — plain std::threads
// behind a start barrier, bypassing the TaskPool's one-region-at-a-time
// submission — so the findOrInsert/store/lookup bodies genuinely overlap.
// The suite is part of the TSan CI job: the assertions below check the
// uniquing invariants, TSan checks the memory orderings.

#include "common/random_circuit.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/mdd/matrix_dd.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace mqsp {
namespace {

constexpr double kTol = 1e-10;

std::vector<DDEdge> keyEdges(NodeRef child, double weight) {
    return {DDEdge{child, Complex{weight, 0.0}}};
}

// --- sharded findOrInsert --------------------------------------------------

TEST(ConcurrentUniqueTable, OverlappingKeySetsYieldOneRefPerDistinctKey) {
    // Every thread interns the same kKeys distinct keys, each starting at a
    // different offset so insertion races are spread over the whole key
    // range (and all 16 shards). Exactly one node may be created per key:
    // losers of a race must receive the winner's canonical ref.
    constexpr unsigned kThreads = 7;
    constexpr NodeRef kKeys = 600;

    dd::DdNodeStore store(kTol);
    std::vector<std::vector<NodeRef>> got(kThreads, std::vector<NodeRef>(kKeys, kNoNode));
    parallel::runOnThreads(kThreads, [&](unsigned thread) {
        for (NodeRef i = 0; i < kKeys; ++i) {
            const NodeRef k = (i + thread * 83) % kKeys;
            // Distinct site + weight per key: keys land in every shard.
            got[thread][k] =
                store.allocate(k % 11, keyEdges(0, 1.0 / static_cast<double>(k + 1)));
        }
    });

    // Post-hoc scan: the pool holds the terminal plus exactly one node per
    // distinct key, the table one entry per key.
    EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys) + 1);
    EXPECT_EQ(store.uniqueTable().size(), static_cast<std::size_t>(kKeys));
    for (NodeRef k = 0; k < kKeys; ++k) {
        for (unsigned thread = 1; thread < kThreads; ++thread) {
            ASSERT_EQ(got[thread][k], got[0][k]) << "key " << k << " thread " << thread;
        }
        // The canonical ref names a node with the key's structure.
        const DDNode& node = store.node(got[0][k]);
        ASSERT_EQ(node.site, k % 11);
        ASSERT_EQ(node.edges.size(), 1U);
    }
    // Per-shard key sets are thread-count invariant, so so are the summed
    // counters: every thread's every call was one lookup, and each key
    // missed exactly once.
    const dd::UniqueTableStats stats = store.uniqueTable().stats();
    EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads) * kKeys);
    EXPECT_EQ(stats.misses, kKeys);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1) * kKeys);
}

TEST(ConcurrentUniqueTable, InsertStormAcrossGrowBoundaries) {
    // Enough keys to force several per-shard rehashes from the 16-slot
    // start while other threads are probing the same shard. Entries
    // recorded before a grow must survive it (canonical refs stable).
    constexpr unsigned kThreads = 4;
    constexpr NodeRef kKeys = 3000;

    dd::UniqueTable table(kTol);
    std::atomic<NodeRef> nextRef{1};
    std::vector<std::vector<NodeRef>> got(kThreads, std::vector<NodeRef>(kKeys, kNoNode));
    parallel::runOnThreads(kThreads, [&](unsigned thread) {
        const auto makeFresh = [&](std::size_t /*shard*/) -> NodeRef {
            return nextRef.fetch_add(1, std::memory_order_relaxed);
        };
        for (NodeRef i = 0; i < kKeys; ++i) {
            const NodeRef k = (i + thread * 977) % kKeys;
            got[thread][k] =
                table.findOrInsert(0, keyEdges(k, 1.0), dd::detail::MakeNodeFnRef(makeFresh));
        }
    });

    EXPECT_EQ(table.size(), static_cast<std::size_t>(kKeys));
    EXPECT_GT(table.stats().grows, 0U);
    // makeFresh ran exactly once per distinct key.
    EXPECT_EQ(nextRef.load(), kKeys + 1);
    // Serial lookups agree with what every racing thread was handed (a key
    // lost by a grow would be recorded afresh as kNoNode).
    const auto lost = [](std::size_t /*shard*/) { return kNoNode; };
    for (NodeRef k = 0; k < kKeys; ++k) {
        const NodeRef canonical =
            table.findOrInsert(0, keyEdges(k, 1.0), dd::detail::MakeNodeFnRef(lost));
        ASSERT_NE(canonical, kNoNode) << "key " << k << " lost by a grow";
        for (unsigned thread = 0; thread < kThreads; ++thread) {
            ASSERT_EQ(got[thread][k], canonical) << "key " << k << " thread " << thread;
        }
    }
}

TEST(ConcurrentUniqueTable, EdgeBlocksSurviveConcurrentInterning) {
    // A fresh node's edges go into the edge block of its key's shard, under
    // that shard's lock. Four threads intern the same sequence of keys of
    // arity 2 to 144 (about 280 blocks' worth, so every shard crosses many
    // block boundaries while the others write), plus every 97th key one
    // edge larger than a block, which gets a block of its own. Every node
    // must read back its key, and since every thread interns in the same
    // order, each key is created in that order whoever creates it: refs,
    // size and misses equal a serial run's.
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kKeys = 2000;
    const auto arityOf = [](std::size_t k) -> std::size_t {
        return k % 97 == 96 ? dd::DdNodeStore::kEdgeBlockEdges + 1 : 2 + (k * 37) % 143;
    };
    const auto keyOf = [&arityOf](std::size_t k) {
        std::vector<DDEdge> edges(arityOf(k));
        for (std::size_t e = 0; e < edges.size(); ++e) {
            if ((k + e) % 5 != 0) { // every fifth slot a zero stub
                const double weight = static_cast<double>(k + 1) + static_cast<double>(e) / 1024;
                edges[e] = DDEdge{0, Complex{weight, -weight}};
            }
        }
        return edges;
    };
    std::vector<std::vector<DDEdge>> keys;
    keys.reserve(kKeys);
    for (std::size_t k = 0; k < kKeys; ++k) {
        keys.push_back(keyOf(k));
    }
    const auto internAll = [&keys](dd::DdNodeStore& store) {
        std::vector<NodeRef> refs;
        refs.reserve(keys.size());
        for (std::size_t k = 0; k < keys.size(); ++k) {
            refs.push_back(store.allocate(static_cast<std::uint32_t>(k % 7), keys[k]));
        }
        return refs;
    };

    dd::DdNodeStore serial(kTol);
    const std::vector<NodeRef> serialRefs = internAll(serial);
    dd::DdNodeStore shared(kTol);
    std::vector<std::vector<NodeRef>> refs(kThreads);
    parallel::runOnThreads(kThreads, [&](unsigned thread) { refs[thread] = internAll(shared); });

    for (unsigned thread = 0; thread < kThreads; ++thread) {
        ASSERT_EQ(refs[thread], serialRefs) << "thread " << thread;
    }
    for (std::size_t k = 0; k < kKeys; ++k) {
        const DDNode& node = shared.node(serialRefs[k]);
        ASSERT_EQ(node.site, k % 7);
        ASSERT_EQ(node.edges.size(), keys[k].size()) << "key " << k;
        for (std::size_t e = 0; e < keys[k].size(); ++e) {
            ASSERT_EQ(node.edges[e].node, keys[k][e].node) << "key " << k << " edge " << e;
            ASSERT_EQ(node.edges[e].weight, keys[k][e].weight) << "key " << k << " edge " << e;
        }
    }
    EXPECT_EQ(shared.size(), serial.size());
    EXPECT_EQ(shared.size(), kKeys + 1);
    EXPECT_EQ(shared.uniqueTable().stats().misses, serial.uniqueTable().stats().misses);
}

TEST(ConcurrentUniqueTable, OperatorDiagramsInternOncePerKey) {
    // DdBackend compiles the circuits of concurrent batch items onto one
    // shared operator store. Four threads compile the same circuits here:
    // each distinct operator node must be created once, every thread must
    // land on the same canonical roots, and the store must end up exactly
    // as a single-threaded compile leaves it.
    constexpr unsigned kThreads = 4;
    Rng rng(29);
    const std::vector<Circuit> circuits{
        prepareExact(states::random({3, 4, 2}, rng)).circuit,
        prepareExact(states::wState({2, 3, 2, 3})).circuit,
        randomAllKindCircuit({3, 2, 4}, 60, 5),
    };
    const auto compileAll = [&circuits](const std::shared_ptr<dd::DdNodeStore>& store) {
        std::vector<NodeRef> roots;
        for (const Circuit& circuit : circuits) {
            roots.push_back(MatrixDD::fromCircuit(circuit, kTol, store).root().node);
        }
        return roots;
    };

    const auto serial = std::make_shared<dd::DdNodeStore>(kTol);
    (void)compileAll(serial);
    const auto shared = std::make_shared<dd::DdNodeStore>(kTol);
    std::vector<std::vector<NodeRef>> roots(kThreads);
    parallel::runOnThreads(kThreads,
                           [&](unsigned thread) { roots[thread] = compileAll(shared); });

    for (unsigned thread = 1; thread < kThreads; ++thread) {
        EXPECT_EQ(roots[thread], roots[0]) << "thread " << thread;
    }
    EXPECT_EQ(shared->size(), serial->size());
    EXPECT_EQ(shared->uniqueTable().stats().misses, serial->uniqueTable().stats().misses);
    EXPECT_EQ(shared->uniqueTable().size(), serial->size() - 1); // the terminal is no key
}

// --- chunked pool ----------------------------------------------------------

TEST(ConcurrentNodePool, RacingAppendsKeepStableAddressesAndDistinctSlots) {
    // Appends race across block-creation boundaries (64, 128, 256, ...);
    // every append must land in its own slot and remain readable at a
    // stable address while later blocks are created.
    constexpr unsigned kThreads = 6;
    constexpr std::uint32_t kPerThread = 500;

    dd::detail::ChunkedNodePool<DDNode> pool;
    std::vector<std::vector<std::uint32_t>> indices(kThreads);
    parallel::runOnThreads(kThreads, [&](unsigned thread) {
        indices[thread].reserve(kPerThread);
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
            const std::uint32_t index =
                pool.append(DDNode{thread * kPerThread + i, {}});
            indices[thread].push_back(index);
            // Read-back through the public accessor: the slot just written
            // is visible to its writer at a stable address.
            ASSERT_EQ(pool.at(index).site, thread * kPerThread + i);
        }
    });

    EXPECT_EQ(pool.size(), static_cast<std::size_t>(kThreads) * kPerThread);
    std::vector<bool> seen(pool.size(), false);
    for (unsigned thread = 0; thread < kThreads; ++thread) {
        for (const std::uint32_t index : indices[thread]) {
            ASSERT_FALSE(seen[index]) << "slot " << index << " handed out twice";
            seen[index] = true;
        }
    }
}

// --- striped compute cache -------------------------------------------------

TEST(ConcurrentComputeCache, PublishAndReadRacesNeverTearAnEntry) {
    // Writers publish entries whose fields are arithmetically linked
    // (value == (node, -node)); readers race on the same keys. A torn read
    // would surface as a hit whose fields disagree — the striped locks and
    // whole-entry copies must make that impossible.
    constexpr unsigned kWriters = 3;
    constexpr unsigned kReaders = 4;
    constexpr NodeRef kKeys = 512;
    constexpr int kRounds = 40;

    dd::ComputeCache cache(kTol, /*slots=*/256); // fewer slots than keys: evictions race
    parallel::runOnThreads(kWriters + kReaders, [&](unsigned thread) {
        if (thread < kWriters) {
            for (int round = 0; round < kRounds; ++round) {
                for (NodeRef k = 0; k < kKeys; ++k) {
                    const auto v = static_cast<double>(k);
                    cache.store(dd::ComputeCache::Op::Add, k, k + 1, Complex{1.0, 0.0},
                                dd::ComputeCache::Result{k, Complex{v, -v}});
                }
            }
            return;
        }
        for (int round = 0; round < kRounds; ++round) {
            for (NodeRef k = 0; k < kKeys; ++k) {
                const auto hit =
                    cache.lookup(dd::ComputeCache::Op::Add, k, k + 1, Complex{1.0, 0.0});
                if (!hit.has_value()) {
                    continue; // evicted or not yet published: a miss, never garbage
                }
                const auto v = static_cast<double>(hit->node);
                ASSERT_EQ(hit->node, k);
                ASSERT_EQ(hit->value.real(), v);
                ASSERT_EQ(hit->value.imag(), -v);
            }
        }
    });

    const dd::ComputeCacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kReaders) * kRounds * kKeys);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(ConcurrentComputeCache, NeighbouringSlotsKeepEveryLastWrite) {
    // Neighbouring slots share validity state. Threads storing into
    // neighbouring slots must never lose one another's writes: once they
    // join, every key's last store is found.
    constexpr std::size_t kSlots = 4096;
    constexpr unsigned kThreads = 4;
    constexpr int kRounds = 6;
    const Complex ratio{1.0, 0.0};
    const auto add = dd::ComputeCache::Op::Add;

    // Keys in pairwise distinct slots: after storing every candidate into
    // one cache, the keys still found are the last writers of their slots.
    std::vector<NodeRef> keys;
    {
        dd::ComputeCache probe(kTol, kSlots);
        constexpr NodeRef kCandidates = 2 * kSlots;
        for (NodeRef k = 0; k < kCandidates; ++k) {
            probe.store(add, k, k + 1, ratio, dd::ComputeCache::Result{k, Complex{}});
        }
        for (NodeRef k = 0; k < kCandidates; ++k) {
            if (probe.lookup(add, k, k + 1, ratio).has_value()) {
                keys.push_back(k);
            }
        }
    }
    ASSERT_GT(keys.size(), kSlots / 2);

    dd::ComputeCache cache(kTol, kSlots);
    parallel::runOnThreads(kThreads, [&](unsigned thread) {
        for (int round = 0; round < kRounds; ++round) {
            for (std::size_t i = thread; i < keys.size(); i += kThreads) {
                const NodeRef k = keys[i];
                cache.store(add, k, k + 1, ratio,
                            dd::ComputeCache::Result{k, Complex{static_cast<double>(round), 0.0}});
            }
        }
    });
    for (const NodeRef k : keys) {
        const auto hit = cache.lookup(add, k, k + 1, ratio);
        ASSERT_TRUE(hit.has_value()) << "key " << k;
        EXPECT_EQ(hit->node, k);
        EXPECT_EQ(hit->value.real(), static_cast<double>(kRounds - 1));
    }
}

TEST(ConcurrentComputeCache, LazyAllocationRaceInitializesOnce) {
    // First store() allocates the entry array; concurrent first-stores and
    // lookups race on that initialization (double-checked allocated_ flag).
    constexpr unsigned kThreads = 8;
    dd::ComputeCache cache(kTol, /*slots=*/64);
    parallel::runOnThreads(kThreads, [&](unsigned thread) {
        const NodeRef k = thread;
        cache.store(dd::ComputeCache::Op::InnerProduct, k, k, Complex{},
                    dd::ComputeCache::Result{kNoNode, Complex{1.0, 0.0}});
        const auto hit = cache.lookup(dd::ComputeCache::Op::InnerProduct, k, k, Complex{});
        // Distinct keys may collide in 64 slots, but this thread's own
        // store is the newest write to its slot only if nobody evicted it;
        // either way the lookup must return a coherent entry or miss.
        if (hit.has_value()) {
            ASSERT_EQ(hit->value.imag(), 0.0);
        }
    });
    EXPECT_EQ(cache.stats().lookups, kThreads);
}

} // namespace
} // namespace mqsp
