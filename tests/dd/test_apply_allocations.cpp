// Heap traffic of DD gate application and of the session memory under it.
// A gate kernel allocates only the nodes it keeps: a replay whose every
// node the session has interned before makes no allocation at all inside
// applyOperation, for every gate kind, whether its additions hit the
// compute cache or recompute into table hits. A fresh node costs no
// allocation of its own: its edges go into a block its store owns, and
// the blocks of a session that has died are taken again, on the same
// thread, by the next one.

#include "common/counting_new.hpp"
#include "common/random_circuit.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace mqsp {
namespace {

/// Allocations made inside applyOperation while replaying `circuit` from
/// |0...0> on `session`.
std::size_t allocationsInsideApply(const dd::DdSession& session, const Circuit& circuit) {
    DecisionDiagram state = DecisionDiagram::zeroState(circuit.dimensions(), &session);
    std::size_t allocations = 0;
    for (const Operation& op : circuit.operations()) {
        const std::size_t before = counting_new::allocations;
        state.applyOperation(op);
        allocations += counting_new::allocations - before;
    }
    return allocations;
}

TEST(ApplyAllocations, ReplayingAnInternedCircuitAllocatesNothing) {
    Rng rng(11);
    const Circuit preparation = prepareExact(states::random({3, 6, 2, 4}, rng)).circuit;
    const Circuit random = randomAllKindCircuit({3, 4, 2, 5}, 200, 17);
    for (const Circuit* circuit : {&preparation, &random}) {
        const dd::DdSession session;
        EXPECT_GT(allocationsInsideApply(session, *circuit), 0U); // the first replay interns
        EXPECT_EQ(allocationsInsideApply(session, *circuit), 0U);
    }
}

/// Allocations made inside applyOperation while applying `op` to a copy of
/// `input`.
std::size_t allocationsOfGate(const DecisionDiagram& input, const Operation& op) {
    DecisionDiagram state = input;
    const std::size_t before = counting_new::allocations;
    state.applyOperation(op);
    return counting_new::allocations - before;
}

TEST(ApplyAllocations, ALargeGateMemoIsReleasedAfterASmallGate) {
    // A shift on the last of 15 qubits visits every node of a random state
    // (about 32,000), which grows the thread's visit memo past the size it
    // keeps. The memo stays while the gates stay large and is released
    // after a small gate, so the next large gate allocates it again.
    Rng rng(5);
    const dd::DdSession session;
    const DecisionDiagram large =
        session.intern(DecisionDiagram::fromStateVector(states::random(Dimensions(15, 2), rng)));
    const DecisionDiagram small = DecisionDiagram::zeroState({2, 2}, &session);
    const Operation wide = Operation::shift(14, 1);
    const Operation narrow = Operation::shift(1, 1);
    EXPECT_GT(allocationsOfGate(large, wide), 0U); // interns the result
    EXPECT_EQ(allocationsOfGate(large, wide), 0U);
    allocationsOfGate(small, narrow); // the next gate releases the memo
    EXPECT_GT(allocationsOfGate(large, wide), 0U); // regrows the released memo
    EXPECT_EQ(allocationsOfGate(large, wide), 0U);
}

/// `operator new` calls made while interning `nodes` distinct arity-3 keys
/// into a fresh session, on a thread of its own (so no block retired by
/// an earlier test is taken again).
std::size_t allocationsToIntern(std::size_t nodes) {
    std::size_t allocations = 0;
    parallel::runOnThreads(1, [&](unsigned) {
        const dd::DdSession session;
        dd::DdNodeStore& store = *session.store();
        std::vector<DDEdge> edges(3);
        const std::size_t before = counting_new::allocations;
        for (std::size_t k = 0; k < nodes; ++k) {
            for (std::size_t e = 0; e < edges.size(); ++e) {
                edges[e] = DDEdge{0, Complex{static_cast<double>(3 * k + e + 1), 0.0}};
            }
            (void)store.allocate(0, edges);
        }
        allocations = counting_new::allocations - before;
        ASSERT_EQ(store.size(), nodes + 1);
    });
    return allocations;
}

TEST(ApplyAllocations, InterningAllocatesPerBlockNotPerNode) {
    // 6,000 more fresh nodes cost only the growth of the table's arrays,
    // of the node pool and of the edge blocks (16 shards, each filling
    // 16 KB blocks): about 140 more calls, where one edge vector per node
    // cost 6,000.
    const std::size_t small = allocationsToIntern(2000);
    const std::size_t large = allocationsToIntern(8000);
    EXPECT_LE(large - small, 200U) << "small " << small << ", large " << large;
}

TEST(ApplyAllocations, ASecondSessionReusesTheFirstSessionsBlocks) {
    // Edge blocks, node-pool blocks and the compute-cache array of a
    // session that has died are taken from the thread's spare list by the
    // next session, which replays the same circuit without asking the
    // allocator for a block.
    Rng rng(3);
    const Circuit circuit = prepareExact(states::random({3, 6, 2, 4}, rng)).circuit;
    parallel::runOnThreads(1, [&](unsigned) {
        const auto replay = [&circuit] {
            const dd::DdSession session;
            DecisionDiagram state = DecisionDiagram::zeroState(circuit.dimensions(), &session);
            for (const Operation& op : circuit.operations()) {
                state.applyOperation(op);
            }
            return session.stats().poolNodes;
        };
        const dd::detail::SpareBlockStats first = dd::detail::spareBlockStats();
        const std::uint64_t nodes = replay();
        const dd::detail::SpareBlockStats between = dd::detail::spareBlockStats();
        EXPECT_GT(between.allocated, first.allocated); // the first session's blocks
        EXPECT_GT(between.heldBytes, 0U);
        EXPECT_EQ(replay(), nodes);
        const dd::detail::SpareBlockStats after = dd::detail::spareBlockStats();
        EXPECT_EQ(after.allocated, between.allocated);
        EXPECT_GT(after.reused, between.reused);
        EXPECT_EQ(after.heldBytes, between.heldBytes);
    });
}

TEST(ApplyAllocations, OnlyTheTakingThreadKeepsABlock) {
    // A block retired on another thread than the one that took it goes
    // back to the allocator: that thread would never take it again.
    parallel::runOnThreads(1, [&](unsigned) {
        constexpr std::size_t kBlock = 4096;
        void* mine = dd::detail::takeBlock(kBlock);
        void* theirs = nullptr;
        parallel::runOnThreads(1, [&](unsigned) { theirs = dd::detail::takeBlock(kBlock); });
        dd::detail::retireBlock(theirs, kBlock);
        EXPECT_EQ(dd::detail::spareBlockStats().heldBytes, 0U);
        dd::detail::retireBlock(mine, kBlock);
        EXPECT_EQ(dd::detail::spareBlockStats().heldBytes, kBlock);
    });
}

TEST(ApplyAllocations, SpareListStaysUnderItsCap) {
    // Blocks past the cap go back to the allocator.
    parallel::runOnThreads(1, [&](unsigned) {
        constexpr std::size_t kBlock = std::size_t{1} << 20U;
        std::vector<void*> blocks;
        for (std::size_t i = 0; i < dd::detail::kSpareBlockCapBytes / kBlock + 4; ++i) {
            blocks.push_back(dd::detail::takeBlock(kBlock));
        }
        for (void* block : blocks) {
            dd::detail::retireBlock(block, kBlock);
        }
        EXPECT_EQ(dd::detail::spareBlockStats().heldBytes, dd::detail::kSpareBlockCapBytes);
    });
}

#if defined(__SANITIZE_ADDRESS__)
#define MQSP_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MQSP_TEST_ASAN 1
#endif
#endif
#if defined(MQSP_TEST_ASAN)
TEST(ApplyAllocationsDeathTest, AStaleSpanIntoARetiredBlockFaults) {
    // A retired edge block waits on the spare list poisoned, so reading a
    // dead store's edges through a kept span is reported, not served from
    // recycled memory.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto readStale = [] {
        const DDEdge* stale = nullptr;
        {
            dd::DdNodeStore store(dd::DdNodeStore::Mode::Private);
            const std::vector<DDEdge> edges(3, DDEdge{0, Complex{0.5, 0.0}});
            stale = store.node(store.allocate(0, edges)).edges.data();
        }
        const volatile NodeRef child = stale->node;
        (void)child;
    };
    EXPECT_DEATH(readStale(), "use-after-poison");
}
#endif

TEST(ApplyAllocations, CounterIsLive) {
    const std::size_t before = counting_new::allocations;
    ::operator delete(::operator new(64));
    EXPECT_EQ(counting_new::allocations - before, 1U);
}

} // namespace
} // namespace mqsp
