// Heap traffic of DD gate application. A gate kernel allocates only the
// nodes it keeps: a replay whose every node the session has interned
// before makes no allocation at all inside applyOperation, for every gate
// kind, whether its additions hit the compute cache or recompute into
// table hits.

#include "common/random_circuit.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

// Counting replacement of the global allocation functions (this suite is its
// own executable, so the replacement stays local to it). Every sized,
// unsized and array form funnels through these two; only allocations made
// by the current thread are counted. They stay out of line: once inlined,
// GCC sees free() applied to a pointer from operator new and reports a
// mismatched pair (-Wmismatched-new-delete).
namespace {
thread_local std::size_t gAllocations = 0;
} // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
    ++gAllocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mqsp {
namespace {

/// Allocations made inside applyOperation while replaying `circuit` from
/// |0...0> on `session`.
std::size_t allocationsInsideApply(const dd::DdSession& session, const Circuit& circuit) {
    DecisionDiagram state = DecisionDiagram::zeroState(circuit.dimensions(), &session);
    std::size_t allocations = 0;
    for (const Operation& op : circuit.operations()) {
        const std::size_t before = gAllocations;
        state.applyOperation(op);
        allocations += gAllocations - before;
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
    const std::size_t before = gAllocations;
    state.applyOperation(op);
    return gAllocations - before;
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

TEST(ApplyAllocations, CounterIsLive) {
    const std::size_t before = gAllocations;
    ::operator delete(::operator new(64));
    EXPECT_EQ(gAllocations - before, 1U);
}

} // namespace
} // namespace mqsp
