// Heap traffic of DD gate application. A gate kernel allocates only the
// nodes it keeps: a replay whose every node the session has interned
// before makes no allocation at all inside applyOperation, for every gate
// kind, whether its additions hit the compute cache or recompute into
// table hits.

#include "common/counting_new.hpp"
#include "common/random_circuit.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cstddef>

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

TEST(ApplyAllocations, CounterIsLive) {
    const std::size_t before = counting_new::allocations;
    ::operator delete(::operator new(64));
    EXPECT_EQ(counting_new::allocations - before, 1U);
}

} // namespace
} // namespace mqsp
