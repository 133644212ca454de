#include "mqsp/circuit/circuit.hpp"

#include "mqsp/support/error.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace mqsp {
namespace {

TEST(Circuit, StartsEmpty) {
    const Circuit circuit({3, 2}, "test");
    EXPECT_TRUE(circuit.empty());
    EXPECT_EQ(circuit.numOperations(), 0U);
    EXPECT_EQ(circuit.name(), "test");
    EXPECT_EQ(circuit.numQudits(), 2U);
}

TEST(Circuit, AppendValidatesTarget) {
    Circuit circuit({3, 2});
    EXPECT_THROW(circuit.append(Operation::givens(2, 0, 1, 0.5, 0.0)), InvalidArgumentError);
}

TEST(Circuit, AppendValidatesLevels) {
    Circuit circuit({3, 2});
    // Level 2 is fine on the qutrit (site 0) but not on the qubit (site 1).
    EXPECT_NO_THROW(circuit.append(Operation::givens(0, 0, 2, 0.5, 0.0)));
    EXPECT_THROW(circuit.append(Operation::givens(1, 0, 2, 0.5, 0.0)), InvalidArgumentError);
}

TEST(Circuit, AppendValidatesControls) {
    Circuit circuit({3, 2});
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{5, 0}})),
                 InvalidArgumentError);
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{0, 1}})),
                 InvalidArgumentError); // control on the target
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{1, 2}})),
                 InvalidArgumentError); // control level beyond qubit
    EXPECT_NO_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{1, 1}})));
}

TEST(Circuit, AppendRejectsDuplicateControlQudits) {
    Circuit circuit({3, 3, 3});
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{1, 0}, {1, 2}})),
                 InvalidArgumentError);
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{1, 1}, {1, 1}})),
                 InvalidArgumentError);
    EXPECT_NO_THROW(
        circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0, {{1, 1}, {2, 1}})));
}

TEST(Circuit, AppendValidatesShiftAmount) {
    Circuit circuit({3});
    EXPECT_THROW(circuit.append(Operation::shift(0, 3)), InvalidArgumentError);
    EXPECT_NO_THROW(circuit.append(Operation::shift(0, 2)));
}

TEST(Circuit, AppendRejectsNonFiniteAngles) {
    Circuit circuit({3, 2});
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double largest = std::numeric_limits<double>::max();
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, nan, 0.0)), InvalidArgumentError);
    EXPECT_THROW(circuit.append(Operation::givens(0, 0, 1, 0.5, inf, {{1, 1}})),
                 InvalidArgumentError);
    EXPECT_THROW(circuit.append(Operation::phase(1, 0, 1, -inf)), InvalidArgumentError);
    EXPECT_TRUE(circuit.empty());
    EXPECT_NO_THROW(circuit.append(Operation::phase(1, 0, 1, largest)));
}

TEST(Circuit, OperationsKeepApplicationOrder) {
    Circuit circuit({2, 2});
    circuit.append(Operation::givens(0, 0, 1, 0.1, 0.0));
    circuit.append(Operation::givens(1, 0, 1, 0.2, 0.0));
    EXPECT_EQ(circuit[0].theta, 0.1);
    EXPECT_EQ(circuit[1].theta, 0.2);
    EXPECT_THROW((void)circuit[2], InvalidArgumentError);
}

TEST(Circuit, AppendCircuitRequiresSameRegister) {
    Circuit a({2, 2});
    Circuit b({2, 2});
    b.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    a.append(b);
    EXPECT_EQ(a.numOperations(), 1U);
    const Circuit c({3, 2});
    EXPECT_THROW(a.append(c), InvalidArgumentError);
}

TEST(Circuit, InvertedReversesAndNegates) {
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.3));
    circuit.append(Operation::phase(0, 0, 2, 0.7));
    const Circuit inv = circuit.inverted();
    EXPECT_EQ(inv.numOperations(), 2U);
    EXPECT_EQ(inv[0].kind, GateKind::PhaseRotation);
    EXPECT_DOUBLE_EQ(inv[0].theta, -0.7);
    EXPECT_EQ(inv[1].kind, GateKind::GivensRotation);
    EXPECT_DOUBLE_EQ(inv[1].theta, -0.5);
}

TEST(CircuitStats, CountsKindsAndControls) {
    Circuit circuit({3, 6, 2});
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));                 // 0 controls
    circuit.append(Operation::givens(1, 0, 1, 0.5, 0.0, {{0, 1}}));       // 1 control
    circuit.append(Operation::phase(2, 0, 1, 0.5, {{0, 1}, {1, 2}}));     // 2 controls
    circuit.append(Operation::hadamard(0));
    const CircuitStats stats = circuit.stats();
    EXPECT_EQ(stats.numOperations, 4U);
    EXPECT_EQ(stats.numRotations, 2U);
    EXPECT_EQ(stats.numPhases, 1U);
    EXPECT_EQ(stats.numOther, 1U);
    EXPECT_EQ(stats.numControlledOps, 2U);
    EXPECT_EQ(stats.totalControls, 3U);
    EXPECT_EQ(stats.maxControls, 2U);
    EXPECT_DOUBLE_EQ(stats.medianControls, 0.5); // counts {0,1,2,0} -> median 0.5
}

TEST(CircuitStats, MedianOddCount) {
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    circuit.append(Operation::givens(1, 0, 1, 0.5, 0.0, {{0, 1}}));
    circuit.append(Operation::givens(2, 0, 1, 0.5, 0.0, {{0, 1}, {1, 1}}));
    EXPECT_DOUBLE_EQ(circuit.stats().medianControls, 1.0);
}

TEST(CircuitStats, DepthAccountsForSiteOverlap) {
    Circuit circuit({2, 2, 2});
    // Two ops on disjoint sites can run in parallel -> depth 1.
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    circuit.append(Operation::givens(1, 0, 1, 0.5, 0.0));
    EXPECT_EQ(circuit.stats().depthEstimate, 1U);
    // A controlled op on both sites serializes -> depth 2.
    circuit.append(Operation::givens(1, 0, 1, 0.5, 0.0, {{0, 1}}));
    EXPECT_EQ(circuit.stats().depthEstimate, 2U);
}

TEST(Circuit, RemoveIdentityOperations) {
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.0, 0.3)); // identity
    circuit.append(Operation::givens(0, 0, 1, 0.4, 0.3));
    circuit.append(Operation::phase(0, 0, 1, 0.0)); // identity
    EXPECT_EQ(circuit.removeIdentityOperations(), 2U);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_DOUBLE_EQ(circuit[0].theta, 0.4);
}

TEST(CircuitStats, EmptyCircuit) {
    const Circuit circuit({2});
    const CircuitStats stats = circuit.stats();
    EXPECT_EQ(stats.numOperations, 0U);
    EXPECT_DOUBLE_EQ(stats.medianControls, 0.0);
    EXPECT_EQ(stats.depthEstimate, 0U);
}

} // namespace
} // namespace mqsp
