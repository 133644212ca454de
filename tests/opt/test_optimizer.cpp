#include "mqsp/opt/optimizer.hpp"

#include "common/fnv1a.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"
#include "mqsp/transpile/transpiler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace mqsp {
namespace {

constexpr double kPi = std::numbers::pi;

/// Exhaustive process equivalence on every basis state of the register.
void expectSameProcess(const Circuit& a, const Circuit& b, double tol = 1e-9) {
    ASSERT_EQ(a.dimensions(), b.dimensions());
    const MixedRadix& radix = a.radix();
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        StateVector input(a.dimensions());
        input[0] = Complex{0.0, 0.0};
        input[index] = Complex{1.0, 0.0};
        const StateVector wantState = Simulator::run(a, input);
        const StateVector gotState = Simulator::run(b, input);
        for (std::uint64_t i = 0; i < wantState.size(); ++i) {
            EXPECT_NEAR(std::abs(gotState[i] - wantState[i]), 0.0, tol)
                << "input " << index << " amplitude " << i;
        }
    }
}

TEST(Optimizer, MergesAdjacentSameAxisRotations) {
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.4, 0.7));
    circuit.append(Operation::givens(0, 0, 1, 0.6, 0.7));
    const Circuit original = circuit;
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.mergedRotations, 1U);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_DOUBLE_EQ(circuit[0].theta, 1.0);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, CancelsOpFollowedByInverse) {
    Circuit circuit({4, 2});
    circuit.append(Operation::givens(0, 1, 3, 1.1, -0.2, {{1, 1}}));
    circuit.append(Operation::givens(0, 1, 3, -1.1, -0.2, {{1, 1}}));
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 0U);
    EXPECT_EQ(report.droppedIdentities, 1U);
}

TEST(Optimizer, MergesAcrossCommutingOps) {
    // The middle op acts on a disjoint site, so the outer rotations merge.
    Circuit circuit({3, 2});
    circuit.append(Operation::givens(0, 0, 1, 0.3, 0.0));
    circuit.append(Operation::givens(1, 0, 1, 0.9, 0.4));
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 2U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, DoesNotMergeAcrossBlockingOps) {
    // The middle op shares the target site: merging would be wrong.
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.3, 0.0));
    circuit.append(Operation::givens(0, 1, 2, 0.9, 0.4));
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 3U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, DoesNotMergeDifferentAxes) {
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.3, 0.0));
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.1)); // different phi
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 2U);
}

TEST(Optimizer, ControlOrderIsNotSemantic) {
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(2, 0, 1, 0.3, 0.0, {{0, 1}, {1, 0}}));
    circuit.append(Operation::givens(2, 0, 1, 0.4, 0.0, {{1, 0}, {0, 1}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 1U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, MergesFullControlFanIntoUncontrolledOp) {
    // The same rotation fired for every level of the control equals the
    // uncontrolled rotation.
    Circuit circuit({3, 2});
    for (Level k = 0; k < 3; ++k) {
        circuit.append(Operation::givens(1, 0, 1, 0.8, 0.2, {{0, k}}));
    }
    const Circuit original = circuit;
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.mergedControlFans, 2U);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_TRUE(circuit[0].controls.empty());
    expectSameProcess(original, circuit);
}

TEST(Optimizer, PartialFanIsLeftAlone) {
    Circuit circuit({3, 2});
    circuit.append(Operation::givens(1, 0, 1, 0.8, 0.2, {{0, 0}}));
    circuit.append(Operation::givens(1, 0, 1, 0.8, 0.2, {{0, 2}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 2U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, FanMergePeelsOneControlOfMany) {
    // Fan over q1's two levels with a shared control on q0: the q1 control
    // disappears, the q0 control stays.
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(2, 0, 1, 1.2, 0.0, {{0, 1}, {1, 0}}));
    circuit.append(Operation::givens(2, 0, 1, 1.2, 0.0, {{0, 1}, {1, 1}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    ASSERT_EQ(circuit.numOperations(), 1U);
    EXPECT_EQ(circuit[0].controls, (std::vector<Control>{{0, 1}}));
    expectSameProcess(original, circuit);
}

TEST(Optimizer, FanPlusRotationMergeComposes) {
    // After the fan merge the op can further merge with a neighbouring
    // uncontrolled rotation on the same axis.
    Circuit circuit({2, 3});
    circuit.append(Operation::givens(1, 0, 2, 0.3, 0.1));
    circuit.append(Operation::givens(1, 0, 2, 0.5, 0.1, {{0, 0}}));
    circuit.append(Operation::givens(1, 0, 2, 0.5, 0.1, {{0, 1}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_DOUBLE_EQ(circuit[0].theta, 0.8);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, ShortensFaithfulSynthesisOutput) {
    // Paper-faithful circuits carry identity ops; the optimizer must strip
    // them without touching semantics (same effect as the elision mode).
    const StateVector target = states::ghz({3, 6, 2});
    auto prep = prepareExact(target);
    const std::size_t before = prep.circuit.numOperations();
    const auto report = optimizeCircuit(prep.circuit);
    EXPECT_LT(prep.circuit.numOperations(), before);
    EXPECT_GT(report.droppedIdentities, 0U);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-9);
}

TEST(Optimizer, ReportsRoundsAndCounts) {
    Circuit circuit({2});
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    circuit.append(Operation::givens(0, 0, 1, -0.5, 0.0));
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.opsBefore, 2U);
    EXPECT_EQ(report.opsAfter, 0U);
    EXPECT_GE(report.rounds, 1U);
}

/// The fuzz generator: `count` rotations on [3,2,4] with angles from a
/// small discrete set (to provoke merges and cancellations), half of them
/// carrying one control.
Circuit discreteAngleCircuit(std::uint64_t seed, int count) {
    Rng rng(seed);
    const Dimensions dims{3, 2, 4};
    const MixedRadix radix(dims);
    Circuit circuit(dims);
    for (int i = 0; i < count; ++i) {
        const auto target = static_cast<std::size_t>(rng.uniformIndex(3));
        const Dimension dim = radix.dimensionAt(target);
        auto a = static_cast<Level>(rng.uniformIndex(dim));
        auto b = static_cast<Level>(rng.uniformIndex(dim));
        if (a == b) {
            b = (b + 1) % dim;
        }
        std::vector<Control> controls;
        if (rng.uniform01() < 0.5) {
            std::size_t ctrl = (target + 1 + rng.uniformIndex(2)) % 3;
            controls.push_back(
                {ctrl, static_cast<Level>(rng.uniformIndex(radix.dimensionAt(ctrl)))});
        }
        const double angles[] = {0.0, kPi / 4, -kPi / 4, kPi / 2};
        const double phis[] = {0.0, kPi / 2};
        if (rng.uniform01() < 0.7) {
            circuit.append(Operation::givens(target, std::min(a, b), std::max(a, b),
                                             angles[rng.uniformIndex(4)],
                                             phis[rng.uniformIndex(2)], controls));
        } else {
            circuit.append(Operation::phase(target, std::min(a, b), std::max(a, b),
                                            angles[rng.uniformIndex(4)], controls));
        }
    }
    return circuit;
}

class OptimizerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerFuzz, RandomCircuitsKeepTheirSemantics) {
    const Circuit circuit = discreteAngleCircuit(GetParam(), 60);
    Circuit optimized = circuit;
    const auto report = optimizeCircuit(optimized);
    EXPECT_LE(report.opsAfter, report.opsBefore);
    expectSameProcess(circuit, optimized, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzz,
                         ::testing::Values(1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U, 9U, 10U));

// Output identity: the optimizer's exact result on four inputs, pinned as
// the whole report plus a digest of every op field. Any change to a pass
// must leave these constants alone unless it means to change the output.

/// FNV-1a over every field of every op: angles by bit pattern, controls in
/// order.
std::uint64_t opDigest(const Circuit& circuit) {
    Fnv1a hash;
    hash.add(std::uint64_t{circuit.numOperations()});
    for (const auto& op : circuit.operations()) {
        hash.add(static_cast<std::uint64_t>(op.kind));
        hash.add(std::uint64_t{op.target});
        hash.add(std::uint64_t{op.levelA});
        hash.add(std::uint64_t{op.levelB});
        hash.add(op.theta);
        hash.add(op.phi);
        hash.add(std::uint64_t{op.shiftAmount});
        hash.add(std::uint64_t{op.controls.size()});
        for (const auto& ctrl : op.controls) {
            hash.add(std::uint64_t{ctrl.qudit});
            hash.add(std::uint64_t{ctrl.level});
        }
    }
    return hash.value();
}

/// opsBefore, opsAfter, mergedRotations, droppedIdentities,
/// mergedControlFans, rounds.
using ReportFields = std::array<std::size_t, 6>;

ReportFields fieldsOf(const OptimizerReport& report) {
    return {report.opsBefore,         report.opsAfter,          report.mergedRotations,
            report.droppedIdentities, report.mergedControlFans, report.rounds};
}

struct Pinned {
    ReportFields report;
    std::uint64_t digest;
};

void expectPinned(Circuit circuit, const Pinned& want) {
    const OptimizerReport report = optimizeCircuit(circuit);
    EXPECT_EQ(fieldsOf(report), want.report);
    EXPECT_EQ(opDigest(circuit), want.digest);
}

TEST(OptimizerIdentity, FuzzSeeds) {
    const std::array<Pinned, 10> pinned{{
        {{60, 45, 1, 14, 0, 2}, 0x6fc1678608aaca5fULL},
        {{60, 47, 2, 11, 0, 1}, 0xf814193edf83dd0fULL},
        {{60, 33, 6, 21, 0, 1}, 0x79374cd371e43799ULL},
        {{60, 43, 1, 16, 0, 1}, 0x58a56e9b643e81d6ULL},
        {{60, 45, 1, 14, 0, 1}, 0x3f516b1bb2ef7c09ULL},
        {{60, 45, 2, 13, 0, 2}, 0xb62cb8be054fb0e5ULL},
        {{60, 40, 4, 16, 0, 2}, 0xb5a3264067f1ea66ULL},
        {{60, 40, 0, 20, 0, 1}, 0x0e079f9b5430c8baULL},
        {{60, 43, 1, 16, 0, 1}, 0x2e94bce537c3e47bULL},
        {{60, 48, 0, 12, 0, 1}, 0x0aec7c3cc7bfe5a7ULL},
    }};
    for (std::uint64_t seed = 1; seed <= pinned.size(); ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectPinned(discreteAngleCircuit(seed, 60), pinned[seed - 1]);
    }
}

TEST(OptimizerIdentity, LongDiscreteAngleCircuit) {
    expectPinned(discreteAngleCircuit(2024, 5000),
                 {{5000, 3584, 179, 1233, 4, 2}, 0x13f1a1d3367485a5ULL});
}

TEST(OptimizerIdentity, TranspiledRandomState) {
    Rng rng(7);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(states::random({3, 6, 2}, rng), lean);
    expectPinned(transpileToTwoQudit(prep.circuit).circuit,
                 {{953, 917, 36, 0, 0, 1}, 0xde581b36502351f0ULL});
}

TEST(OptimizerIdentity, FaithfulRandomPreparation) {
    Rng rng(7);
    const auto prep = prepareExact(states::random({9, 5, 6, 3}, rng));
    expectPinned(prep.circuit, {{1134, 1079, 0, 55, 0, 1}, 0x49c6328166829959ULL});
}

} // namespace
} // namespace mqsp
