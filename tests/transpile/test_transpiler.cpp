#include "mqsp/transpile/transpiler.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mqsp {
namespace {

/// Check that the lowered circuit acts like the original on EVERY basis
/// state of the original register (ancillas in and out at |0>). This is a
/// full process check, not just one state.
void expectEquivalent(const Circuit& original, const TranspileResult& lowered,
                      double tol = 1e-9) {
    const MixedRadix radix = original.radix();
    const MixedRadix extended = lowered.circuit.radix();
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        // Original register basis state...
        StateVector input(original.dimensions());
        input[0] = Complex{0.0, 0.0};
        input[index] = Complex{1.0, 0.0};
        const StateVector want = Simulator::run(original, input);

        // ... embedded with ancillas at |0> (ancillas are least significant,
        // so the embedded flat index is index * 2^numAncillas).
        StateVector extendedInput(lowered.circuit.dimensions());
        extendedInput[0] = Complex{0.0, 0.0};
        std::uint64_t scale = 1;
        for (std::size_t a = 0; a < lowered.numAncillas; ++a) {
            scale *= 2;
        }
        extendedInput[index * scale] = Complex{1.0, 0.0};
        const StateVector got = Simulator::run(lowered.circuit, extendedInput);

        // Every amplitude must match with ancillas back at |0>.
        for (std::uint64_t out = 0; out < extended.totalDimension(); ++out) {
            const Complex expected =
                (out % scale == 0) ? want[out / scale] : Complex{0.0, 0.0};
            EXPECT_NEAR(std::abs(got[out] - expected), 0.0, tol)
                << "input " << index << " output " << out;
        }
    }
}

TEST(Transpiler, PassesThroughUncontrolledOps) {
    Circuit circuit({3, 2});
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::givens(1, 0, 1, 0.7, 0.2, {{0, 2}}));
    const auto result = transpileToTwoQudit(circuit);
    EXPECT_EQ(result.numAncillas, 0U);
    EXPECT_EQ(result.circuit.numOperations(), 2U);
    expectEquivalent(circuit, result);
}

TEST(Transpiler, DoublyControlledRotationOnQubits) {
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(2, 0, 1, 1.234, 0.4, {{0, 1}, {1, 1}}));
    const auto result = transpileToTwoQudit(circuit);
    EXPECT_EQ(result.numAncillas, 0U);
    for (const auto& op : result.circuit.operations()) {
        EXPECT_LE(op.numControls(), 1U);
    }
    expectEquivalent(circuit, result);
}

TEST(Transpiler, DoublyControlledRotationOnMixedDims) {
    // The critical case the plain Barenco identity gets wrong: a control
    // qudit with a *third* level. The block construction must cancel the
    // stray rotations on every non-matching level.
    Circuit circuit({4, 3, 2});
    circuit.append(Operation::givens(2, 0, 1, 0.913, -0.7, {{0, 2}, {1, 1}}));
    const auto result = transpileToTwoQudit(circuit);
    expectEquivalent(circuit, result);
}

TEST(Transpiler, DoublyControlledPhaseRotation) {
    Circuit circuit({3, 3, 3});
    circuit.append(Operation::phase(2, 0, 2, 0.81, {{0, 1}, {1, 2}}));
    const auto result = transpileToTwoQudit(circuit);
    expectEquivalent(circuit, result);
}

TEST(Transpiler, TriplyControlledUsesOneAncilla) {
    Circuit circuit({2, 3, 2, 2});
    circuit.append(Operation::givens(3, 0, 1, 2.1, 0.9, {{0, 1}, {1, 2}, {2, 1}}));
    const auto result = transpileToTwoQudit(circuit);
    EXPECT_EQ(result.numAncillas, 1U);
    for (const auto& op : result.circuit.operations()) {
        EXPECT_LE(op.numControls(), 1U);
    }
    expectEquivalent(circuit, result);
}

TEST(Transpiler, QuadruplyControlledUsesTwoAncillas) {
    Circuit circuit({2, 2, 2, 2, 2});
    circuit.append(
        Operation::givens(4, 0, 1, 1.5, -0.3, {{0, 1}, {1, 1}, {2, 1}, {3, 1}}));
    const auto result = transpileToTwoQudit(circuit);
    EXPECT_EQ(result.numAncillas, 2U);
    expectEquivalent(circuit, result);
}

TEST(Transpiler, RejectsMultiControlledHadamard) {
    Circuit circuit({3, 3, 3});
    circuit.append(Operation::hadamard(2, {{0, 1}, {1, 1}}));
    EXPECT_THROW((void)transpileToTwoQudit(circuit), InvalidArgumentError);
}

TEST(Transpiler, SequenceOfMultiControlledOps) {
    Circuit circuit({3, 2, 2});
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::givens(1, 0, 1, 0.8, 0.1, {{0, 1}}));
    circuit.append(Operation::givens(2, 0, 1, 1.1, -0.5, {{0, 2}, {1, 1}}));
    circuit.append(Operation::phase(2, 0, 1, 0.4, {{0, 0}, {1, 0}}));
    const auto result = transpileToTwoQudit(circuit);
    expectEquivalent(circuit, result);
}

TEST(Transpiler, EstimateMatchesEmittedCountForTwoControls) {
    Circuit circuit({4, 3, 2});
    circuit.append(Operation::givens(2, 0, 1, 0.9, 0.0, {{0, 2}, {1, 1}}));
    const auto result = transpileToTwoQudit(circuit);
    EXPECT_EQ(estimateTwoQuditCost(circuit), result.circuit.numOperations());
}

TEST(Transpiler, EstimateMatchesEmittedCountForChains) {
    Circuit circuit({2, 3, 2, 2});
    circuit.append(Operation::givens(3, 0, 1, 2.1, 0.9, {{0, 1}, {1, 2}, {2, 1}}));
    const auto result = transpileToTwoQudit(circuit);
    EXPECT_EQ(estimateTwoQuditCost(circuit), result.circuit.numOperations());
}

TEST(Transpiler, EstimateGrowsLinearlyInControlCount) {
    // The paper cites [36] for linear-complexity transpilation; the ancilla
    // chain adds a constant-size AND block per extra control.
    std::vector<std::size_t> costs;
    for (std::size_t k = 2; k <= 6; ++k) {
        Dimensions dims(k + 1, Dimension{2});
        Circuit circuit(dims);
        std::vector<Control> controls;
        for (std::size_t c = 0; c < k; ++c) {
            controls.push_back({c, 1});
        }
        circuit.append(Operation::givens(k, 0, 1, 1.0, 0.0, controls));
        costs.push_back(estimateTwoQuditCost(circuit));
    }
    for (std::size_t i = 1; i < costs.size(); ++i) {
        EXPECT_EQ(costs[i] - costs[i - 1], costs[1] - costs[0])
            << "non-linear growth at k=" << i + 2;
    }
}

TEST(Transpiler, EndToEndSynthesizedGhzCircuit) {
    const StateVector target = states::ghz({3, 3});
    const auto prep = prepareExact(target);
    const auto lowered = transpileToTwoQudit(prep.circuit);
    // Run the lowered circuit from zero: the original-register state must be
    // the GHZ state with ancillas (if any) back at zero.
    const StateVector out = Simulator::runFromZero(lowered.circuit);
    std::uint64_t scale = 1;
    for (std::size_t a = 0; a < lowered.numAncillas; ++a) {
        scale *= 2;
    }
    Complex overlap{0.0, 0.0};
    for (std::uint64_t i = 0; i < target.size(); ++i) {
        overlap += std::conj(target[i]) * out[i * scale];
    }
    EXPECT_NEAR(std::abs(overlap), 1.0, 1e-9);
}

TEST(Transpiler, EndToEndRandomStateWithDeepControls) {
    Rng rng(31);
    const StateVector target = states::random({2, 3, 2}, rng);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);
    const auto lowered = transpileToTwoQudit(prep.circuit);
    const StateVector out = Simulator::runFromZero(lowered.circuit);
    std::uint64_t scale = 1;
    for (std::size_t a = 0; a < lowered.numAncillas; ++a) {
        scale *= 2;
    }
    Complex overlap{0.0, 0.0};
    for (std::uint64_t i = 0; i < target.size(); ++i) {
        overlap += std::conj(target[i]) * out[i * scale];
    }
    EXPECT_NEAR(std::abs(overlap), 1.0, 1e-8);
}

TEST(Transpiler, FewerControlsMeansFewerTwoQuditOps) {
    // The §4.3 claim: control elision (tensor reduction) translates into
    // cheaper transpiled circuits.
    const StateVector target = states::uniform({3, 3, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    SynthesisOptions with;
    with.elideTensorProductControls = true;
    SynthesisOptions without;
    without.elideTensorProductControls = false;
    const std::size_t cheap = estimateTwoQuditCost(synthesize(dd, with));
    const std::size_t costly = estimateTwoQuditCost(synthesize(dd, without));
    EXPECT_LT(cheap, costly);
}

} // namespace
} // namespace mqsp
