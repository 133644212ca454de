// Randomized cross-validation: decision-diagram evaluation (dd/evaluate.cpp)
// against the dense state-vector simulator on random mixed-radix states,
// seeded and repeatable — the safety net under DD-native verification
// (ROADMAP). Three layers:
//
//  1. representation: a diagram built from a random dense state must
//     reproduce every amplitude (amplitudeOf / toStateVector) to 1e-10;
//  2. simulation: DD-native replay of the synthesized preparation circuit
//     (DdBackend::runFromZero, gate by gate on the backend's session) must
//     agree with the dense simulator (Simulator::runFromZero)
//     amplitude-by-amplitude to 1e-10;
//  3. backends: the pluggable DenseBackend and DdBackend (sim/backend.hpp)
//     must agree on preparation fidelity and circuit equivalence to 1e-10
//     on randomized registers — the parity contract that makes the dd
//     backend a drop-in verification substrate — and the dd backend alone
//     must verify structured states on a register too large for dense
//     allocation.

#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace mqsp {
namespace {

constexpr double kTol = 1e-10;
constexpr std::uint64_t kSuiteSeed = 0xc405'5a11'dADEULL;
constexpr int kStatesPerRegister = 3;

std::vector<Dimensions> crossValidationRegisters() {
    return {
        {3, 6, 2},
        {9, 5, 6, 3},
        {2, 2, 2, 2, 2},
        {4, 3, 2, 5},
        {7, 2, 3},
    };
}

TEST(CrossValidation, DiagramReproducesEveryRandomAmplitude) {
    Rng seeder(kSuiteSeed);
    for (const auto& dims : crossValidationRegisters()) {
        for (int draw = 0; draw < kStatesPerRegister; ++draw) {
            Rng rng(seeder.childSeed());
            const StateVector state = states::random(dims, rng);
            const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);

            EXPECT_NEAR(dd.normSquared(), 1.0, kTol);
            EXPECT_NEAR(dd.fidelityWith(state), 1.0, kTol);

            const StateVector roundTrip = dd.toStateVector();
            ASSERT_EQ(roundTrip.size(), state.size());
            for (std::uint64_t i = 0; i < state.size(); ++i) {
                const Digits digits = state.radix().digitsOf(i);
                const Complex viaPath = dd.amplitudeOf(digits);
                EXPECT_NEAR(viaPath.real(), state[i].real(), kTol)
                    << formatDimensionSpec(dims) << " draw " << draw << " index " << i;
                EXPECT_NEAR(viaPath.imag(), state[i].imag(), kTol);
                EXPECT_NEAR(roundTrip[i].real(), state[i].real(), kTol);
                EXPECT_NEAR(roundTrip[i].imag(), state[i].imag(), kTol);
            }
        }
    }
}

TEST(CrossValidation, DdSimulationMatchesDenseSimulatorOnRandomStates) {
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    Rng seeder(kSuiteSeed);
    for (const auto& dims : crossValidationRegisters()) {
        for (int draw = 0; draw < kStatesPerRegister; ++draw) {
            Rng rng(seeder.childSeed());
            const StateVector target = states::random(dims, rng);
            const auto prep = prepareExact(target, lean);

            const StateVector dense = Simulator::runFromZero(prep.circuit);
            const DecisionDiagram simulated =
                DdBackend().runFromZero(prep.circuit).diagram();

            for (std::uint64_t i = 0; i < dense.size(); ++i) {
                const Complex viaDd = simulated.amplitudeOf(dense.radix().digitsOf(i));
                EXPECT_NEAR(viaDd.real(), dense[i].real(), kTol)
                    << formatDimensionSpec(dims) << " draw " << draw << " index " << i;
                EXPECT_NEAR(viaDd.imag(), dense[i].imag(), kTol);
            }
            // And both must hit the synthesis target itself.
            EXPECT_NEAR(dense.fidelityWith(target), 1.0, 1e-9);
            EXPECT_NEAR(simulated.fidelityWith(target), 1.0, 1e-9);
        }
    }
}

TEST(CrossValidation, InnerProductAgreesWithDenseOverlap) {
    Rng seeder(kSuiteSeed);
    for (const auto& dims : crossValidationRegisters()) {
        Rng rngA(seeder.childSeed());
        Rng rngB(seeder.childSeed());
        const StateVector a = states::random(dims, rngA);
        const StateVector b = states::random(dims, rngB);
        const DecisionDiagram ddA = DecisionDiagram::fromStateVector(a);
        const DecisionDiagram ddB = DecisionDiagram::fromStateVector(b);

        Complex denseOverlap{0.0, 0.0};
        for (std::uint64_t i = 0; i < a.size(); ++i) {
            denseOverlap += std::conj(a[i]) * b[i];
        }
        const Complex ddOverlap = ddA.innerProductWith(ddB);
        EXPECT_NEAR(ddOverlap.real(), denseOverlap.real(), kTol)
            << formatDimensionSpec(dims);
        EXPECT_NEAR(ddOverlap.imag(), denseOverlap.imag(), kTol);
    }
}

// --- backend-parity suite --------------------------------------------------

TEST(BackendParity, FidelityAgreesToTenDigitsOnRandomRegisters) {
    const DenseBackend dense;
    const DdBackend dd;
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    Rng seeder(kSuiteSeed);
    for (const auto& dims : crossValidationRegisters()) {
        for (int draw = 0; draw < kStatesPerRegister; ++draw) {
            Rng rng(seeder.childSeed());
            const StateVector target = states::random(dims, rng);
            const auto prep = prepareExact(target, lean);
            const EvalState targetState(target);

            const double viaDense = dense.preparationFidelity(prep.circuit, targetState);
            const double viaDd = dd.preparationFidelity(prep.circuit, targetState);
            EXPECT_NEAR(viaDense, viaDd, kTol)
                << formatDimensionSpec(dims) << " draw " << draw;
            EXPECT_NEAR(viaDense, 1.0, 1e-9);
            EXPECT_NEAR(viaDd, 1.0, 1e-9);
        }
    }
}

TEST(BackendParity, ApproximatedFidelityAgreesBelowOne) {
    // A deliberately approximated circuit: both backends must report the
    // *same* sub-unit fidelity, not merely agree at 1.
    const DenseBackend dense;
    const DdBackend dd;
    Rng rng(kSuiteSeed);
    const Dimensions dims{4, 3, 2, 5};
    const StateVector target = states::random(dims, rng);
    const auto prep = prepareApproximated(target, 0.98);
    ASSERT_LT(prep.approx.fidelity, 1.0);

    const EvalState targetState(target);
    const double viaDense = dense.preparationFidelity(prep.circuit, targetState);
    const double viaDd = dd.preparationFidelity(prep.circuit, targetState);
    EXPECT_NEAR(viaDense, viaDd, kTol);
    EXPECT_NEAR(viaDense, prep.approx.fidelity, 1e-6);
}

TEST(BackendParity, EquivalenceVerdictsAgreeOnRandomRegisters) {
    const DenseBackend dense;
    const DdBackend dd;
    SynthesisOptions faithful;
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    Rng seeder(kSuiteSeed);
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{4, 3, 2}, Dimensions{7, 2, 3}}) {
        Rng rng(seeder.childSeed());
        const StateVector target = states::random(dims, rng);
        const auto full = prepareExact(target, faithful);
        const auto elided = prepareExact(target, lean);

        // Identity elision preserves the unitary: both backends say yes.
        EXPECT_TRUE(dense.circuitsEquivalent(full.circuit, elided.circuit, 1e-8));
        EXPECT_TRUE(dd.circuitsEquivalent(full.circuit, elided.circuit, 1e-8));

        // A deliberately broken copy: both backends say no.
        Circuit broken = elided.circuit;
        broken.append(Operation::givens(0, 0, 1, 0.7, 0.3, {}));
        EXPECT_FALSE(dense.circuitsEquivalent(full.circuit, broken, 1e-8));
        EXPECT_FALSE(dd.circuitsEquivalent(full.circuit, broken, 1e-8));
    }
}

TEST(BackendParity, StructuredDiagramBuildersMatchDenseGenerators) {
    for (const auto& dims : crossValidationRegisters()) {
        const std::vector<std::pair<DecisionDiagram, StateVector>> pairs = [&] {
            std::vector<std::pair<DecisionDiagram, StateVector>> list;
            list.emplace_back(DecisionDiagram::ghzState(dims), states::ghz(dims));
            list.emplace_back(DecisionDiagram::wState(dims), states::wState(dims));
            list.emplace_back(DecisionDiagram::embeddedWState(dims),
                              states::embeddedWState(dims));
            list.emplace_back(DecisionDiagram::uniformState(dims), states::uniform(dims));
            const Digits zeros(dims.size(), 0);
            list.emplace_back(DecisionDiagram::cyclicState(dims, zeros, 4),
                              states::cyclic(dims, zeros, 4));
            list.emplace_back(DecisionDiagram::dickeState(dims, 2),
                              states::dicke(dims, 2));
            return list;
        }();
        for (const auto& [diagram, state] : pairs) {
            EXPECT_TRUE(diagram.checkInvariants().empty()) << diagram.checkInvariants();
            EXPECT_NEAR(diagram.normSquared(), 1.0, kTol);
            for (std::uint64_t i = 0; i < state.size(); ++i) {
                const Digits digits = state.radix().digitsOf(i);
                const Complex amp = diagram.amplitudeOf(digits);
                EXPECT_NEAR(amp.real(), state[i].real(), kTol)
                    << formatDimensionSpec(dims) << " index " << i;
                EXPECT_NEAR(amp.imag(), state[i].imag(), kTol);
            }
        }
    }
}

TEST(BackendParity, CyclicAndDickeAgreeAcrossBackendsOnMixedRadixRegisters) {
    // Dense-vs-dd parity at 1e-10 for the two DD-native DAG families: the
    // synthesized circuit replays to the same fidelity on both substrates,
    // and the DD-native diagrams match the dense generators' states.
    const DenseBackend dense;
    const DdBackend dd;
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}}) {
        const Digits zeros(dims.size(), 0);
        const std::vector<StateVector> targets = {
            states::cyclic(dims, zeros, 6),
            states::dicke(dims, 2),
        };
        for (const auto& target : targets) {
            const auto prep = prepareExact(target, lean);
            const EvalState targetState(target);
            const double viaDense = dense.preparationFidelity(prep.circuit, targetState);
            const double viaDd = dd.preparationFidelity(prep.circuit, targetState);
            EXPECT_NEAR(viaDense, viaDd, kTol) << formatDimensionSpec(dims);
            EXPECT_NEAR(viaDense, 1.0, 1e-9);
        }
    }
}

TEST(BackendParity, CyclicAndDickeApproximatedFidelityAgreesBelowOne) {
    // The sub-unit case: an approximated cyclic/dicke preparation (pruned
    // through the dense tree pipeline — the DAG builders refuse --approx)
    // must report the *same* sub-unit fidelity on both backends.
    const DenseBackend dense;
    const DdBackend dd;
    const Dimensions dims{9, 5, 6, 3};

    // A mixed cyclic/dicke superposition prunes non-trivially (the pure
    // families are already equal-amplitude, so pruning is all-or-nothing).
    StateVector target = states::dicke(dims, 3);
    const StateVector blend = states::cyclic(dims, Digits(dims.size(), 0), 6);
    for (std::uint64_t i = 0; i < target.size(); ++i) {
        target[i] = target[i] + Complex{0.35, 0.0} * blend[i];
    }
    target.normalize();

    const auto prep = prepareApproximated(target, 0.9);
    ASSERT_LT(prep.approx.fidelity, 1.0);
    const EvalState targetState(target);
    const double viaDense = dense.preparationFidelity(prep.circuit, targetState);
    const double viaDd = dd.preparationFidelity(prep.circuit, targetState);
    EXPECT_NEAR(viaDense, viaDd, kTol);
    EXPECT_NEAR(viaDense, prep.approx.fidelity, 1e-6);
}

TEST(BackendParity, CyclicAndDickeVerifyPastTheDenseCeilingDdOnly) {
    // 2^27 ≈ 1.34e8 amplitudes: the dense backend refuses the register,
    // the dd backend builds, synthesizes, replays and verifies both new
    // families without ever materializing an amplitude vector.
    const Dimensions dims(27, 2);
    ASSERT_GE(MixedRadix(dims).totalDimension(), std::uint64_t{100'000'000});
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;

    const DenseBackend dense;
    const DdBackend dd;
    const std::vector<DecisionDiagram> targets = [&] {
        std::vector<DecisionDiagram> list;
        list.push_back(DecisionDiagram::dickeState(dims, 2, dd.ddSession().get()));
        list.push_back(DecisionDiagram::cyclicState(dims, Digits(27, 0), 2, dd.ddSession().get()));
        return list;
    }();
    for (const auto& target : targets) {
        const Circuit circuit = synthesize(target, lean);
        EXPECT_THROW((void)dense.runFromZero(circuit), InvalidArgumentError);
        const double fidelity = dd.preparationFidelity(circuit, EvalState(target));
        EXPECT_NEAR(fidelity, 1.0, 1e-10);
    }
    // The whole chain ran on the backend's session store.
    const auto stats = dd.ddSession()->stats();
    EXPECT_GT(stats.unique.hits, 0U);
    EXPECT_GT(stats.poolNodes, 0U);
}

TEST(BackendParity, DdBackendVerifiesPastTheDenseCeiling) {
    // 2^27 ≈ 1.34e8 amplitudes: the dense backend refuses the register
    // outright, the dd backend prepares and verifies it in milliseconds.
    const Dimensions dims(27, 2);
    ASSERT_GE(MixedRadix(dims).totalDimension(), std::uint64_t{100'000'000});

    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const DecisionDiagram target = DecisionDiagram::ghzState(dims);
    const Circuit circuit = synthesize(target, lean);

    const DenseBackend dense;
    EXPECT_THROW((void)dense.runFromZero(circuit), InvalidArgumentError);
    EXPECT_THROW((void)dense.preparationFidelity(circuit, EvalState(target)),
                 InvalidArgumentError);

    const DdBackend dd;
    const double fidelity = dd.preparationFidelity(circuit, EvalState(target));
    EXPECT_NEAR(fidelity, 1.0, 1e-9);

    // The whole chain never allocates O(∏dims): spot-check amplitudes too.
    const EvalState out = dd.runFromZero(circuit);
    const double amp = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(out.amplitudeOf(Digits(27, 0)).real(), amp, 1e-9);
    EXPECT_NEAR(out.amplitudeOf(Digits(27, 1)).real(), amp, 1e-9);
    EXPECT_NEAR(out.amplitudeOf([&] {
                       Digits d(27, 1);
                       d.back() = 0;
                       return d;
                   }()).real(),
                0.0, 1e-12);
}

TEST(BackendParity, UniformReplayStaysPolynomialPastTheCeiling) {
    // The uniform superposition is the adversarial case for DD replay: its
    // intermediate states are product superpositions, which without session
    // interning (every rebuilt node hash-consed as it is allocated) and the
    // memoized rebuild in applyOperation would blow up to the full
    // exponential tree. This must finish in well under a second on 2^27
    // amplitudes.
    const Dimensions dims(27, 2);
    const DecisionDiagram target = DecisionDiagram::uniformState(dims);
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const Circuit circuit = synthesize(target, lean);
    const double fidelity = DdBackend().preparationFidelity(circuit, EvalState(target));
    EXPECT_NEAR(fidelity, 1.0, 1e-9);
}

TEST(CrossValidation, RerunWithTheSameSeedIsBitwiseRepeatable) {
    const Dimensions dims{3, 4, 2};
    Rng first(kSuiteSeed);
    Rng second(kSuiteSeed);
    const StateVector a = states::random(dims, first);
    const StateVector b = states::random(dims, second);
    for (std::uint64_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].real(), b[i].real());
        EXPECT_EQ(a[i].imag(), b[i].imag());
    }
}

} // namespace
} // namespace mqsp
