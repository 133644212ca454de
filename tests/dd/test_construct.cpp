#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/family.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace mqsp {
namespace {

TEST(DDConstruct, BasisStateYieldsSinglePath) {
    const StateVector state = StateVector::basis({3, 2}, {2, 1});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.checkInvariants(), "");
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 2U);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({2, 1})), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({0, 0})), 0.0, 1e-12);
}

TEST(DDConstruct, RootWeightIsVectorNorm) {
    // Construction is defined for unnormalized vectors too: the norm lands
    // in the root weight.
    const StateVector state({2}, {{3.0, 0.0}, {4.0, 0.0}});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_NEAR(dd.rootWeight().real(), 5.0, 1e-12);
    EXPECT_NEAR(dd.rootWeight().imag(), 0.0, 1e-12);
    EXPECT_NEAR(dd.amplitudeOf({0}).real(), 3.0, 1e-12);
}

TEST(DDConstruct, ZeroVectorGivesEmptyDiagram) {
    const StateVector state({2, 2}, std::vector<Complex>(4, Complex{0.0, 0.0}));
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.rootNode(), kNoNode);
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 0U);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({1, 1})), 0.0, 1e-12);
}

TEST(DDConstruct, UpperWeightsAreRealNonNegative) {
    // The fixed normalization scheme pushes phases into the terminal edges;
    // every weight above the lowest level is a real non-negative norm.
    Rng rng;
    const StateVector state = states::random({3, 4, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    ASSERT_NE(dd.rootNode(), kNoNode);
    // Walk all internal nodes except the lowest level.
    std::vector<NodeRef> stack{dd.rootNode()};
    while (!stack.empty()) {
        const NodeRef ref = stack.back();
        stack.pop_back();
        const DDNode& n = dd.node(ref);
        if (n.isTerminal() || n.site + 1 == dd.numQudits()) {
            continue;
        }
        for (const auto& edge : n.edges) {
            if (edge.isZeroStub()) {
                continue;
            }
            EXPECT_NEAR(edge.weight.imag(), 0.0, 1e-12);
            EXPECT_GE(edge.weight.real(), 0.0);
            stack.push_back(edge.node);
        }
    }
}

TEST(DDConstruct, NormalizationInvariantHolds) {
    Rng rng(4);
    const StateVector state = states::random({3, 6, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.checkInvariants(), "");
    EXPECT_NEAR(std::abs(dd.rootWeight()), 1.0, 1e-12);
}

TEST(DDConstruct, ZeroSubtreesBecomeStubs) {
    const StateVector state = states::ghz({3, 3});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // GHZ on two qutrits: the root has three nonzero edges, each child has
    // exactly one nonzero edge (the matching level).
    const DDNode& root = dd.node(dd.rootNode());
    ASSERT_EQ(root.edges.size(), 3U);
    for (std::size_t k = 0; k < 3; ++k) {
        ASSERT_FALSE(root.edges[k].isZeroStub());
        const DDNode& child = dd.node(root.edges[k].node);
        for (std::size_t m = 0; m < 3; ++m) {
            EXPECT_EQ(child.edges[m].isZeroStub(), m != k);
        }
    }
}

TEST(DDConstructDense, MaterializesTheFullTree) {
    const StateVector state = states::ghz({3, 6, 2});
    const DecisionDiagram dense = DecisionDiagram::fromStateVectorDense(state);
    // Every path of the dense tree over (3,6,2) is kept, zero sub-trees
    // included: 1 + 3 + 18 + 36 = 58 tree slots, regardless of the state's
    // sparsity (identical sub-trees share nodes, as on every store).
    EXPECT_EQ(dense.nodeCount(NodeCountMode::TreeSlots),
              DecisionDiagram::denseTreeNodeCount({3, 6, 2}));
    // The represented state is still exact.
    EXPECT_NEAR(dense.fidelityWith(state), 1.0, 1e-10);
    for (const auto& digits :
         {Digits{0, 0, 0}, Digits{1, 1, 1}, Digits{2, 5, 1}, Digits{0, 3, 0}}) {
        EXPECT_NEAR(std::abs(dense.amplitudeOf(digits) - state.at(digits)), 0.0, 1e-12);
    }
}

TEST(DDConstructDense, BaselineSynthesisCostsTheFullTree) {
    const StateVector state = states::ghz({3, 3, 3});
    const DecisionDiagram dense = DecisionDiagram::fromStateVectorDense(state);
    SynthesisOptions options;
    options.elideTensorProductControls = false;
    const Circuit baseline = synthesize(dense, options);
    // ops = sum of dims over all internal tree nodes = 3 + 9 + 27 = 39.
    EXPECT_EQ(baseline.numOperations(), 39U);
    EXPECT_NEAR(Simulator::preparationFidelity(baseline, state), 1.0, 1e-9);
    // The DD-aware circuit is much shorter but prepares the same state.
    const auto sparse = prepareExact(state);
    EXPECT_LT(sparse.circuit.numOperations(), baseline.numOperations());
}

class DDRoundTrip : public ::testing::TestWithParam<Dimensions> {};

TEST_P(DDRoundTrip, AmplitudesMatchForRandomStates) {
    Rng rng(17);
    const StateVector state = states::random(GetParam(), rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.checkInvariants(), "");

    const MixedRadix radix(GetParam());
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        const auto digits = radix.digitsOf(index);
        EXPECT_NEAR(std::abs(dd.amplitudeOf(digits) - state[index]), 0.0, 1e-10)
            << "index " << index;
    }
}

TEST_P(DDRoundTrip, ToStateVectorReconstructsExactly) {
    Rng rng(31);
    const StateVector state = states::random(GetParam(), rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const StateVector rebuilt = dd.toStateVector();
    for (std::uint64_t i = 0; i < state.size(); ++i) {
        EXPECT_NEAR(std::abs(rebuilt[i] - state[i]), 0.0, 1e-10);
    }
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
    EXPECT_NEAR(dd.normSquared(), 1.0, 1e-10);
}

TEST_P(DDRoundTrip, StructuredStatesRoundTrip) {
    for (const auto* name : {"ghz", "w", "embw", "uniform"}) {
        StateVector state({2});
        const std::string which = name;
        if (which == "ghz") {
            state = states::ghz(GetParam());
        } else if (which == "w") {
            state = states::wState(GetParam());
        } else if (which == "embw") {
            state = states::embeddedWState(GetParam());
        } else {
            state = states::uniform(GetParam());
        }
        const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
        EXPECT_EQ(dd.checkInvariants(), "") << which;
        EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10) << which;
    }
}

INSTANTIATE_TEST_SUITE_P(Registers, DDRoundTrip,
                         ::testing::Values(Dimensions{2, 2}, Dimensions{3, 6, 2},
                                           Dimensions{9, 5, 6, 3}, Dimensions{2, 3, 4},
                                           Dimensions{5, 2, 3, 2}));

std::string serialized(const DecisionDiagram& diagram) {
    std::ostringstream text;
    diagram.serialize(text);
    return text.str();
}

TEST(DDConstruct, NativeBuildersEqualTheSplitterBitForBit) {
    // Each native builder computes its weights in the splitter's order from
    // the dense amplitude states:: uses, so on a session it returns the
    // diagram fromStateVector returns on the family's dense vector — every
    // weight, root weight and pruned flag, byte for byte. Without a session
    // it returns the same diagram on a fresh store, and the text parses back
    // to the very same bytes.
    for (const Dimensions& dims :
         {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}, Dimensions{4, 7, 4, 4, 3, 5},
          Dimensions{2, 3, 4, 6}, Dimensions{2, 2, 2, 2, 2}}) {
        std::vector<states::FamilySpec> specs;
        for (const states::Family family :
             {states::Family::Ghz, states::Family::W, states::Family::EmbW,
              states::Family::Uniform, states::Family::Dicke, states::Family::Cyclic,
              states::Family::Random}) {
            specs.push_back(states::defaultSpec(family, dims));
        }
        states::FamilySpec heavy = states::defaultSpec(states::Family::Dicke, dims);
        heavy.weight = states::maxDickeWeight(dims) / 2;
        specs.push_back(heavy);
        states::FamilySpec fewShifts = states::defaultSpec(states::Family::Cyclic, dims);
        fewShifts.count = 5;
        specs.push_back(fewShifts);
        for (const states::FamilySpec& spec : specs) {
            const dd::DdSession native;
            const dd::DdSession split;
            const DecisionDiagram built = states::makeDiagram(spec, dims, &native);
            const DecisionDiagram fromDense = DecisionDiagram::fromStateVector(
                states::makeDenseState(spec, dims), Tolerance::kDefault, &split);
            const DecisionDiagram sessionless = states::makeDiagram(spec, dims, nullptr);
            const std::string expected = serialized(fromDense);
            EXPECT_EQ(serialized(built), expected)
                << formatDimensionSpec(dims) << " family " << static_cast<int>(spec.family)
                << " weight " << spec.weight << " count " << spec.count;
            EXPECT_EQ(serialized(sessionless), expected)
                << formatDimensionSpec(dims) << " family " << static_cast<int>(spec.family)
                << " weight " << spec.weight << " count " << spec.count << " (no session)";
            std::istringstream text(expected);
            EXPECT_EQ(serialized(DecisionDiagram::deserialize(text)), expected)
                << formatDimensionSpec(dims) << " family " << static_cast<int>(spec.family)
                << " weight " << spec.weight << " count " << spec.count << " (parsed)";
        }
    }
}

} // namespace
} // namespace mqsp
