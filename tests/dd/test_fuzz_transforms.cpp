// Property suite for the decision-diagram transform surface, whose one
// pruning transform is the approximation pass. Each seed draws registers
// from the divisors of 24 (so radices mix while the cyclic lcm stays at
// most 24), builds random, W, uniform, cyclic, Dicke and Dicke+cyclic
// states on the fresh store deserialize parses onto, the one
// fromStateVector makes and a session, and prunes each at a threshold
// drawn from [0.7, 1]. The pass must keep its
// fidelity guarantee and report it exactly, leave its input untouched,
// build on a store of its own, keep every shared sub-diagram whole, and
// hand the input back unchanged at threshold 1.

#include "mqsp/approx/approximation.hpp"
#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace mqsp {
namespace {

constexpr std::array<Dimension, 6> kRadices{2, 3, 4, 6, 8, 12};

enum class Kind { Random, W, Uniform, Cyclic, Dicke, DickeCyclic };
enum class Store { Parsed, Fresh, Session };

/// Two to four qudits, at most 576 amplitudes (small under sanitizers).
Dimensions drawRegister(Rng& rng) {
    for (;;) {
        Dimensions dims(2 + rng.uniformIndex(3));
        for (Dimension& dim : dims) {
            dim = kRadices[rng.uniformIndex(kRadices.size())];
        }
        if (MixedRadix(dims).totalDimension() <= 576) {
            return dims;
        }
    }
}

StateVector denseState(Kind kind, const Dimensions& dims, Rng& rng) {
    const Digits zeros(dims.size(), 0);
    switch (kind) {
    case Kind::Random:
        return states::random(dims, rng);
    case Kind::W:
        return states::wState(dims);
    case Kind::Uniform:
        return states::uniform(dims);
    case Kind::Cyclic:
        return states::cyclic(dims, zeros, states::distinctCyclicShifts(dims));
    case Kind::Dicke:
        return states::dicke(dims, 2);
    case Kind::DickeCyclic: {
        StateVector blend = states::dicke(dims, 2);
        const StateVector cyclic = states::cyclic(dims, zeros, states::distinctCyclicShifts(dims));
        for (std::uint64_t i = 0; i < blend.size(); ++i) {
            blend[i] += cyclic[i];
        }
        blend.normalize();
        return blend;
    }
    }
    return StateVector(dims);
}

/// The state's diagram on the requested store: the fresh one deserialize
/// parses onto, the fresh one fromStateVector splits onto, or the session's.
DecisionDiagram build(Store store, const StateVector& state, const dd::DdSession& session) {
    switch (store) {
    case Store::Parsed: {
        std::stringstream text;
        DecisionDiagram::fromStateVector(state).serialize(text);
        return DecisionDiagram::deserialize(text);
    }
    case Store::Fresh:
        return DecisionDiagram::fromStateVector(state);
    case Store::Session:
        return DecisionDiagram::fromStateVector(state, Tolerance::kDefault, &session);
    }
    return {};
}

std::string serialized(const DecisionDiagram& diagram) {
    std::ostringstream text;
    diagram.serialize(text);
    return text.str();
}

/// Below every node the input reaches along several paths, the output
/// keeps the input's amplitudes up to one factor per path: each such path's
/// block of the output is zero or parallel to the input's block.
void expectSharedBlocksSurvive(const DecisionDiagram& input, const DecisionDiagram& output) {
    std::vector<NodeRef> nodes = input.reachableNodes();
    std::stable_sort(nodes.begin(), nodes.end(), [&input](NodeRef a, NodeRef b) {
        return input.node(a).site < input.node(b).site;
    });
    std::unordered_map<NodeRef, std::uint64_t> paths{{input.rootNode(), 1}};
    for (const NodeRef ref : nodes) {
        for (const DDEdge& edge : input.node(ref).edges) {
            if (!edge.isZeroStub() && !input.node(edge.node).isTerminal()) {
                paths[edge.node] += paths[ref];
            }
        }
    }
    const StateVector in = input.toStateVector();
    const StateVector out = output.toStateVector();
    const MixedRadix& radix = input.radix();
    Digits prefix;
    const auto walk = [&](const auto& self, NodeRef ref) -> void {
        if (paths[ref] < 2) {
            const DDNode& node = input.node(ref);
            for (Level k = 0; k < node.edges.size(); ++k) {
                const DDEdge& edge = node.edges[k];
                if (!edge.isZeroStub() && !input.node(edge.node).isTerminal()) {
                    prefix.push_back(k);
                    self(self, edge.node);
                    prefix.pop_back();
                }
            }
            return;
        }
        Digits first = prefix;
        first.resize(radix.numQudits(), 0);
        const std::uint64_t start = radix.indexOf(first);
        const std::uint64_t length =
            prefix.empty() ? radix.totalDimension() : radix.strideAt(prefix.size() - 1);
        Complex inner{0.0, 0.0};
        double inMass = 0.0;
        double outMass = 0.0;
        for (std::uint64_t j = start; j < start + length; ++j) {
            inner += std::conj(in[j]) * out[j];
            inMass += squaredMagnitude(in[j]);
            outMass += squaredMagnitude(out[j]);
        }
        if (outMass > 0.0) {
            EXPECT_NEAR(squaredMagnitude(inner), inMass * outMass, 1e-9 * inMass * outMass)
                << "shared node " << ref << " below a prefix of " << prefix.size() << " digits";
        }
    };
    walk(walk, input.rootNode());
}

class DDTransformFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DDTransformFuzz, RandomTransformSequencesKeepInvariants) {
    Rng rng(GetParam());
    for (const Kind kind : {Kind::Random, Kind::W, Kind::Uniform, Kind::Cyclic, Kind::Dicke,
                            Kind::DickeCyclic}) {
        for (const Store store : {Store::Parsed, Store::Fresh, Store::Session}) {
            const Dimensions dims = drawRegister(rng);
            const StateVector state = denseState(kind, dims, rng);
            const double threshold = rng.uniform(0.7, 1.0);
            const dd::DdSession session;
            const DecisionDiagram input = build(store, state, session);
            const std::string before = serialized(input);
            const std::string where = "seed " + std::to_string(GetParam()) + " kind " +
                                      std::to_string(static_cast<int>(kind)) + " store " +
                                      std::to_string(static_cast<int>(store)) + " dims " +
                                      formatDimensionSpec(dims) + " threshold " +
                                      std::to_string(threshold);

            DecisionDiagram pruned = input;
            const ApproximationReport report =
                approximate(pruned, ApproximationOptions{threshold, Tolerance::kDefault});
            const double fidelity = pruned.fidelityWith(state);
            EXPECT_GE(fidelity + 1e-10, threshold) << where;
            EXPECT_NEAR(report.fidelity, fidelity, 1e-9) << where;
            EXPECT_EQ(pruned.checkInvariants(), "") << where;
            EXPECT_EQ(serialized(input), before) << where;
            if (report.removedLeafEdges + report.removedInternalNodes > 0) {
                EXPECT_FALSE(pruned.sharesStoreWith(input)) << where;
                EXPECT_FALSE(session.owns(pruned)) << where;
                EXPECT_EQ(pruned.poolSize(), pruned.nodeCount(NodeCountMode::Internal) + 1)
                    << where;
            } else {
                EXPECT_TRUE(pruned.sharesStoreWith(input)) << where;
                EXPECT_EQ(pruned.rootNode(), input.rootNode()) << where;
            }
            expectSharedBlocksSurvive(input, pruned);

            DecisionDiagram exact = input;
            const ApproximationReport none =
                approximate(exact, ApproximationOptions{1.0, Tolerance::kDefault});
            EXPECT_DOUBLE_EQ(none.removedMass, 0.0) << where;
            EXPECT_TRUE(exact.sharesStoreWith(input)) << where;
            EXPECT_EQ(exact.rootNode(), input.rootNode()) << where;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDTransformFuzz,
                         ::testing::Values(101U, 102U, 103U, 104U, 105U, 106U, 107U,
                                           108U, 109U, 110U));

} // namespace
} // namespace mqsp
