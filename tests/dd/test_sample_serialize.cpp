#include "mqsp/approx/approximation.hpp"
#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <ios>
#include <sstream>
#include <string>

namespace mqsp {
namespace {

TEST(DDSample, BasisStateAlwaysReturnsItself) {
    const StateVector state = StateVector::basis({3, 6, 2}, {2, 4, 1});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(dd.sampleOutcome(rng), (Digits{2, 4, 1}));
    }
}

TEST(DDSample, RejectsZeroAndUnnormalizedDiagrams) {
    const StateVector zero({2, 2}, std::vector<Complex>(4, Complex{0.0, 0.0}));
    const DecisionDiagram empty = DecisionDiagram::fromStateVector(zero);
    Rng rng(2);
    EXPECT_THROW((void)empty.sampleOutcome(rng), InvalidArgumentError);

    const StateVector unnormalized({2}, {{2.0, 0.0}, {0.0, 0.0}});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(unnormalized);
    EXPECT_THROW((void)dd.sampleOutcome(rng), InvalidArgumentError);
}

TEST(DDSample, GhzOnlyYieldsDiagonalOutcomes) {
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(states::ghz({3, 3}));
    Rng rng(3);
    std::array<int, 3> counts{};
    for (int i = 0; i < 3000; ++i) {
        const Digits outcome = dd.sampleOutcome(rng);
        ASSERT_EQ(outcome[0], outcome[1]);
        ++counts[outcome[0]];
    }
    // Each branch has probability 1/3; a 3000-sample run stays within 5 sigma.
    for (const int count : counts) {
        EXPECT_NEAR(count, 1000, 5 * std::sqrt(3000.0 * (1.0 / 3) * (2.0 / 3)));
    }
}

TEST(DDSample, HistogramMatchesBornRule) {
    Rng stateRng(5);
    const StateVector state = states::random({3, 2}, stateRng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    Rng rng(7);
    constexpr std::uint64_t kShots = 40000;
    const auto histogram = dd.sampleHistogram(rng, kShots);
    for (std::uint64_t index = 0; index < state.size(); ++index) {
        const double p = squaredMagnitude(state[index]);
        const auto it = histogram.find(index);
        const double observed =
            (it == histogram.end() ? 0.0 : static_cast<double>(it->second)) / kShots;
        const double sigma = std::sqrt(p * (1.0 - p) / kShots);
        EXPECT_NEAR(observed, p, 6.0 * sigma + 1e-3) << "index " << index;
    }
}

TEST(DDSample, WorksOnReducedDiagrams) {
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(states::uniform({3, 4, 2}));
    ASSERT_EQ(dd.nodeCount(NodeCountMode::Internal), 3U); // one node per level
    Rng rng(11);
    const auto histogram = dd.sampleHistogram(rng, 2400);
    // All 24 outcomes should appear for a uniform state with 2400 shots.
    EXPECT_EQ(histogram.size(), 24U);
}

TEST(DDSerialize, RoundTripsRandomStates) {
    Rng rng(13);
    const StateVector state = states::random({3, 6, 2}, rng);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);

    std::stringstream stream;
    dd.serialize(stream);
    const DecisionDiagram parsed = DecisionDiagram::deserialize(stream);

    EXPECT_EQ(parsed.dimensions(), dd.dimensions());
    EXPECT_EQ(parsed.checkInvariants(), "");
    EXPECT_NEAR(parsed.fidelityWith(state), 1.0, 1e-12);
    // Exact amplitude agreement, not just fidelity.
    const MixedRadix radix(dd.dimensions());
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        const auto digits = radix.digitsOf(index);
        EXPECT_NEAR(std::abs(parsed.amplitudeOf(digits) - dd.amplitudeOf(digits)), 0.0,
                    1e-15);
    }
}

TEST(DDSerialize, RoundTripsReducedAndPrunedDiagrams) {
    Rng rng(17);
    const StateVector state = states::random({3, 4, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // Prune so the pruned flag participates in the round trip.
    const ApproximationReport report = approximate(dd);
    ASSERT_GT(report.removedLeafEdges + report.removedInternalNodes, 0U);

    std::stringstream stream;
    dd.serialize(stream);
    const std::string text = stream.str();
    const DecisionDiagram parsed = DecisionDiagram::deserialize(stream);
    EXPECT_EQ(parsed.nodeCount(NodeCountMode::Internal),
              dd.nodeCount(NodeCountMode::Internal));
    EXPECT_EQ(parsed.nodeCount(NodeCountMode::TreeSlots),
              dd.nodeCount(NodeCountMode::TreeSlots));
    EXPECT_NEAR(parsed.fidelityWith(dd.toStateVector()), 1.0, 1e-12);
    // Pruned flags and the rebuilt store's bits survive the trip byte for
    // byte.
    std::ostringstream again;
    parsed.serialize(again);
    EXPECT_EQ(again.str(), text);
}

TEST(DDSerialize, RoundTripsTheEmptyDiagram) {
    const StateVector zero({2, 3}, std::vector<Complex>(6, Complex{0.0, 0.0}));
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(zero);
    std::stringstream stream;
    dd.serialize(stream);
    const DecisionDiagram parsed = DecisionDiagram::deserialize(stream);
    EXPECT_EQ(parsed.rootNode(), kNoNode);
    EXPECT_EQ(parsed.dimensions(), (Dimensions{2, 3}));
}

/// Lines of `text` that start with `prefix`.
std::size_t linesStartingWith(const std::string& text, const std::string& prefix) {
    std::istringstream lines(text);
    std::size_t count = 0;
    for (std::string line; std::getline(lines, line);) {
        count += line.rfind(prefix, 0) == 0 ? 1 : 0;
    }
    return count;
}

TEST(DDSerialize, RoundTripsAFinerToleranceByteForByte) {
    // Two leaf pairs 2e-12 apart: distinct nodes at tolerance 1e-13, one
    // node at the default 1e-10. The text names its tolerance, so the parse
    // keeps them apart and writes the same bytes.
    const StateVector state({2, 2}, {Complex{0.5, 0.0}, Complex{0.5, 0.0},
                                     Complex{0.5 + 1e-12, 0.0}, Complex{0.5 - 1e-12, 0.0}});
    const DecisionDiagram fine = DecisionDiagram::fromStateVector(state, 1e-13);
    std::stringstream stream;
    fine.serialize(stream);
    const std::string text = stream.str();
    EXPECT_EQ(linesStartingWith(text, "node "), 3U);
    EXPECT_EQ(linesStartingWith(text, "tolerance "), 1U);
    EXPECT_NE(text.find("dims 2 2\ntolerance "), std::string::npos) << text;

    const DecisionDiagram parsed = DecisionDiagram::deserialize(stream);
    EXPECT_EQ(parsed.checkInvariants(), "");
    std::ostringstream again;
    parsed.serialize(again);
    EXPECT_EQ(again.str(), text);

    // The default tolerance writes no tolerance line.
    std::ostringstream coarse;
    DecisionDiagram::fromStateVector(state).serialize(coarse);
    EXPECT_EQ(linesStartingWith(coarse.str(), "tolerance"), 0U);
    EXPECT_EQ(linesStartingWith(coarse.str(), "node "), 2U);
}

TEST(DDSerialize, KeepsTheCallersStreamFormatting) {
    Rng rng(5);
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(states::random({3, 2}, rng));
    std::ostringstream plain;
    dd.serialize(plain);
    EXPECT_EQ(plain.precision(), 6);

    // A caller's fixed notation and precision neither leak into the text
    // nor get lost to it.
    std::ostringstream formatted;
    formatted << std::fixed << std::setprecision(3) << std::showpos;
    const std::ios_base::fmtflags flags = formatted.flags();
    dd.serialize(formatted);
    EXPECT_EQ(formatted.str(), plain.str());
    EXPECT_EQ(formatted.precision(), 3);
    EXPECT_EQ(formatted.flags(), flags);
}

TEST(DDSerialize, RejectsMalformedInput) {
    {
        std::stringstream stream("garbage\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError);
    }
    {
        std::stringstream stream("mqsp-dd v1\ndims 2 2\nroot 1 1 0\n");
        // Missing node table and end line.
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError);
    }
    {
        // Dangling node reference.
        std::stringstream stream(
            "mqsp-dd v1\ndims 2\nroot 1 1 0\nnode 1 0 2 9 1 0 0 - 0 0 0\nend\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError);
    }
    {
        // Edge count contradicting the dimension.
        std::stringstream stream(
            "mqsp-dd v1\ndims 3\nroot 1 1 0\nnode 1 0 2 0 1 0 0 - 0 0 0\nend\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError);
    }
    {
        // A node listed as its own child: a cycle, which would overflow the
        // stack of every recursive walk after the parse.
        std::stringstream stream(
            "mqsp-dd v1\ndims 2 2\nroot 1 1 0\nnode 1 0 2 1 1 0 0 - 0 0 0\nend\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError);
    }
    {
        // Non-numeric refs, on an edge and on the root.
        std::stringstream edge(
            "mqsp-dd v1\ndims 2\nroot 1 1 0\nnode 1 0 2 abc 1 0 0 - 0 0 0\nend\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(edge), InvalidArgumentError);
        std::stringstream root(
            "mqsp-dd v1\ndims 2\nroot zz 1 0\nnode 1 0 2 0 1 0 0 - 0 0 0\nend\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(root), InvalidArgumentError);
    }
    {
        // An edge ref past 32 bits, which narrowing would wrap to the
        // terminal one site early.
        std::stringstream stream("mqsp-dd v1\ndims 2 2\nroot 1 1 0\n"
                                 "node 1 0 2 4294967296 1 0 0 - 0 0 0\nend\n");
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError);
    }
    // Hostile headers and sizes, each refused before anything is sized by
    // them: a signed or junk-suffixed dimension (which operator>> wrapped
    // to 4294967293 or cut to 3), node lines declaring 50,000,000 and
    // 4,000,000,000 edges they do not hold, a pruned flag other than 0/1,
    // and an edge naming a later node line.
    for (const char* text : {
             "mqsp-dd v1\ndims 2 -3\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2 3x\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 50000000\nroot 1 1 0\nnode 1 0 50000000\nend\n",
             "mqsp-dd v1\ndims 4000000000\nroot 1 1 0\nnode 1 0 4000000000\nend\n",
             "mqsp-dd v1\ndims 2\nroot 1 1 0\nnode 1 0 2 0 1 0 2 - 0 0 0\nend\n",
             "mqsp-dd v1\ndims 2 2\nroot 1 1 0\nnode 1 0 2 2 1 0 0 - 0 0 0\n"
             "node 2 1 2 0 1 0 0 - 0 0 0\nend\n",
         }) {
        std::stringstream stream(text);
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError) << text;
    }
    // Hostile tolerance lines: a value that is not finite, whole and at
    // least 1e-15, a second tolerance line, and one before the dims line.
    for (const char* text : {
             "mqsp-dd v1\ndims 2\ntolerance 0\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2\ntolerance -1e-10\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2\ntolerance nan\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2\ntolerance inf\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2\ntolerance 1e-16\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2\ntolerance 1e-13x\nroot - 0 0\nend\n",
             "mqsp-dd v1\ndims 2\ntolerance 1e-13\ntolerance 1e-13\nroot - 0 0\nend\n",
             "mqsp-dd v1\ntolerance 1e-13\ndims 2\nroot - 0 0\nend\n",
         }) {
        std::stringstream stream(text);
        EXPECT_THROW((void)DecisionDiagram::deserialize(stream), InvalidArgumentError) << text;
    }
    // At 1e-300 the weight buckets overflow and the two leaf lines, 0.6/0.8
    // and 0.8/0.6, would intern as one node; at the finest accepted
    // tolerance they stay two.
    const auto leaves = [](const std::string& tolerance) {
        return "mqsp-dd v1\ndims 2 2\ntolerance " + tolerance +
               "\nroot 3 1 0\nnode 1 1 2 0 0.6 0 0 0 0.8 0 0\nnode 2 1 2 0 0.8 0 0 0 0.6 0 0\n"
               "node 3 0 2 1 0.6 0 0 2 0.8 0 0\nend\n";
    };
    std::stringstream overflowing(leaves("1e-300"));
    EXPECT_THROW((void)DecisionDiagram::deserialize(overflowing), InvalidArgumentError);
    std::stringstream finest(leaves("1e-15"));
    const DecisionDiagram parsed = DecisionDiagram::deserialize(finest);
    EXPECT_EQ(parsed.checkInvariants(), "");
    std::ostringstream again;
    parsed.serialize(again);
    EXPECT_EQ(linesStartingWith(again.str(), "node "), 3U) << again.str();
}

} // namespace
} // namespace mqsp
