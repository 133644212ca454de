#include "common/counting_new.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/mixed_radix.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace mqsp {
namespace {

TEST(MixedRadix, SingleQuditStrides) {
    const MixedRadix radix({5});
    EXPECT_EQ(radix.numQudits(), 1U);
    EXPECT_EQ(radix.totalDimension(), 5U);
    EXPECT_EQ(radix.strideAt(0), 1U);
}

TEST(MixedRadix, MixedStridesMostSignificantFirst) {
    const MixedRadix radix({3, 6, 2});
    EXPECT_EQ(radix.totalDimension(), 36U);
    EXPECT_EQ(radix.strideAt(0), 12U);
    EXPECT_EQ(radix.strideAt(1), 2U);
    EXPECT_EQ(radix.strideAt(2), 1U);
}

TEST(MixedRadix, IndexOfMatchesManualComputation) {
    const MixedRadix radix({3, 6, 2});
    EXPECT_EQ(radix.indexOf({0, 0, 0}), 0U);
    EXPECT_EQ(radix.indexOf({0, 0, 1}), 1U);
    EXPECT_EQ(radix.indexOf({0, 1, 0}), 2U);
    EXPECT_EQ(radix.indexOf({1, 0, 0}), 12U);
    EXPECT_EQ(radix.indexOf({2, 5, 1}), 35U);
}

TEST(MixedRadix, DigitsOfInvertsIndexOf) {
    const MixedRadix radix({4, 3, 5, 2});
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        const auto digits = radix.digitsOf(index);
        EXPECT_EQ(radix.indexOf(digits), index);
    }
}

TEST(MixedRadix, DigitAtAgreesWithDigitsOf) {
    const MixedRadix radix({2, 7, 3});
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        const auto digits = radix.digitsOf(index);
        for (std::size_t site = 0; site < radix.numQudits(); ++site) {
            EXPECT_EQ(radix.digitAt(index, site), digits[site]);
        }
    }
}

TEST(MixedRadix, IncrementWalksAllIndicesInOrder) {
    const MixedRadix radix({3, 2, 4});
    Digits digits(3, 0);
    std::uint64_t expected = 0;
    do {
        EXPECT_EQ(radix.indexOf(digits), expected);
        ++expected;
    } while (radix.increment(digits));
    EXPECT_EQ(expected, radix.totalDimension());
    EXPECT_EQ(digits, (Digits{0, 0, 0}));
}

TEST(MixedRadix, RejectsDimensionBelowTwo) {
    EXPECT_THROW(MixedRadix({3, 1, 2}), InvalidArgumentError);
    EXPECT_THROW(MixedRadix({0}), InvalidArgumentError);
}

TEST(MixedRadix, RejectsEmptyDimensionList) {
    EXPECT_THROW(MixedRadix(Dimensions{}), InvalidArgumentError);
}

TEST(MixedRadix, RejectsOutOfRangeDigits) {
    const MixedRadix radix({3, 2});
    EXPECT_THROW((void)radix.indexOf({3, 0}), InvalidArgumentError);
    EXPECT_THROW((void)radix.indexOf({0, 2}), InvalidArgumentError);
    EXPECT_THROW((void)radix.indexOf({0}), InvalidArgumentError);
    EXPECT_THROW((void)radix.digitsOf(6), InvalidArgumentError);
}

TEST(MixedRadix, UniformDetection) {
    EXPECT_TRUE(MixedRadix({2, 2, 2}).isUniform());
    EXPECT_TRUE(MixedRadix({7}).isUniform());
    EXPECT_FALSE(MixedRadix({2, 3}).isUniform());
}

TEST(MixedRadix, KetStringFormat) {
    EXPECT_EQ(MixedRadix::toKetString({2, 0, 1}), "|2 0 1>");
}

TEST(ParseDimensionSpec, PlainList) {
    EXPECT_EQ(parseDimensionSpec("3,6,2"), (Dimensions{3, 6, 2}));
}

TEST(ParseDimensionSpec, GroupedNotation) {
    EXPECT_EQ(parseDimensionSpec("[1x3,1x6,1x2]"), (Dimensions{3, 6, 2}));
    EXPECT_EQ(parseDimensionSpec("[3x4,1x7]"), (Dimensions{4, 4, 4, 7}));
    EXPECT_EQ(parseDimensionSpec("2x6, 1x5, 2x3"), (Dimensions{6, 6, 5, 3, 3}));
}

TEST(ParseDimensionSpec, RejectsGarbage) {
    EXPECT_THROW(parseDimensionSpec(""), InvalidArgumentError);
    EXPECT_THROW(parseDimensionSpec("3,,2"), InvalidArgumentError);
    EXPECT_THROW(parseDimensionSpec("0x3"), InvalidArgumentError);
    EXPECT_THROW(parseDimensionSpec("2x1"), InvalidArgumentError);
}

/// The thrown message must name the offending entry — the error is the
/// user's only clue which piece of a long spec was malformed.
void expectSpecError(const std::string& spec, const std::string& fragment) {
    try {
        (void)parseDimensionSpec(spec);
        FAIL() << "expected InvalidArgumentError for spec '" << spec << "'";
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
            << "spec '" << spec << "' produced: " << error.what();
    }
}

TEST(ParseDimensionSpec, NonNumericEntriesNameTheEntry) {
    expectSpecError("2xq", "dimension in entry '2xq'");
    expectSpecError("3,6,two", "dimension in entry 'two'");
    expectSpecError("qx2", "count in entry 'qx2'");
    expectSpecError("2.5", "dimension in entry '2.5'");
}

TEST(ParseDimensionSpec, RejectsSignedEntries) {
    // Raw stoull would silently wrap "-3" to a huge unsigned value; the
    // strict parser refuses any sign character outright.
    expectSpecError("-3x2", "count in entry '-3x2'");
    expectSpecError("3,-6,2", "dimension in entry '-6'");
    expectSpecError("+2", "dimension in entry '+2'");
}

TEST(ParseDimensionSpec, RejectsDanglingCross) {
    expectSpecError("3x", "malformed CountxDimension entry '3x'");
    expectSpecError("x3", "malformed CountxDimension entry 'x3'");
}

TEST(ParseDimensionSpec, RejectsOverflowingDimension) {
    // Past 64 bits, and past the 32-bit Dimension type.
    expectSpecError("99999999999999999999999999", "dimension in entry");
    expectSpecError("4294967296", "dimension overflows in entry '4294967296'");
}

TEST(ParseDimensionSpec, RejectsHugeRegisters) {
    // A count that would allocate gigabytes must refuse before sizing
    // anything, in one entry or accumulated across entries.
    expectSpecError("2000000x2", "register exceeds");
    expectSpecError("1000000x2,1000000x3", "register exceeds");
    expectSpecError("99999999999999999999x2", "count in entry");
}

TEST(ParseDimensionSpec, AcceptsRegisterAtTheQuditCap) {
    const Dimensions dims = parseDimensionSpec("1048576x2");
    EXPECT_EQ(dims.size(), 1048576U);
    EXPECT_EQ(dims.front(), 2U);
}

/// `operator new` calls of parsing `spec`.
std::size_t allocationsOfParsing(const std::string& spec) {
    const std::size_t before = counting_new::allocations;
    const Dimensions dims = parseDimensionSpec(spec);
    return counting_new::allocations - before;
}

/// `operator new` calls of building the same register entry by entry, as
/// the parser appends: (count, dimension) per entry.
std::size_t allocationsOfAppending(const std::vector<std::pair<std::size_t, Dimension>>& entries) {
    const std::size_t before = counting_new::allocations;
    Dimensions dims;
    for (const auto& [count, dim] : entries) {
        dims.insert(dims.end(), count, dim);
    }
    return counting_new::allocations - before;
}

TEST(ParseDimensionSpec, PassingParsesAllocateOnlyTheResult) {
    // Every message is built only on the path that throws it, so a spec
    // that parses costs nothing beyond the growth of the returned vector.
    EXPECT_EQ(allocationsOfParsing("3,6,2"), allocationsOfAppending({{1, 3}, {1, 6}, {1, 2}}));
    EXPECT_EQ(allocationsOfParsing("8x2,4x3,2"),
              allocationsOfAppending({{8, 2}, {4, 3}, {1, 2}}));
}

TEST(FormatDimensionSpec, RoundTripsGroupedRuns) {
    EXPECT_EQ(formatDimensionSpec({4, 4, 4, 7, 3, 5}), "[3x4,1x7,1x3,1x5]");
    EXPECT_EQ(formatDimensionSpec({3, 6, 2}), "[1x3,1x6,1x2]");
    EXPECT_EQ(parseDimensionSpec(formatDimensionSpec({6, 6, 5, 3, 3})),
              (Dimensions{6, 6, 5, 3, 3}));
}

class MixedRadixRoundTrip : public ::testing::TestWithParam<Dimensions> {};

TEST_P(MixedRadixRoundTrip, AllIndicesRoundTrip) {
    const MixedRadix radix(GetParam());
    const std::uint64_t total = radix.totalDimension();
    std::uint64_t product = 1;
    for (const auto d : GetParam()) {
        product *= d;
    }
    EXPECT_EQ(total, product);
    for (std::uint64_t index = 0; index < total; ++index) {
        EXPECT_EQ(radix.indexOf(radix.digitsOf(index)), index);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperRegisters, MixedRadixRoundTrip,
                         ::testing::Values(Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3},
                                           Dimensions{6, 6, 5, 3, 3},
                                           Dimensions{5, 4, 2, 5, 5, 2},
                                           Dimensions{4, 7, 4, 4, 3, 5}, Dimensions{2, 2},
                                           Dimensions{2, 2, 2, 2, 2, 2, 2, 2}));

} // namespace
} // namespace mqsp
