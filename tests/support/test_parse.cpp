#include "mqsp/support/parse.hpp"

#include "common/counting_new.hpp"
#include "mqsp/support/error.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>

namespace mqsp {
namespace {

TEST(TryUint64, ParsesPlainDecimals) {
    EXPECT_EQ(parse::tryUint64("0"), 0U);
    EXPECT_EQ(parse::tryUint64("42"), 42U);
    EXPECT_EQ(parse::tryUint64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(TryUint64, RejectsEmptyAndSigns) {
    EXPECT_FALSE(parse::tryUint64("").has_value());
    EXPECT_FALSE(parse::tryUint64("-1").has_value());
    EXPECT_FALSE(parse::tryUint64("+1").has_value());
    EXPECT_FALSE(parse::tryUint64("-0").has_value());
}

TEST(TryUint64, RejectsTrailingAndEmbeddedJunk) {
    EXPECT_FALSE(parse::tryUint64("12x").has_value());
    EXPECT_FALSE(parse::tryUint64("1 2").has_value());
    EXPECT_FALSE(parse::tryUint64(" 12").has_value());
    EXPECT_FALSE(parse::tryUint64("12 ").has_value());
    EXPECT_FALSE(parse::tryUint64("q").has_value());
    EXPECT_FALSE(parse::tryUint64("0x10").has_value());
    EXPECT_FALSE(parse::tryUint64("1e3").has_value());
    EXPECT_FALSE(parse::tryUint64("12.0").has_value());
}

TEST(TryUint64, RejectsOverflow) {
    // One past 2^64 - 1, and something absurdly long.
    EXPECT_FALSE(parse::tryUint64("18446744073709551616").has_value());
    EXPECT_FALSE(parse::tryUint64("99999999999999999999999999").has_value());
}

TEST(TryDouble, ParsesFixedAndScientific) {
    EXPECT_DOUBLE_EQ(parse::tryDouble("0").value(), 0.0);
    EXPECT_DOUBLE_EQ(parse::tryDouble("-2.5").value(), -2.5);
    EXPECT_DOUBLE_EQ(parse::tryDouble("1e3").value(), 1000.0);
    EXPECT_DOUBLE_EQ(parse::tryDouble("-1.25E-2").value(), -0.0125);
    EXPECT_DOUBLE_EQ(parse::tryDouble(".5").value(), 0.5);
}

TEST(TryDouble, RejectsEmptyAndJunk) {
    EXPECT_FALSE(parse::tryDouble("").has_value());
    EXPECT_FALSE(parse::tryDouble("abc").has_value());
    EXPECT_FALSE(parse::tryDouble("1.5x").has_value());
    EXPECT_FALSE(parse::tryDouble("1.5 ").has_value());
    EXPECT_FALSE(parse::tryDouble(" 1.5").has_value());
    EXPECT_FALSE(parse::tryDouble("1,5").has_value());
}

TEST(ClipForMessage, ShortTextPassesThrough) {
    EXPECT_EQ(parse::clipForMessage("hello"), "hello");
    EXPECT_EQ(parse::clipForMessage(""), "");
}

TEST(ClipForMessage, MasksControlBytes) {
    // Quoted untrusted text must not smuggle newlines (which would break a
    // one-line wire reply) or terminal escapes into a diagnostic.
    EXPECT_EQ(parse::clipForMessage(std::string("a\nb\rc\x1b[31md\x7f", 12)), "a?b?c?[31md?");
    EXPECT_EQ(parse::clipForMessage(std::string(1, '\0')), "?");
}

TEST(ClipForMessage, LongTextIsTruncatedWithEllipsis) {
    const std::string longText(500, 'a');
    const std::string clipped = parse::clipForMessage(longText);
    EXPECT_EQ(clipped.size(), 96U + 3U);
    EXPECT_EQ(clipped.substr(96), "...");
    EXPECT_EQ(parse::clipForMessage(longText, 8), std::string(8, 'a') + "...");
}

TEST(ParseUint64Throwing, SuccessAndErrorMessage) {
    EXPECT_EQ(parse::uint64("7", "--shots"), 7U);
    try {
        (void)parse::uint64("junk", "--shots");
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("--shots"), std::string::npos) << what;
        EXPECT_NE(what.find("non-negative integer"), std::string::npos) << what;
        EXPECT_NE(what.find("'junk'"), std::string::npos) << what;
    }
}

TEST(ParseUint64Throwing, OverlongInputIsClippedInMessage) {
    const std::string attack(4000, '9');
    try {
        (void)parse::uint64(attack + "x", "--count");
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        // The diagnostic quotes at most the clipped prefix, never the
        // whole hostile token.
        EXPECT_LT(std::string(error.what()).size(), 256U);
    }
}

TEST(ParseRealThrowing, SuccessAndErrorMessage) {
    EXPECT_DOUBLE_EQ(parse::real("-0.5", "--approx"), -0.5);
    try {
        (void)parse::real("half", "--approx");
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("--approx"), std::string::npos) << what;
        EXPECT_NE(what.find("expects a number"), std::string::npos) << what;
        EXPECT_NE(what.find("'half'"), std::string::npos) << what;
    }
}

TEST(ParseThrowing, PassingParsesAllocateNothing) {
    // The refusal message is built only on the throwing path, so a field
    // that parses costs no allocation, however long its context.
    const std::string text = "123456789";
    const std::size_t before = counting_new::allocations;
    std::uint64_t sum = 0;
    double total = 0.0;
    for (int i = 0; i < 100; ++i) {
        sum += parse::uint64(text, "DecisionDiagram::deserialize: edge reference");
        sum += parse::uint64("42", "--shots");
        total += parse::real("0.98", "--approx");
        total += parse::real("-1.5e-3", "parseCircuitJsonLines: value for key 'theta'");
    }
    const std::size_t allocations = counting_new::allocations - before;
    EXPECT_EQ(allocations, 0U);
    EXPECT_EQ(sum, std::uint64_t{100} * (123456789 + 42));
    EXPECT_NEAR(total, 100 * (0.98 - 1.5e-3), 1e-9);
}

} // namespace
} // namespace mqsp
