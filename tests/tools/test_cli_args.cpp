// Unit tests for the shared CLI argument helpers (tools/cli_args.hpp) used
// by mqsp_prep, mqsp_sim and the benchmark harness.

#include "cli_args.hpp"

#include "mqsp/support/error.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace mqsp::cli {
namespace {

/// argv builder: the pointers stay valid while the Args object lives.
struct Args {
    explicit Args(std::vector<const char*> words) : storage(std::move(words)) {
        storage.insert(storage.begin(), "prog");
    }
    [[nodiscard]] int argc() const { return static_cast<int>(storage.size()); }
    [[nodiscard]] char** argv() {
        return const_cast<char**>(storage.data());
    }
    std::vector<const char*> storage;
};

TEST(CliArgs, ValuePresentAndAbsent) {
    Args args({"--dims", "3,6,2", "--qasm"});
    EXPECT_EQ(argValue(args.argc(), args.argv(), "--dims"), "3,6,2");
    EXPECT_FALSE(argValue(args.argc(), args.argv(), "--state").has_value());
    // A trailing flag has no following value.
    EXPECT_FALSE(argValue(args.argc(), args.argv(), "--qasm").has_value());
}

TEST(CliArgs, LastOccurrenceWins) {
    Args args({"--seed", "1", "--seed", "2"});
    EXPECT_EQ(argValue(args.argc(), args.argv(), "--seed"), "2");
    EXPECT_EQ(argUint(args.argc(), args.argv(), "--seed", 0), 2u);
}

TEST(CliArgs, FlagDetection) {
    Args args({"--verify", "--dims", "3,2"});
    EXPECT_TRUE(argFlag(args.argc(), args.argv(), "--verify"));
    EXPECT_FALSE(argFlag(args.argc(), args.argv(), "--optimize"));
    // A value is not a flag match target, but literal matches anywhere count.
    EXPECT_TRUE(argFlag(args.argc(), args.argv(), "3,2"));
}

TEST(CliArgs, UintParsesAndFallsBack) {
    Args args({"--reps", "40"});
    EXPECT_EQ(argUint(args.argc(), args.argv(), "--reps", 7), 40u);
    EXPECT_EQ(argUint(args.argc(), args.argv(), "--warmup", 7), 7u);
}

TEST(CliArgs, UintRejectsMalformedInputNamingTheFlag) {
    Args args({"--seed", "12abc"});
    try {
        (void)argUint(args.argc(), args.argv(), "--seed", 0);
        FAIL() << "expected mqsp::InvalidArgumentError";
    } catch (const mqsp::InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find("--seed"), std::string::npos);
        EXPECT_NE(std::string(error.what()).find("12abc"), std::string::npos);
    }
}

TEST(CliArgs, UintRejectsNegativeAndEmpty) {
    Args negative({"--reps", "-3"});
    EXPECT_THROW((void)argUint(negative.argc(), negative.argv(), "--reps", 0),
                 mqsp::InvalidArgumentError);
    Args empty({"--reps", ""});
    EXPECT_THROW((void)argUint(empty.argc(), empty.argv(), "--reps", 0),
                 mqsp::InvalidArgumentError);
}

TEST(CliArgs, DoubleParsesAndFallsBack) {
    Args args({"--approx", "0.98"});
    EXPECT_DOUBLE_EQ(argDouble(args.argc(), args.argv(), "--approx", 1.0), 0.98);
    EXPECT_DOUBLE_EQ(argDouble(args.argc(), args.argv(), "--threshold", 1.0), 1.0);
}

TEST(CliArgs, DoubleRejectsTrailingGarbage) {
    Args args({"--approx", "0.98x"});
    EXPECT_THROW((void)argDouble(args.argc(), args.argv(), "--approx", 1.0),
                 mqsp::InvalidArgumentError);
}

TEST(CliArgs, ThreadsAcceptsCountsUpToTheCapAndRefusesTheRest) {
    for (const auto& [text, threads] :
         {std::pair<const char*, unsigned>{"0", 0U}, {"4", 4U}, {"1024", 1024U}}) {
        Args args({"--threads", text});
        EXPECT_EQ(argThreads(args.argc(), args.argv()), threads) << text;
    }
    Args absent({"--qasm"});
    EXPECT_EQ(argThreads(absent.argc(), absent.argv()), 0U);
    // A count past the cap is refused, not narrowed to unsigned (which
    // would read 5000000000 as 705032704 workers and 4294967297 as 1).
    // Only argThreads runs here: no such count reaches a pool.
    for (const char* text : {"1025", "4294967297", "5000000000"}) {
        Args args({"--threads", text});
        try {
            (void)argThreads(args.argc(), args.argv());
            ADD_FAILURE() << "expected mqsp::InvalidArgumentError for " << text;
        } catch (const mqsp::InvalidArgumentError& error) {
            EXPECT_EQ(std::string(error.what()),
                      std::string("--threads expects a thread count of at most 1024, got '") +
                          text + "'");
        }
    }
    for (const char* text : {"+3", " 3", "-1", "", "3x"}) {
        Args args({"--threads", text});
        EXPECT_THROW((void)argThreads(args.argc(), args.argv()), mqsp::InvalidArgumentError)
            << "'" << text << "'";
    }
}

} // namespace
} // namespace mqsp::cli
