// Tests of the benchmark itself: request generation is a pure function of
// the seed, the tail rule leaves at least ten samples beyond the reported
// percentile, and serve reply fields parse as the workloads read them.

#include "core.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(RequestGeneration, DenseRequestsArePureFunctionsOfTheSeed) {
    for (std::uint64_t index = 0; index < 100; ++index) {
        EXPECT_EQ(denseRequest(7, index), denseRequest(7, index));
    }
    std::size_t differing = 0;
    for (std::uint64_t index = 0; index < 100; ++index) {
        differing += denseRequest(7, index) == denseRequest(8, index) ? 0 : 1;
    }
    EXPECT_GT(differing, 90U);
}

TEST(RequestGeneration, EveryBlockCoversEachRegisterExactlyOnceInBothModes) {
    const std::size_t block = denseBlockSize();
    ASSERT_EQ(block, 2 * denseRegisters().size());
    for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
        for (std::uint64_t first = 0; first < 3 * block; first += block) {
            std::set<std::pair<std::size_t, bool>> seen;
            for (std::uint64_t index = first; index < first + block; ++index) {
                const DenseRequest request = denseRequest(seed, index);
                seen.insert({request.registerIndex, request.approximate});
            }
            EXPECT_EQ(seen.size(), block);
        }
    }
}

TEST(RequestGeneration, DenseRegistersAreTableOneSized) {
    for (const mqsp::Dimensions& dims : denseRegisters()) {
        const std::uint64_t total = std::accumulate(dims.begin(), dims.end(), std::uint64_t{1},
                                                    std::multiplies<>());
        EXPECT_GE(total, 700U);
        EXPECT_LE(total, 2000U);
    }
}

TEST(RequestGeneration, SessionScriptsArePureFunctionsOfTheSeed) {
    for (std::uint64_t index = 0; index < 64; ++index) {
        EXPECT_EQ(sessionScript(3, index), sessionScript(3, index));
        EXPECT_NE(sessionScript(3, index).gate, sessionScript(4, index).gate);
    }
    EXPECT_EQ(batchResidentSet(5), batchResidentSet(5));
    EXPECT_NE(batchResidentSet(5), batchResidentSet(6));
    EXPECT_EQ(batchResidentSet(5).size(), 16U);
}

TEST(RequestGeneration, SessionBlocksMixEveryFamily) {
    std::multiset<std::string> families;
    for (std::uint64_t index = 8; index < 16; ++index) {
        const std::string prep = sessionScript(11, index).prep;
        families.insert(prep.substr(0, prep.find(' ')));
    }
    EXPECT_EQ(families.count("PREP:RANDOM"), 2U);
    for (const char* family : {"PREP:GHZ", "PREP:W", "PREP:EMBW", "PREP:UNIFORM",
                               "PREP:DICKE", "PREP:CYCLIC"}) {
        EXPECT_EQ(families.count(family), 1U) << family;
    }
}

TEST(TailRule, LeavesAtLeastTenSamplesBeyond) {
    for (std::size_t count = 20; count <= 100000; count = count * 3 / 2 + 1) {
        const double percentile = tailPercentile(count);
        ASSERT_GT(percentile, 0.0) << count;
        EXPECT_GE(samplesBeyond(count, percentile), kTailBeyond) << count;
    }
    EXPECT_EQ(tailPercentile(19), 0.0);
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(2000), 99.5);
    EXPECT_EQ(tailPercentile(1999), 99.0);
}

TEST(TailRule, HandMadeSamples) {
    // 1..1000 in shuffled order: p50 is 500, the tail p99 is 990 with
    // exactly ten samples (991..1000) beyond it.
    std::vector<double> values(1000);
    std::iota(values.begin(), values.end(), 1.0);
    std::swap(values[3], values[997]);
    std::swap(values[0], values[500]);
    const LatencySummary summary = summarize(values);
    EXPECT_EQ(summary.samples, 1000U);
    EXPECT_EQ(summary.p50, 500.0);
    EXPECT_EQ(summary.tailPercentile, 99.0);
    EXPECT_EQ(summary.tail, 990.0);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10U);

    // Too few samples for any ladder percentile: the tail is the median.
    const LatencySummary small = summarize({3.0, 1.0, 2.0});
    EXPECT_EQ(small.p50, 2.0);
    EXPECT_EQ(small.tail, 2.0);
    EXPECT_EQ(small.tailPercentile, 0.0);
}

TEST(ServeReplies, FieldsParse) {
    const std::string prep =
        "OK id=12 family=ghz dims=[1x3,1x6] amplitudes=18 ops=5 dd_nodes=41";
    EXPECT_TRUE(replyOk(prep));
    EXPECT_EQ(replyUint(prep, "id"), 12U);
    EXPECT_EQ(replyUint(prep, "ops"), 5U);
    EXPECT_EQ(replyUint(prep, "dd_nodes"), 41U);
    EXPECT_EQ(replyField(prep, "dims"), "[1x3,1x6]");
    EXPECT_EQ(replyField(prep, "nodes"), std::nullopt); // no partial-key match

    const std::string verify = "OK id=3 fidelity=0.999999999 repeats=1";
    EXPECT_DOUBLE_EQ(replyReal(verify, "fidelity"), 0.999999999);

    const std::string stats = "OK dd_nodes=9 verify.count=75 verify.p50_us=131.1";
    EXPECT_EQ(replyUint(stats, "verify.count"), 75U);
    EXPECT_DOUBLE_EQ(replyReal(stats, "verify.p50_us"), 131.1);

    EXPECT_FALSE(replyOk("ERR no prepared target with id 4"));
    EXPECT_THROW((void)replyUint(verify, "ops"), std::runtime_error);
    EXPECT_THROW((void)replyUint(verify, "fidelity"), std::runtime_error);
    EXPECT_THROW((void)replyReal("OK fidelity=", "fidelity"), std::runtime_error);
}

} // namespace
} // namespace perfbench
