// Tests for the parallel execution layer (support/parallel.hpp): pool
// lifecycle, chunk coverage across grain-size edge cases, exception
// propagation out of workers, nested-use refusal, and the ordered-chunk
// determinism contract of parallelReduce.

#include "mqsp/support/error.hpp"
#include "mqsp/support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mqsp::parallel {
namespace {

/// Every test runs the library-wide entry points at a known thread count
/// and restores the previous configuration afterwards (the library's own
/// ScopedThreadCount), so suites can run in any order (and under any
/// MQSP_THREADS).
using ScopedThreads = ScopedThreadCount;

TEST(ExecutionConfig, ResolvePrefersExplicitRequest) {
    EXPECT_EQ(resolveThreadCount(3), 3U);
    EXPECT_EQ(resolveThreadCount(1), 1U);
}

TEST(ExecutionConfig, ResolveFallsBackToHardware) {
    // With no request and no env var the hardware count wins.
    const char* saved = std::getenv("MQSP_THREADS");
    const std::string savedValue = saved ? saved : "";
    ::unsetenv("MQSP_THREADS");
    EXPECT_EQ(resolveThreadCount(0), hardwareThreads());
    EXPECT_GE(hardwareThreads(), 1U);
    if (saved != nullptr) {
        ::setenv("MQSP_THREADS", savedValue.c_str(), 1);
    }
}

TEST(ExecutionConfig, ResolveReadsEnvironment) {
    const char* saved = std::getenv("MQSP_THREADS");
    const std::string savedValue = saved ? saved : "";
    ::setenv("MQSP_THREADS", "5", 1);
    EXPECT_EQ(resolveThreadCount(0), 5U);
    // An explicit request still wins over the environment.
    EXPECT_EQ(resolveThreadCount(2), 2U);
    // 0 means automatic, same as unset.
    ::setenv("MQSP_THREADS", "0", 1);
    EXPECT_EQ(resolveThreadCount(0), hardwareThreads());
    ::setenv("MQSP_THREADS", "banana", 1);
    EXPECT_THROW((void)resolveThreadCount(0), InvalidArgumentError);
    ::setenv("MQSP_THREADS", "-2", 1);
    EXPECT_THROW((void)resolveThreadCount(0), InvalidArgumentError);
    // A count is parsed whole and refused past kMaxThreads, not narrowed
    // to unsigned (which would read 4294967297 as 1 and 5000000000 as
    // 705032704 workers). Only resolveThreadCount runs here: no such count
    // reaches a pool.
    ::setenv("MQSP_THREADS", "1024", 1);
    EXPECT_EQ(resolveThreadCount(0), kMaxThreads);
    for (const char* text : {"+3", " 3", "3 ", "1025", "4294967297", "5000000000"}) {
        ::setenv("MQSP_THREADS", text, 1);
        EXPECT_THROW((void)resolveThreadCount(0), InvalidArgumentError) << "'" << text << "'";
    }
    ::setenv("MQSP_THREADS", "5000000000", 1);
    try {
        (void)resolveThreadCount(0);
        ADD_FAILURE() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        EXPECT_STREQ(error.what(),
                     "MQSP_THREADS expects a thread count of at most 1024, got '5000000000'");
    }
    if (saved != nullptr) {
        ::setenv("MQSP_THREADS", savedValue.c_str(), 1);
    } else {
        ::unsetenv("MQSP_THREADS");
    }
}

TEST(ExecutionConfig, GlobalConfigReflectsSetting) {
    const ScopedThreads scope(3);
    EXPECT_EQ(globalThreads(), 3U);
    EXPECT_EQ(globalExecutionConfig(), ExecutionConfig{3});
}

TEST(ScopedThreadCountGuard, PinsAndRestoresTheGlobalWidth) {
    const ScopedThreads outer(2);
    {
        const ScopedThreadCount pin(5);
        EXPECT_EQ(globalThreads(), 5U);
    }
    EXPECT_EQ(globalThreads(), 2U);
    {
        const ScopedThreadCount follow(0); // 0 = follow the ambient setting
        EXPECT_EQ(globalThreads(), 2U);
    }
    EXPECT_EQ(globalThreads(), 2U);
}

TEST(ScopedThreadCountGuard, NoOpInsideParallelRegion) {
    const ScopedThreads outer(2);
    parallelFor(std::uint64_t{0}, std::uint64_t{8}, 1, [&](std::uint64_t, std::uint64_t) {
        // Reconfiguring mid-region is forbidden; the guard must degrade to
        // a no-op instead of throwing out of the worker.
        const ScopedThreadCount nested(5);
        EXPECT_EQ(globalThreads(), 2U);
    });
    EXPECT_EQ(globalThreads(), 2U);
}

TEST(TaskPoolLifecycle, ConstructAndDestroyRepeatedly) {
    for (unsigned threads = 1; threads <= 8; ++threads) {
        TaskPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        std::atomic<std::uint64_t> sum{0};
        auto body = [&sum](std::uint64_t begin, std::uint64_t end) {
            sum.fetch_add(end - begin, std::memory_order_relaxed);
        };
        pool.run(0, 1000, 7, detail::ChunkFnRef(body));
        EXPECT_EQ(sum.load(), 1000U);
    }
}

TEST(TaskPoolLifecycle, GlobalReconfigurationCycles) {
    const unsigned previous = globalThreads();
    for (const unsigned threads : {4U, 1U, 2U, 1U, 4U}) {
        setGlobalThreads(threads);
        EXPECT_EQ(globalThreads(), threads);
        std::vector<int> hits(257, 0);
        parallelFor(std::uint64_t{0}, hits.size(), 16,
                    [&](std::uint64_t begin, std::uint64_t end) {
                        for (std::uint64_t i = begin; i < end; ++i) {
                            hits[i] += 1;
                        }
                    });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
                  static_cast<int>(hits.size()));
    }
    setGlobalThreads(previous);
}

class ParallelForCoverage : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelForCoverage, EveryIndexVisitedExactlyOnce) {
    const ScopedThreads scope(GetParam());
    // Grain edge cases: 1 (maximal chunking), a non-divisor, the exact
    // range length, larger than the range, and the clamp of grain 0.
    for (const std::uint64_t grain : {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{100},
                                      std::uint64_t{1000}, std::uint64_t{0}}) {
        std::vector<std::atomic<int>> visits(100);
        parallelFor(std::uint64_t{0}, visits.size(), grain,
                    [&](std::uint64_t begin, std::uint64_t end) {
                        ASSERT_LE(begin, end);
                        for (std::uint64_t i = begin; i < end; ++i) {
                            visits[i].fetch_add(1, std::memory_order_relaxed);
                        }
                    });
        for (const auto& count : visits) {
            EXPECT_EQ(count.load(), 1);
        }
    }
}

TEST_P(ParallelForCoverage, EmptyRangeRunsNothing) {
    const ScopedThreads scope(GetParam());
    bool called = false;
    parallelFor(std::uint64_t{5}, std::uint64_t{5}, 4,
                [&](std::uint64_t, std::uint64_t) { called = true; });
    parallelFor(std::uint64_t{7}, std::uint64_t{3}, 4,
                [&](std::uint64_t, std::uint64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST_P(ParallelForCoverage, ExceptionPropagatesToCaller) {
    const ScopedThreads scope(GetParam());
    EXPECT_THROW(
        parallelFor(std::uint64_t{0}, std::uint64_t{1000}, 10,
                    [&](std::uint64_t begin, std::uint64_t end) {
                        // Fires whichever chunk covers index 500, whatever
                        // the partition (including the inline whole-range
                        // chunk at 1 thread).
                        if (begin <= 500 && 500 < end) {
                            throw std::runtime_error("chunk failed");
                        }
                    }),
        std::runtime_error);
    // The pool survives a throwing region and keeps working.
    std::atomic<std::uint64_t> sum{0};
    parallelFor(std::uint64_t{0}, std::uint64_t{100}, 10,
                [&](std::uint64_t begin, std::uint64_t end) {
                    sum.fetch_add(end - begin, std::memory_order_relaxed);
                });
    EXPECT_EQ(sum.load(), 100U);
}

TEST_P(ParallelForCoverage, LibraryExceptionTypeSurvives) {
    const ScopedThreads scope(GetParam());
    try {
        parallelFor(std::uint64_t{0}, std::uint64_t{64}, 4, [&](std::uint64_t, std::uint64_t) {
            mqsp::detail::throwInvalidArgument("typed failure");
        });
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        EXPECT_STREQ(error.what(), "typed failure");
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForCoverage, ::testing::Values(1U, 2U, 4U),
                         [](const auto& paramInfo) {
                             return "t" + std::to_string(paramInfo.param);
                         });

TEST(NestedUseRefusal, InnerCallsRunInlineWithoutDeadlock) {
    const ScopedThreads scope(4);
    std::atomic<std::uint64_t> total{0};
    std::atomic<int> nestedParallelObserved{0};
    parallelFor(std::uint64_t{0}, std::uint64_t{64}, 1, [&](std::uint64_t, std::uint64_t) {
        EXPECT_TRUE(insideParallelRegion());
        // The nested region must refuse the pool (it would deadlock a
        // 1-worker pool and over-subscribe any other) and run inline.
        parallelFor(std::uint64_t{0}, std::uint64_t{100}, 1,
                    [&](std::uint64_t begin, std::uint64_t end) {
                        if (begin == 0 && end == 100) {
                            nestedParallelObserved.fetch_add(1);
                        }
                        total.fetch_add(end - begin, std::memory_order_relaxed);
                    });
    });
    EXPECT_EQ(total.load(), 64U * 100U);
    // Inline execution hands the nested body the whole range in one chunk.
    EXPECT_EQ(nestedParallelObserved.load(), 64);
    EXPECT_FALSE(insideParallelRegion());
}

TEST(NestedUseRefusal, ReconfigurationInsideRegionIsRefused) {
    const ScopedThreads scope(2);
    EXPECT_THROW(parallelFor(std::uint64_t{0}, std::uint64_t{8}, 1,
                             [&](std::uint64_t, std::uint64_t) { setGlobalThreads(3); }),
                 InternalError);
}

TEST(ParallelReduceDeterminism, SumBitIdenticalAcrossThreadCounts) {
    // An ill-conditioned sum: magnitudes spanning ~16 decimal orders, so any
    // reassociation of the additions changes the low bits.
    std::vector<double> values(10'000);
    for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = (i % 7 == 0 ? 1e12 : 1e-4) * (1.0 + static_cast<double>(i % 97) / 96.0);
    }
    const auto sumAt = [&](unsigned threads) {
        const ScopedThreads scope(threads);
        return parallelReduce(
            std::uint64_t{0}, values.size(), 128, 0.0,
            [&](std::uint64_t begin, std::uint64_t end) {
                double sum = 0.0;
                for (std::uint64_t i = begin; i < end; ++i) {
                    sum += values[i];
                }
                return sum;
            },
            [](double acc, double partial) { return acc + partial; });
    };
    const double serial = sumAt(1);
    EXPECT_EQ(serial, sumAt(2));
    EXPECT_EQ(serial, sumAt(4));
    EXPECT_EQ(serial, sumAt(7));
}

TEST(ParallelReduceDeterminism, MatchesManualChunkOrderedSum) {
    std::vector<double> values(1000);
    for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = 1.0 / (1.0 + static_cast<double>(i));
    }
    constexpr std::uint64_t kGrain = 64;
    double expected = 0.0;
    for (std::uint64_t chunkBegin = 0; chunkBegin < values.size(); chunkBegin += kGrain) {
        const std::uint64_t chunkEnd = std::min<std::uint64_t>(chunkBegin + kGrain,
                                                               values.size());
        double partial = 0.0;
        for (std::uint64_t i = chunkBegin; i < chunkEnd; ++i) {
            partial += values[i];
        }
        expected += partial;
    }
    const ScopedThreads scope(4);
    const double actual = parallelReduce(
        std::uint64_t{0}, values.size(), kGrain, 0.0,
        [&](std::uint64_t begin, std::uint64_t end) {
            double sum = 0.0;
            for (std::uint64_t i = begin; i < end; ++i) {
                sum += values[i];
            }
            return sum;
        },
        [](double acc, double partial) { return acc + partial; });
    EXPECT_EQ(expected, actual);
}

TEST(ParallelReduceDeterminism, EmptyRangeYieldsIdentity) {
    const ScopedThreads scope(4);
    const double result = parallelReduce(
        std::uint64_t{10}, std::uint64_t{10}, 8, 42.0,
        [](std::uint64_t, std::uint64_t) { return 1.0; },
        [](double acc, double partial) { return acc + partial; });
    EXPECT_EQ(result, 42.0);
}

} // namespace
} // namespace mqsp::parallel
