#include "mqsp/support/error.hpp"
#include "mqsp/support/mixed_radix.hpp"
#include "mqsp/support/timing.hpp"
#include "mqsp/support/version.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

// Counting replacement of the global allocation functions (this suite is its
// own executable, so the replacement stays local to it). Every sized,
// unsized and array form funnels through these two; only allocations made
// by the current thread are counted. They stay out of line: once inlined,
// GCC sees free() applied to a pointer from operator new and reports a
// mismatched pair (-Wmismatched-new-delete).
namespace {
thread_local std::size_t gAllocations = 0;
} // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
    ++gAllocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mqsp {
namespace {

TEST(Error, HierarchyIsCatchable) {
    // Every library error derives from mqsp::Error derives from
    // std::runtime_error, so callers can catch at any granularity.
    try {
        requireThat(false, "boom");
        FAIL() << "expected throw";
    } catch (const InvalidArgumentError& e) {
        EXPECT_EQ(std::string(e.what()), "boom");
    }
    try {
        ensureThat(false, "internal");
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), "internal");
    }
    EXPECT_THROW(detail::throwInvalidArgument("x"), std::runtime_error);
    EXPECT_THROW(detail::throwInternal("y"), std::runtime_error);
}

TEST(Error, ChecksPassSilently) {
    EXPECT_NO_THROW(requireThat(true, "unused"));
    EXPECT_NO_THROW(ensureThat(true, "unused"));
}

/// The message reaches what() verbatim whatever form the caller passes: a
/// literal, a named std::string, or a concatenated temporary (whose
/// lifetime ends with the full expression that calls the check).
TEST(Error, MessagesSurviveEveryArgumentForm) {
    const std::string named = "named message kept in a std::string";
    const std::string id = "42";
    const auto requireMessage = [](auto&& check) {
        try {
            check();
        } catch (const InvalidArgumentError& e) {
            return std::string(e.what());
        }
        return std::string("<no InvalidArgumentError>");
    };
    const auto ensureMessage = [](auto&& check) {
        try {
            check();
        } catch (const InternalError& e) {
            return std::string(e.what());
        }
        return std::string("<no InternalError>");
    };
    EXPECT_EQ(requireMessage([] { requireThat(false, "a literal message over fifteen chars"); }),
              "a literal message over fifteen chars");
    EXPECT_EQ(requireMessage([&] { requireThat(false, named); }), named);
    EXPECT_EQ(requireMessage([&] { requireThat(false, "item '" + id + "' is out of range"); }),
              "item '42' is out of range");
    EXPECT_EQ(ensureMessage([] { ensureThat(false, "a literal invariant over fifteen"); }),
              "a literal invariant over fifteen");
    EXPECT_EQ(ensureMessage([&] { ensureThat(false, named); }), named);
    EXPECT_EQ(ensureMessage([&] { ensureThat(false, "node " + id + " lost its parent"); }),
              "node 42 lost its parent");
    EXPECT_EQ(requireMessage([] { detail::throwInvalidArgument("direct invalid-argument"); }),
              "direct invalid-argument");
    EXPECT_EQ(ensureMessage([] { detail::throwInternal("direct internal error"); }),
              "direct internal error");
}

/// A passing check must not build its message: the literals here are past
/// the 15-character small-string buffer, where a std::string would have to
/// allocate. The same holds for the per-element accessors that carry such
/// checks.
TEST(Error, PassingChecksAllocateNothing) {
    const MixedRadix radix(Dimensions{3, 4, 2});
    const std::size_t before = gAllocations;
    Dimension dims = 0;
    for (int i = 0; i < 100; ++i) {
        requireThat(i >= 0, "a passing precondition with a long literal message");
        ensureThat(i < 100, "a passing invariant with a long literal message");
        dims += radix.dimensionAt(static_cast<std::size_t>(i) % 3);
    }
    EXPECT_EQ(gAllocations - before, 0U);
    EXPECT_EQ(dims, 300U);
    // The counter is live (a direct call, which no compiler may elide).
    ::operator delete(::operator new(64));
    EXPECT_EQ(gAllocations - before, 1U);
}

TEST(Error, InternalAndInvalidAreDistinct) {
    bool caughtInvalid = false;
    try {
        ensureThat(false, "internal bug");
    } catch (const InvalidArgumentError&) {
        caughtInvalid = true;
    } catch (const InternalError&) {
    }
    EXPECT_FALSE(caughtInvalid);
}

TEST(WallTimer, MeasuresElapsedTime) {
    WallTimer timer;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double elapsed = timer.elapsedSeconds();
    EXPECT_GE(elapsed, 0.015);
    EXPECT_LT(elapsed, 5.0);
}

TEST(WallTimer, ResetRestartsTheClock) {
    WallTimer timer;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    timer.reset();
    EXPECT_LT(timer.elapsedSeconds(), 0.015);
}

TEST(Version, IsSemanticVersionString) {
    const std::string version = versionString();
    EXPECT_FALSE(version.empty());
    EXPECT_NE(version.find('.'), std::string::npos);
}

} // namespace
} // namespace mqsp
