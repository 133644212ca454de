#pragma once

// Counting replacement of the global allocation functions, for the suites
// that pin heap traffic. Include it from exactly one source of a test
// executable: the replacement applies to the whole program. Every sized,
// unsized and array form funnels through these two; only allocations made
// by the current thread are counted. They stay out of line: once inlined,
// GCC sees free() applied to a pointer from operator new and reports a
// mismatched pair (-Wmismatched-new-delete).

#include <cstddef>
#include <cstdlib>
#include <new>

namespace mqsp::counting_new {

/// `operator new` calls made so far by the calling thread.
inline thread_local std::size_t allocations = 0;

} // namespace mqsp::counting_new

[[gnu::noinline]] void* operator new(std::size_t size) {
    ++mqsp::counting_new::allocations;
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
