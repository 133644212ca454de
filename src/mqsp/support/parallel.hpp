#pragma once

// The parallel execution layer: a reusable fixed-size thread pool plus the
// two loop shapes every dense hot path in the library is written on —
// `parallelFor` over an index range and a deterministic, ordered-chunk
// `parallelReduce`.
//
// Determinism contract: chunk boundaries depend only on the range and the
// grain size, never on the thread count, and reduction partials are
// combined in chunk order on the calling thread. A reduction therefore
// returns the *bit-identical* double at 1 thread and at N threads; a
// `parallelFor` body that writes disjoint indices produces bit-identical
// state at any thread count.
//
// Nested-use refusal: a body that (transitively) calls back into
// `parallelFor`/`parallelReduce` while running on the pool is executed
// inline on its worker instead of re-entering the pool — independent batch
// items can fan out across workers while each item's inner kernels stay
// serial, and no configuration can deadlock.
//
// The process-wide thread count is an `ExecutionConfig` resolved from
// `--threads N` (CLI), the `MQSP_THREADS` environment variable, or
// `std::thread::hardware_concurrency()` in that order; `threads == 1`
// bypasses the pool entirely and preserves the library's single-threaded
// behavior exactly.

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace mqsp::parallel {

/// Process-wide execution configuration. `threads == 0` means "resolve
/// automatically" (MQSP_THREADS, then hardware concurrency).
struct ExecutionConfig {
    unsigned threads = 0;

    friend bool operator==(const ExecutionConfig&, const ExecutionConfig&) = default;
};

/// The largest thread count `--threads` and MQSP_THREADS accept.
inline constexpr unsigned kMaxThreads = 1024;

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] unsigned hardwareThreads() noexcept;

/// Parse a thread-count field (0 = automatic) named `context` in the error:
/// a non-negative integer no larger than kMaxThreads, refused otherwise
/// instead of being narrowed.
[[nodiscard]] unsigned parseThreadCount(std::string_view text, std::string_view context);

/// Resolve a requested worker count: `requested` when > 0, else the
/// MQSP_THREADS environment variable when set and > 0, else
/// hardwareThreads(). Throws InvalidArgumentError when MQSP_THREADS is set
/// but not a count parseThreadCount accepts.
[[nodiscard]] unsigned resolveThreadCount(unsigned requested = 0);

/// The process-wide thread count all kernels run at (resolved lazily on
/// first use). `setGlobalThreads(n)` re-resolves (n == 0 -> automatic) and
/// swaps the shared pool; it must not be called from inside a parallel
/// region, but is safe against regions in flight on *other* threads —
/// those finish undisturbed at the old width (the retired pool lives until
/// its last in-flight submitter releases it) and the new width applies to
/// subsequent regions.
[[nodiscard]] unsigned globalThreads();
void setGlobalThreads(unsigned threads);

/// The configuration currently in effect (threads already resolved).
[[nodiscard]] ExecutionConfig globalExecutionConfig();

/// True while the calling thread is executing a chunk of a parallel region
/// — the condition under which nested parallel calls run inline.
[[nodiscard]] bool insideParallelRegion() noexcept;

/// RAII: pin the process-wide thread count to `threads` for the current
/// scope, restoring the previous count on exit. A request of 0 ("follow
/// the ambient setting") and any request made from inside a parallel
/// region (where the width is already pinned and reconfiguration is
/// forbidden) are no-ops. Shared by the evaluation backends, the bench
/// harness, and the test suites.
///
/// The width is process-wide state: overlapping guards on *different*
/// application threads interleave their save/restore pairs and end at an
/// arbitrary width. Pin from one coordinating thread at a time (the CLI
/// tools and the harness do); for concurrent work items, use one pinned
/// scope around a batch and let nested-use refusal serialize the items'
/// inner kernels.
class ScopedThreadCount {
public:
    explicit ScopedThreadCount(unsigned threads);
    ~ScopedThreadCount();
    ScopedThreadCount(const ScopedThreadCount&) = delete;
    ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

private:
    unsigned previous_ = 0;
    bool changed_ = false;
};

/// Test support: run `fn(threadIndex)` on `count` plain std::threads that
/// start together (barrier) and are joined before returning; the first
/// exception any of them throws is rethrown on the caller. This bypasses
/// the TaskPool entirely — it exists to hammer concurrent data structures
/// (the sharded uniquing table, the compute cache) with genuinely
/// simultaneous callers, which the pool's one-region-at-a-time submission
/// discipline cannot express.
void runOnThreads(unsigned count, const std::function<void(unsigned)>& fn);

namespace detail {

/// Non-owning callable reference (avoids a std::function allocation per
/// gate application). The callee outlives the call by construction: chunk
/// bodies live on the submitting frame's stack.
class ChunkFnRef {
public:
    template <typename Fn>
    ChunkFnRef(Fn& fn) // NOLINT(google-explicit-constructor): binder type
        : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
          call_([](void* ctx, std::uint64_t begin, std::uint64_t end) {
              (*static_cast<Fn*>(ctx))(begin, end);
          }) {}

    void operator()(std::uint64_t begin, std::uint64_t end) const { call_(ctx_, begin, end); }

private:
    void* ctx_;
    void (*call_)(void*, std::uint64_t, std::uint64_t);
};

/// Run `chunk` over [begin, end) split into grain-sized chunks on the
/// shared pool. Requires begin < end and an effective thread count > 1;
/// callers go through the templates below, which handle the serial cases.
void runOnPool(std::uint64_t begin, std::uint64_t end, std::uint64_t grain, ChunkFnRef chunk);

/// Number of grain-sized chunks covering [begin, end).
[[nodiscard]] inline std::uint64_t chunkCount(std::uint64_t begin, std::uint64_t end,
                                              std::uint64_t grain) noexcept {
    const std::uint64_t n = end - begin;
    return (n + grain - 1) / grain;
}

} // namespace detail

/// A fixed-size pool of `threads - 1` workers (the calling thread
/// participates as the remaining one). One parallel region runs at a time;
/// concurrent top-level submissions serialize. Exceptions thrown by chunk
/// bodies abort the remaining chunks and the *first* one is rethrown on
/// the submitting thread. Normally used through the free functions below
/// and the shared global pool; constructed directly in tests.
class TaskPool {
public:
    explicit TaskPool(unsigned threads);
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    [[nodiscard]] unsigned threadCount() const noexcept { return threads_; }

    /// Execute `chunk(chunkBegin, chunkEnd)` over grain-sized chunks of
    /// [begin, end). Chunks are claimed dynamically but their boundaries
    /// are fixed by `grain` alone.
    void run(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
             detail::ChunkFnRef chunk);

private:
    struct Impl;
    Impl* impl_;
    unsigned threads_;
};

/// Apply `chunk(chunkBegin, chunkEnd)` across [begin, end). The body must
/// be correct for any partition of the range into half-open chunks; writes
/// to distinct indices need no synchronization. Runs inline (one chunk,
/// the whole range) when the range fits one grain, the effective thread
/// count is 1, or the caller is already inside a parallel region.
template <typename Chunk>
void parallelFor(std::uint64_t begin, std::uint64_t end, std::uint64_t grain, Chunk&& chunk) {
    if (begin >= end) {
        return;
    }
    if (grain == 0) {
        grain = 1;
    }
    if (detail::chunkCount(begin, end, grain) <= 1 || insideParallelRegion() ||
        globalThreads() <= 1) {
        chunk(begin, end);
        return;
    }
    detail::runOnPool(begin, end, grain, detail::ChunkFnRef(chunk));
}

/// Ordered-chunk reduction: `map(chunkBegin, chunkEnd) -> T` per chunk,
/// partials combined left-to-right in chunk order as
/// `acc = combine(acc, partial)` starting from `identity`. Chunk
/// boundaries are fixed by `grain` alone, so the result is bit-stable
/// across thread counts (including 1).
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallelReduce(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
                               T identity, Map&& map, Combine&& combine) {
    if (begin >= end) {
        return identity;
    }
    if (grain == 0) {
        grain = 1;
    }
    const std::uint64_t chunks = detail::chunkCount(begin, end, grain);
    if (chunks == 1) {
        return combine(identity, map(begin, end));
    }
    std::vector<T> partials(chunks, identity);
    auto mapChunk = [&](std::uint64_t chunkBegin, std::uint64_t chunkEnd) {
        partials[(chunkBegin - begin) / grain] = map(chunkBegin, chunkEnd);
    };
    if (insideParallelRegion() || globalThreads() <= 1) {
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const std::uint64_t chunkBegin = begin + c * grain;
            const std::uint64_t chunkEnd = chunkBegin + grain < end ? chunkBegin + grain : end;
            mapChunk(chunkBegin, chunkEnd);
        }
    } else {
        detail::runOnPool(begin, end, grain, detail::ChunkFnRef(mapChunk));
    }
    T result = identity;
    for (const T& partial : partials) {
        result = combine(result, partial);
    }
    return result;
}

} // namespace mqsp::parallel
