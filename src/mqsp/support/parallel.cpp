#include "mqsp/support/parallel.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace mqsp::parallel {

namespace {

/// Set while the current thread is executing chunks of a parallel region;
/// nested parallelFor/parallelReduce calls observe it and run inline.
thread_local bool tlsInsideParallelRegion = false;

struct RegionGuard {
    RegionGuard() { tlsInsideParallelRegion = true; }
    ~RegionGuard() { tlsInsideParallelRegion = false; }
    RegionGuard(const RegionGuard&) = delete;
    RegionGuard& operator=(const RegionGuard&) = delete;
};

} // namespace

bool insideParallelRegion() noexcept { return tlsInsideParallelRegion; }

unsigned hardwareThreads() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1U : hw;
}

unsigned parseThreadCount(std::string_view text, std::string_view context) {
    const std::uint64_t count = parse::uint64(text, context);
    if (count > kMaxThreads) {
        parse::refuse(context, "a thread count of at most " + std::to_string(kMaxThreads), text);
    }
    return static_cast<unsigned>(count);
}

unsigned resolveThreadCount(unsigned requested) {
    if (requested > 0) {
        return requested;
    }
    if (const char* env = std::getenv("MQSP_THREADS")) {
        // MQSP_THREADS=0 means automatic, same as unset.
        if (const unsigned parsed = parseThreadCount(env, "MQSP_THREADS"); parsed > 0) {
            return parsed;
        }
    }
    return hardwareThreads();
}

void runOnThreads(unsigned count, const std::function<void(unsigned)>& fn) {
    if (count == 0) {
        return;
    }
    std::mutex mutex;
    std::condition_variable gate;
    unsigned arrived = 0;
    std::exception_ptr firstError;
    std::vector<std::thread> threads;
    threads.reserve(count);
    for (unsigned index = 0; index < count; ++index) {
        threads.emplace_back([&, index] {
            {
                // Start barrier: maximize actual overlap of the bodies.
                std::unique_lock<std::mutex> lock(mutex);
                ++arrived;
                if (arrived == count) {
                    gate.notify_all();
                } else {
                    gate.wait(lock, [&] { return arrived == count; });
                }
            }
            try {
                fn(index);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (!firstError) {
                    firstError = std::current_exception();
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    if (firstError) {
        std::rethrow_exception(firstError);
    }
}

// --- TaskPool --------------------------------------------------------------

struct TaskPool::Impl {
    struct Job {
        std::uint64_t begin = 0;
        std::uint64_t grain = 1;
        std::uint64_t numChunks = 0;
        std::uint64_t rangeEnd = 0;
        detail::ChunkFnRef* chunk = nullptr;
        std::atomic<std::uint64_t> nextChunk{0};
        std::atomic<std::uint64_t> chunksDone{0};
        std::atomic<bool> aborted{false};
        std::exception_ptr error; ///< first chunk exception; guarded by errorMutex
        std::mutex errorMutex;
    };

    std::mutex mutex;             ///< guards job/generation/stopping
    std::condition_variable wake; ///< workers: a new job is available
    std::condition_variable done; ///< submitter: all chunks completed
    // shared_ptr, not a raw pointer: a worker that wakes late may still be
    // inside work() (claiming zero chunks) after every chunk has completed
    // and the submitter has moved on — its reference keeps the Job alive
    // past the submitter's frame.
    std::shared_ptr<Job> job;
    std::uint64_t generation = 0;
    bool stopping = false;
    std::mutex submitMutex; ///< one parallel region at a time
    std::vector<std::thread> workers;

    /// Claim and execute chunks of `active` until none remain.
    void work(Job& active) {
        RegionGuard inRegion;
        for (;;) {
            const std::uint64_t c = active.nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= active.numChunks) {
                return;
            }
            if (!active.aborted.load(std::memory_order_relaxed)) {
                const std::uint64_t chunkBegin = active.begin + c * active.grain;
                const std::uint64_t chunkEnd = chunkBegin + active.grain < active.rangeEnd
                                                   ? chunkBegin + active.grain
                                                   : active.rangeEnd;
                try {
                    (*active.chunk)(chunkBegin, chunkEnd);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(active.errorMutex);
                    if (!active.error) {
                        active.error = std::current_exception();
                    }
                    active.aborted.store(true, std::memory_order_relaxed);
                }
            }
            if (active.chunksDone.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                active.numChunks) {
                const std::lock_guard<std::mutex> lock(mutex);
                done.notify_all();
            }
        }
    }

    void workerLoop() {
        std::uint64_t lastGeneration = 0;
        for (;;) {
            std::shared_ptr<Job> active;
            {
                std::unique_lock<std::mutex> lock(mutex);
                wake.wait(lock, [&] {
                    return stopping || (job != nullptr && generation != lastGeneration);
                });
                if (stopping) {
                    return;
                }
                active = job;
                lastGeneration = generation;
            }
            work(*active);
        }
    }
};

TaskPool::TaskPool(unsigned threads) : impl_(new Impl), threads_(threads == 0 ? 1U : threads) {
    impl_->workers.reserve(threads_ - 1);
    for (unsigned i = 0; i + 1 < threads_; ++i) {
        impl_->workers.emplace_back([impl = impl_] { impl->workerLoop(); });
    }
}

TaskPool::~TaskPool() {
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->wake.notify_all();
    for (std::thread& worker : impl_->workers) {
        worker.join();
    }
    delete impl_;
}

void TaskPool::run(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
                   detail::ChunkFnRef chunk) {
    if (begin >= end) {
        return;
    }
    if (grain == 0) {
        grain = 1;
    }
    const auto job = std::make_shared<Impl::Job>();
    job->begin = begin;
    job->grain = grain;
    job->numChunks = detail::chunkCount(begin, end, grain);
    job->rangeEnd = end;
    job->chunk = &chunk;

    const std::lock_guard<std::mutex> submission(impl_->submitMutex);
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->job = job;
        ++impl_->generation;
    }
    impl_->wake.notify_all();
    impl_->work(*job); // the submitting thread is worker number `threads_`
    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        impl_->done.wait(lock, [&] {
            return job->chunksDone.load(std::memory_order_acquire) == job->numChunks;
        });
        impl_->job.reset();
    }
    // All chunks have completed, so `chunk` (a reference into the caller's
    // frame) is no longer reachable: a straggling worker still holding the
    // shared Job can only observe an exhausted chunk counter.
    if (job->error) {
        std::rethrow_exception(job->error);
    }
}

// --- global configuration --------------------------------------------------

namespace {

std::mutex globalMutex;
// shared_ptr: a reconfiguration must not pull the pool out from under a
// thread that is mid-region. runOnPool holds its own reference for the
// duration of the submission; setGlobalThreads merely drops the global
// one, and the old pool is destroyed (joining its workers) when the last
// in-flight submitter releases it.
std::shared_ptr<TaskPool> globalPoolPtr;
unsigned globalThreadCount = 0; // 0 = not resolved yet

/// Resolve (if needed) and return the global count; caller holds globalMutex.
unsigned resolvedGlobalThreadsLocked() {
    if (globalThreadCount == 0) {
        globalThreadCount = resolveThreadCount(0);
    }
    return globalThreadCount;
}

} // namespace

unsigned globalThreads() {
    const std::lock_guard<std::mutex> lock(globalMutex);
    return resolvedGlobalThreadsLocked();
}

ExecutionConfig globalExecutionConfig() { return ExecutionConfig{globalThreads()}; }

void setGlobalThreads(unsigned threads) {
    ensureThat(!insideParallelRegion(),
               "setGlobalThreads: cannot reconfigure from inside a parallel region");
    const unsigned resolved = resolveThreadCount(threads);
    std::shared_ptr<TaskPool> retired;
    {
        const std::lock_guard<std::mutex> lock(globalMutex);
        if (resolved == globalThreadCount) {
            return;
        }
        retired = std::move(globalPoolPtr);
        globalThreadCount = resolved;
    }
    // `retired` (and with it the worker join) is released outside the lock;
    // a region in flight on another thread keeps the old pool alive through
    // its own reference and finishes undisturbed at the old width.
}

ScopedThreadCount::ScopedThreadCount(unsigned threads) {
    if (threads == 0 || insideParallelRegion()) {
        return;
    }
    previous_ = globalThreads();
    if (threads != previous_) {
        setGlobalThreads(threads);
        changed_ = true;
    }
}

ScopedThreadCount::~ScopedThreadCount() {
    if (changed_) {
        setGlobalThreads(previous_);
    }
}

namespace detail {

void runOnPool(std::uint64_t begin, std::uint64_t end, std::uint64_t grain, ChunkFnRef chunk) {
    std::shared_ptr<TaskPool> pool;
    {
        const std::lock_guard<std::mutex> lock(globalMutex);
        const unsigned threads = resolvedGlobalThreadsLocked();
        if (threads > 1 && !globalPoolPtr) {
            globalPoolPtr = std::make_shared<TaskPool>(threads);
        }
        pool = globalPoolPtr; // own reference: outlives any reconfiguration
    }
    if (pool == nullptr) {
        // The configuration dropped to 1 thread between the caller's check
        // and now; run inline.
        chunk(begin, end);
        return;
    }
    pool->run(begin, end, grain, chunk);
}

} // namespace detail

} // namespace mqsp::parallel
