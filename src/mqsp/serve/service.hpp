#pragma once

// The mqsp_serve dispatcher: one resident VerificationService multiplexes
// every client (stdio or TCP) onto a single DdBackend — one shared
// DdSession stays hot across requests, so repeat verifications resolve
// from the session compute cache and structurally shared targets intern
// into one pool.
//
// Dispatch is a reader-writer discipline over one writer-preference
// RwLock (support/rwlock.hpp), not a single mutex: read-path verbs
// (VERIFY, BATCH, STATS?, LIMITS?, HELP) execute concurrently from
// different client threads — they never mutate the registry, and the
// shared session's uniquing table is sharded and its compute cache
// striped precisely so concurrent VERIFYs may intern into it (see "DD
// session memory" in docs/ARCHITECTURE.md). BATCH reads the resident
// targets but replays each item on a worker session of the backend's
// own, so it adds nothing to the shared session. Write-path verbs
// (PREP, STREAM, APPEND, REVERIFY, DROP, GC, QUIT) take exclusive
// ownership: they append to / erase from the registry (invalidating
// entry references readers may hold), mutate entry state (the streamed
// diagram, the replay cursor), or remap diagram roots (GC's compaction),
// so they run at quiescence. Writer preference is what keeps GC schedulable under a
// stream of readers — a waiting writer stops new readers and drains the
// active ones instead of starving.
//
// Observability: every dispatched command records its wall latency into
// a per-verb lock-free LatencyHistogram (support/latency_histogram.hpp);
// STATS? reports <verb>.count/.p50_us/.p99_us/.max_us for every verb
// seen. The counts are deterministic (they depend only on the commands
// issued, never on timing), so bench baselines gate them; the latencies
// themselves are not.
//
// Session GC runs in two modes: the explicit GC verb, and an automatic
// high-water-mark policy — when the pool grows past the watermark
// (default 80% of the --max-nodes budget, override with --gc-watermark)
// the service takes the writer lock at the next opportunity and runs the
// same mark-and-compact, so a long-lived session stays under budget
// without any client ever issuing GC.
//
// Admission limits make the service survivable under hostile or
// fat-fingered traffic: a per-request amplitude ceiling (one PREP of a
// 2^30 register cannot take the process down), a session node budget
// (PREP refuses when the pool is over budget, pointing at GC/DROP), and a
// line-length ceiling enforced before parsing.

#include "mqsp/serve/protocol.hpp"
#include "mqsp/serve/registry.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/support/latency_histogram.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/support/rwlock.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace mqsp::serve {

/// Admission limits of one service instance (see the flags on mqsp_serve).
struct ServiceLimits {
    /// Largest register one PREP may name, in amplitudes. Structured
    /// families build as diagrams, so this is well past the dense ceiling;
    /// it bounds digit-walk work and refuses absurd registers up front.
    std::uint64_t maxAmplitudes = std::uint64_t{1} << 28U;
    /// Session node budget: PREP refuses while the pool holds more nodes,
    /// pointing the client at GC (or DROP). Verification of already
    /// prepared targets keeps working — the budget gates new admissions,
    /// it does not kill the session.
    std::uint64_t maxSessionNodes = std::uint64_t{1} << 20U;
    /// Longest accepted command line, in bytes; longer lines are refused
    /// before the parser sees them.
    std::size_t maxLineLength = 4096;
    /// Cap on VERIFY --repeat, bounding per-command work.
    std::uint64_t maxVerifyRepeat = 10000;
    /// Automatic-GC high-water mark in session nodes: when the pool grows
    /// past it, the service runs a mark-and-compact under the writer lock
    /// without waiting for an explicit GC. 0 = automatic (80% of
    /// maxSessionNodes).
    std::uint64_t gcWatermarkNodes = 0;
};

/// One reply line plus the connection verdict (QUIT closes).
struct Response {
    std::string line;
    bool closeConnection = false;
};

/// The resident dispatcher. Thread-safe: handleLine may be called from
/// concurrent client threads; read-path commands (VERIFY, BATCH, STATS?,
/// LIMITS?, HELP) from different clients execute concurrently, write-path
/// commands (PREP, STREAM, APPEND, REVERIFY, DROP, GC, QUIT) exclusively.
/// Every response is exactly one line, "OK ..." or "ERR ..." — handleLine
/// never throws.
class VerificationService {
public:
    explicit VerificationService(
        ServiceLimits limits = {},
        parallel::ExecutionConfig config = parallel::globalExecutionConfig());

    VerificationService(const VerificationService&) = delete;
    VerificationService& operator=(const VerificationService&) = delete;

    /// Execute one raw wire line. Blank lines and '#' comments produce an
    /// empty response line (nothing to send). Errors — parse failures,
    /// admission refusals, unknown ids — come back as "ERR <message>" and
    /// leave the service serving.
    [[nodiscard]] Response handleLine(const std::string& rawLine);

    [[nodiscard]] const ServiceLimits& limits() const noexcept { return limits_; }

    /// The automatic-GC trigger in effect (nodes; resolved from
    /// ServiceLimits::gcWatermarkNodes at construction).
    [[nodiscard]] std::uint64_t gcWatermark() const noexcept { return gcWatermark_; }

    /// The backing DD session (tests inspect pool sizes through this).
    [[nodiscard]] std::shared_ptr<dd::DdSession> session() const {
        return backend_->ddSession();
    }

    /// Test-only: `hook(verb)` runs on the read path while the shared
    /// lock is held, before the verb executes — the pin for the
    /// overlapping-readers contract (a hook that blocks one VERIFY must
    /// not stop a second reader from completing). Set before serving
    /// starts; never call handleLine from the hook.
    void setReadPathHookForTests(std::function<void(Verb)> hook) {
        readPathHook_ = std::move(hook);
    }

private:
    /// Point-in-time copy of everything STATS? reports, taken under the
    /// shared lock; the reply string is formatted after release so the
    /// read path never holds the lock across string building.
    struct StatsSnapshot {
        dd::DdSessionStats dd;
        std::uint64_t resident = 0;
        std::uint64_t prepared = 0;
        std::uint64_t dropped = 0;
        std::uint64_t verified = 0;
        std::uint64_t streams = 0;
        std::uint64_t appended = 0;
        std::uint64_t reverified = 0;
        std::uint64_t gcRuns = 0;
        std::uint64_t autoGcRuns = 0;
        std::uint64_t commands = 0;
        std::uint64_t errors = 0;
        struct VerbLatency {
            const char* key = "";
            std::uint64_t count = 0;
            std::uint64_t p50Ns = 0;
            std::uint64_t p99Ns = 0;
            std::uint64_t maxNs = 0;
        };
        std::array<VerbLatency, kVerbCount> verbs{};
    };

    [[nodiscard]] std::string dispatchRead(const Request& request);
    [[nodiscard]] std::string dispatchWrite(const Request& request);
    [[nodiscard]] std::string handlePrep(const Request& request);
    [[nodiscard]] std::string handleVerify(const Request& request);
    [[nodiscard]] std::string handleBatch(const Request& request);
    [[nodiscard]] std::string handleStream(const Request& request);
    [[nodiscard]] std::string handleAppend(const Request& request);
    [[nodiscard]] std::string handleReverify(const Request& request);
    [[nodiscard]] std::string handleDrop(const Request& request);
    [[nodiscard]] std::string handleGc(const Request& request);
    [[nodiscard]] std::string handleLimits(const Request& request);
    /// Entry named by --id, or the newest one; throws when absent.
    [[nodiscard]] PreparedTarget& residentEntry(const Request& request);
    [[nodiscard]] StatsSnapshot snapshotStats() const;
    [[nodiscard]] static std::string formatStats(const StatsSnapshot& snapshot);

    /// Run the mark-and-compact if the pool is over the current trigger;
    /// caller must hold the writer lock. Returns whether a collection ran.
    bool collectIfOverWatermarkLocked();
    /// Read-path epilogue: re-check the watermark and, when crossed,
    /// take the writer lock and collect (VERIFY replays intern new nodes,
    /// so reads can push the pool over the mark too).
    void maybeAutoGc();

    ServiceLimits limits_;
    std::uint64_t gcWatermark_ = 0;
    /// The pool size a collection must exceed to fire. Normally equal to
    /// gcWatermark_, but ratcheted up to the post-collection live-set size
    /// when a collection cannot get back under the mark — otherwise a
    /// saturated live set (live roots alone over the watermark) would make
    /// every subsequent command run a futile mark-and-compact. Any
    /// collection (automatic or the explicit GC verb) re-derives it as
    /// max(gcWatermark_, nodesAfter), so the trigger falls back to the
    /// watermark as soon as DROPs shrink the live set.
    std::atomic<std::uint64_t> gcTrigger_{0};
    std::unique_ptr<EvaluationBackend> backend_;
    SessionRegistry registry_;
    support::RwLock dispatchLock_; ///< readers share, writers exclude (writer-preference)
    std::function<void(Verb)> readPathHook_; ///< test-only (see setter)

    // Service counters, reported by STATS?. Relaxed atomics: read-path
    // commands bump them concurrently under the shared lock.
    std::atomic<std::uint64_t> commands_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> prepared_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> verified_{0};
    std::atomic<std::uint64_t> streams_{0};
    std::atomic<std::uint64_t> appended_{0};
    std::atomic<std::uint64_t> reverified_{0};
    std::atomic<std::uint64_t> gcRuns_{0};
    std::atomic<std::uint64_t> autoGcRuns_{0};

    /// Per-verb command latency (lock-free; indexed by the verb's enum
    /// value). Recorded after a command completes — including ERR replies,
    /// which are dispatched work like any other — never while a lock is
    /// held.
    std::array<support::LatencyHistogram, kVerbCount> latency_{};
};

} // namespace mqsp::serve
