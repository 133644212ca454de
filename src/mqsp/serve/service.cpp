#include "mqsp/serve/service.hpp"

#include "mqsp/circuit/qasm.hpp"
#include "mqsp/states/family.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>

namespace mqsp::serve {

namespace {

constexpr const char* kHelpLine =
    "OK commands: PREP:<ghz|w|embw|uniform|dicke|cyclic|random> --dims <spec> "
    "[--weight n] [--count n] [--seed n] [--approx f] | VERIFY [--id n] [--repeat k] | "
    "BATCH | STREAM --dims <spec> [--checkpoint k] | APPEND [--id n] --gate <stmt> | "
    "REVERIFY [--id n] | DROP --id n | GC | STATS? | LIMITS? | HELP | QUIT";

[[nodiscard]] std::string fixed(double value, int precision) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return buffer;
}

[[nodiscard]] std::string u64(std::uint64_t value) { return std::to_string(value); }

/// Reject options the verb does not define, so a typo ("--wieght") fails
/// loudly instead of silently using the default.
void rejectUnknownOptions(const Request& request,
                          std::initializer_list<std::string_view> allowed) {
    for (const auto& [key, value] : request.options) {
        const bool known = std::any_of(allowed.begin(), allowed.end(),
                                       [&key](std::string_view name) { return key == name; });
        requireThat(known, std::string(verbName(request.verb)) +
                               " does not take option --" + parse::clipForMessage(key));
    }
}

/// The value of option `flag` (spelled as a client writes it, "--weight"),
/// or `fallback` when the request does not set it.
[[nodiscard]] std::uint64_t uintOption(const Request& request, std::string_view flag,
                                       std::uint64_t fallback) {
    const std::string* text = request.option(flag.substr(2));
    return text == nullptr ? fallback : parse::uint64(*text, flag);
}

} // namespace

VerificationService::VerificationService(ServiceLimits limits, parallel::ExecutionConfig config)
    : limits_(limits),
      gcWatermark_(limits.gcWatermarkNodes != 0 ? limits.gcWatermarkNodes
                                                : limits.maxSessionNodes * 8 / 10),
      gcTrigger_(gcWatermark_),
      backend_(makeBackend(BackendKind::Dd, config)) {}

Response VerificationService::handleLine(const std::string& rawLine) {
    // Blank lines and '#' comments are script sugar, not commands.
    const auto firstGlyph = rawLine.find_first_not_of(" \t\r");
    if (firstGlyph == std::string::npos || rawLine[firstGlyph] == '#') {
        return Response{};
    }
    commands_.fetch_add(1, std::memory_order_relaxed);
    // The latency clock starts before parsing and stops after dispatch —
    // lock wait is part of what a client experiences, so it is part of
    // the number. Parse failures have no verb to attribute to and are
    // visible through the `errors` counter instead.
    const auto started = std::chrono::steady_clock::now();
    bool verbKnown = false;
    Verb verb = Verb::Help;
    const auto recordLatency = [&]() noexcept {
        if (!verbKnown) {
            return;
        }
        const auto elapsed = std::chrono::steady_clock::now() - started;
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
        latency_[static_cast<std::size_t>(verb)].record(
            ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    };
    try {
        requireThat(rawLine.size() <= limits_.maxLineLength,
                    "line too long (" + u64(rawLine.size()) + " > " +
                        u64(limits_.maxLineLength) + " bytes)");
        // Parsing is pure on the line text: it runs outside any lock.
        const Request request = parseRequest(rawLine);
        verb = request.verb;
        verbKnown = true;
        std::string reply;
        if (isReadPathVerb(verb)) {
            if (verb == Verb::Stats) {
                // Snapshot under the shared lock, format after release —
                // the read path never holds the lock across string
                // building (rejectUnknownOptions is pure on the request).
                rejectUnknownOptions(request, {});
                StatsSnapshot snapshot;
                {
                    const support::SharedLockGuard guard(dispatchLock_);
                    if (readPathHook_) {
                        readPathHook_(verb);
                    }
                    snapshot = snapshotStats();
                }
                reply = formatStats(snapshot);
            } else {
                const support::SharedLockGuard guard(dispatchLock_);
                if (readPathHook_) {
                    readPathHook_(verb);
                }
                reply = dispatchRead(request);
            }
            // VERIFY replays intern fresh intermediates into the session,
            // so reads can push the pool over the watermark; collect
            // outside the shared section (the writer lock is taken
            // inside). BATCH items replay on worker sessions and add
            // nothing here.
            maybeAutoGc();
        } else {
            const support::ExclusiveLockGuard guard(dispatchLock_);
            reply = dispatchWrite(request);
        }
        recordLatency();
        return Response{std::move(reply), verb == Verb::Quit};
    } catch (const std::exception& error) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        recordLatency();
        return Response{std::string("ERR ") + error.what(), false};
    }
}

std::string VerificationService::dispatchRead(const Request& request) {
    switch (request.verb) {
    case Verb::Verify:
        return handleVerify(request);
    case Verb::Batch:
        return handleBatch(request);
    case Verb::Limits:
        return handleLimits(request);
    case Verb::Help:
        rejectUnknownOptions(request, {});
        return kHelpLine;
    case Verb::Stats: // snapshot/format split lives in handleLine
    default:
        break;
    }
    detail::throwInternal("dispatchRead: unhandled verb");
}

std::string VerificationService::dispatchWrite(const Request& request) {
    switch (request.verb) {
    case Verb::Prep: {
        std::string reply = handlePrep(request);
        // The watermark policy runs while the writer lock is already
        // held: a PREP that pushes the pool over the mark pays for its
        // own collection.
        collectIfOverWatermarkLocked();
        return reply;
    }
    case Verb::Stream: {
        std::string reply = handleStream(request);
        collectIfOverWatermarkLocked();
        return reply;
    }
    case Verb::Append: {
        std::string reply = handleAppend(request);
        collectIfOverWatermarkLocked();
        return reply;
    }
    case Verb::Reverify: {
        std::string reply = handleReverify(request);
        collectIfOverWatermarkLocked();
        return reply;
    }
    case Verb::Drop:
        return handleDrop(request);
    case Verb::Gc:
        return handleGc(request);
    case Verb::Quit:
        rejectUnknownOptions(request, {});
        return "OK bye";
    default:
        break;
    }
    detail::throwInternal("dispatchWrite: unhandled verb");
}

bool VerificationService::collectIfOverWatermarkLocked() {
    const auto session = backend_->ddSession();
    if (session->poolNodes() <= gcTrigger_.load(std::memory_order_relaxed)) {
        return false;
    }
    const dd::DdSessionGcStats stats = session->garbageCollect(registry_.liveDiagrams());
    autoGcRuns_.fetch_add(1, std::memory_order_relaxed);
    // Ratchet: if the live set alone is over the watermark, collecting
    // again before the pool grows would be futile — require growth past
    // what this collection could not reclaim.
    gcTrigger_.store(std::max(gcWatermark_, stats.nodesAfter), std::memory_order_relaxed);
    return true;
}

void VerificationService::maybeAutoGc() {
    // Cheap unlocked check first — the common case is "under the mark".
    if (backend_->ddSession()->poolNodes() <=
        gcTrigger_.load(std::memory_order_relaxed)) {
        return;
    }
    const support::ExclusiveLockGuard guard(dispatchLock_);
    // Re-check under the writer lock: another thread may have collected
    // between the check and the acquisition.
    collectIfOverWatermarkLocked();
}

std::string VerificationService::handlePrep(const Request& request) {
    rejectUnknownOptions(request, {"dims", "weight", "count", "seed", "approx"});
    const std::string* dimsText = request.option("dims");
    requireThat(dimsText != nullptr, "PREP requires --dims <spec> (e.g. --dims 3,6,2)");
    const Dimensions dims = parseDimensionSpec(*dimsText);
    const MixedRadix radix(dims);

    // Admission: per-request amplitude ceiling, then the session node
    // budget — a full pool refuses new work but keeps serving the old.
    requireThat(radix.totalDimension() <= limits_.maxAmplitudes,
                "admission: register has " + u64(radix.totalDimension()) +
                    " amplitudes, over the service limit of " + u64(limits_.maxAmplitudes) +
                    " (see LIMITS?)");
    const auto session = backend_->ddSession();
    const std::uint64_t poolNodes = session->poolNodes();
    requireThat(poolNodes <= limits_.maxSessionNodes,
                "admission: session node budget exhausted (" + u64(poolNodes) + " > " +
                    u64(limits_.maxSessionNodes) + " dd nodes) — run GC or DROP idle targets");

    const std::optional<states::Family> known = states::familyNamed(request.family);
    requireThat(known.has_value(), "unknown state family '" +
                                       parse::clipForMessage(request.family) +
                                       "' (ghz, w, embw, uniform, dicke, cyclic, random)");
    states::FamilySpec family = states::defaultSpec(*known, dims);
    const std::uint64_t maxWeight = states::maxDickeWeight(dims);
    family.weight = uintOption(request, "--weight", family.weight);
    requireThat(family.family == states::Family::Dicke || request.option("weight") == nullptr,
                "--weight only applies to PREP:DICKE");
    requireThat(family.weight <= maxWeight,
                "--weight needs a value in [0, " + u64(maxWeight) +
                    "] for this register (sum of dim_i - 1), got " + u64(family.weight));
    const std::uint64_t countRaw = uintOption(request, "--count", family.count);
    requireThat(family.family == states::Family::Cyclic || request.option("count") == nullptr,
                "--count only applies to PREP:CYCLIC");
    requireThat(countRaw >= 1 && countRaw <= std::numeric_limits<std::uint32_t>::max(),
                "--count needs a value in [1, 2^32)");
    family.count = static_cast<std::uint32_t>(countRaw);
    family.seed = uintOption(request, "--seed", family.seed);
    requireThat(family.family == states::Family::Random || request.option("seed") == nullptr,
                "--seed only applies to PREP:RANDOM");

    const std::string* approxText = request.option("approx");
    double threshold = 1.0;
    if (approxText != nullptr) {
        threshold = parse::real(*approxText, "--approx");
        requireThat(threshold > 0.0 && threshold <= 1.0, "--approx needs a fidelity in (0, 1]");
    }

    SynthesisOptions options;
    options.emitIdentityOperations = false;
    options.circuitName = request.family;
    options.tolerance = session->tolerance();

    PreparedTarget entry;
    entry.family = request.family;
    entry.dims = formatDimensionSpec(dims);
    entry.approx = approxText != nullptr;
    entry.threshold = threshold;

    // One path for every family: the target is built once (random states
    // split their dense vector), then approximated when asked — on a store
    // of its own, so the resident target stays the exact state — and
    // synthesized. An --approx target is built on a fresh session and
    // interned as the resident one: on the session its nodes would carry
    // the bits of whichever earlier target first interned a bucket-equal
    // key, so a cut on the budget boundary would depend on history.
    if (family.family == states::Family::Random) {
        requireThat(radix.totalDimension() <= kDenseBackendCeiling,
                    "PREP:RANDOM builds a dense amplitude vector, and the register has " +
                        u64(radix.totalDimension()) + " amplitudes (dense ceiling " +
                        u64(kDenseBackendCeiling) + ")");
    }
    PreparationResult result;
    if (approxText != nullptr) {
        const dd::DdSession fresh(session->tolerance());
        DecisionDiagram target = states::makeDiagram(family, dims, &fresh);
        entry.target = EvalState(session->intern(target));
        result = prepareApproximated(std::move(target), threshold, options);
    } else {
        DecisionDiagram target = states::makeDiagram(family, dims, session.get());
        entry.target = EvalState(target);
        result = prepareExact(std::move(target), options);
    }
    entry.circuit = std::move(result.circuit);

    const PreparedTarget& stored = registry_.add(std::move(entry));
    prepared_.fetch_add(1, std::memory_order_relaxed);
    std::string reply = "OK id=" + u64(stored.id) + " family=" + stored.family +
                        " dims=" + stored.dims + " amplitudes=" + u64(radix.totalDimension()) +
                        " ops=" + u64(stored.circuit.operations().size()) +
                        " dd_nodes=" + u64(session->poolNodes());
    if (approxText != nullptr) {
        reply += " approx_fidelity=" + fixed(result.approx.fidelity, 9);
    }
    return reply;
}

PreparedTarget& VerificationService::residentEntry(const Request& request) {
    PreparedTarget* entry = nullptr;
    if (const std::string* idText = request.option("id")) {
        const std::uint64_t id = parse::uint64(*idText, "--id");
        entry = registry_.find(id);
        requireThat(entry != nullptr, "no prepared target with id " + u64(id) +
                                          " (dropped, collected, or never prepared)");
    } else {
        entry = registry_.newest();
        requireThat(entry != nullptr, "nothing prepared yet — run PREP:<FAMILY> first");
    }
    return *entry;
}

std::string VerificationService::handleVerify(const Request& request) {
    rejectUnknownOptions(request, {"id", "repeat"});
    PreparedTarget* entry = &residentEntry(request);
    requireThat(entry->kind == PreparedTarget::Kind::Prepared,
                "target " + u64(entry->id) +
                    " is a STREAM session — use REVERIFY to check it");
    const std::uint64_t repeat = uintOption(request, "--repeat", 1);
    requireThat(repeat >= 1 && repeat <= limits_.maxVerifyRepeat,
                "--repeat needs a value in [1, " + u64(limits_.maxVerifyRepeat) + "]");

    const VerifyReport report =
        backend_->verify(VerifyRequest{&entry->circuit, &entry->target, repeat, 0});
    requireThat(!report.failed, report.error);
    verified_.fetch_add(repeat, std::memory_order_relaxed);
    return "OK id=" + u64(entry->id) + " fidelity=" + fixed(report.fidelity, 9) +
           " repeats=" + u64(repeat);
}

std::string VerificationService::handleBatch(const Request& request) {
    rejectUnknownOptions(request, {});
    requireThat(registry_.size() > 0, "nothing prepared yet — run PREP:<FAMILY> first");
    std::vector<VerifyRequest> items;
    items.reserve(registry_.size());
    for (const PreparedTarget& entry : registry_.entries()) {
        // Stream sessions have no preparation circuit to replay — they are
        // REVERIFY's business, not the batch's.
        if (entry.kind != PreparedTarget::Kind::Prepared) {
            continue;
        }
        items.push_back(VerifyRequest{&entry.circuit, &entry.target, 1, 0});
    }
    requireThat(!items.empty(), "nothing prepared yet — run PREP:<FAMILY> first");
    const std::vector<VerifyReport> results = backend_->verifyBatch(items);
    std::size_t failures = 0;
    double minFidelity = 1.0;
    for (const VerifyReport& result : results) {
        if (result.failed) {
            ++failures;
        } else {
            minFidelity = std::min(minFidelity, result.fidelity);
        }
    }
    verified_.fetch_add(results.size(), std::memory_order_relaxed);
    std::string reply = "OK items=" + u64(items.size()) + " failures=" + u64(failures);
    if (failures < results.size()) {
        reply += " min_fidelity=" + fixed(minFidelity, 9);
    }
    return reply;
}

std::string VerificationService::handleStream(const Request& request) {
    rejectUnknownOptions(request, {"dims", "checkpoint"});
    const std::string* dimsText = request.option("dims");
    requireThat(dimsText != nullptr, "STREAM requires --dims <spec> (e.g. --dims 3,6,2)");
    const Dimensions dims = parseDimensionSpec(*dimsText);
    const MixedRadix radix(dims);

    // Same admission gates as PREP: the streamed state lives in the shared
    // session like any prepared target.
    requireThat(radix.totalDimension() <= limits_.maxAmplitudes,
                "admission: register has " + u64(radix.totalDimension()) +
                    " amplitudes, over the service limit of " + u64(limits_.maxAmplitudes) +
                    " (see LIMITS?)");
    const auto session = backend_->ddSession();
    const std::uint64_t poolNodes = session->poolNodes();
    requireThat(poolNodes <= limits_.maxSessionNodes,
                "admission: session node budget exhausted (" + u64(poolNodes) + " > " +
                    u64(limits_.maxSessionNodes) + " dd nodes) — run GC or DROP idle targets");

    PreparedTarget entry;
    entry.kind = PreparedTarget::Kind::Stream;
    entry.family = "stream";
    entry.dims = formatDimensionSpec(dims);
    entry.circuit = Circuit(dims, "stream"); // empty: carries the register only
    entry.target = backend_->zeroState(dims);
    entry.checkpointInterval = uintOption(request, "--checkpoint", 0);

    const PreparedTarget& stored = registry_.add(std::move(entry));
    streams_.fetch_add(1, std::memory_order_relaxed);
    return "OK id=" + u64(stored.id) + " family=stream dims=" + stored.dims +
           " checkpoint=" + u64(stored.checkpointInterval) +
           " dd_nodes=" + u64(session->poolNodes());
}

std::string VerificationService::handleAppend(const Request& request) {
    rejectUnknownOptions(request, {"id", "gate"});
    PreparedTarget& entry = residentEntry(request);
    const std::string* gateText = request.option("gate");
    requireThat(gateText != nullptr, "APPEND requires --gate <statement> "
                                     "(e.g. --gate h q[0];)");
    const Operation op = parseQasmStatement(*gateText, entry.circuit.radix());

    std::string reply = "OK id=" + u64(entry.id);
    if (entry.kind == PreparedTarget::Kind::Stream) {
        // Streaming replay: the gate goes straight into the resident state
        // — O(diagram) space however many gates arrive.
        backend_->apply(entry.target, op);
        ++entry.streamOps;
        reply += " kind=stream ops=" + u64(entry.streamOps);
        if (entry.checkpointInterval != 0 &&
            entry.streamOps % entry.checkpointInterval == 0) {
            ++entry.checkpointCount;
            reply += " checkpoint=" + u64(entry.checkpointCount) +
                     " fidelity=" + fixed(entry.target.normSquared(), 9);
        }
    } else {
        // Prepared target: the delta grows the circuit AND advances the
        // target, leaving the replay cursor behind for REVERIFY to catch
        // up on incrementally.
        entry.circuit.append(op);
        backend_->apply(entry.target, op);
        reply += " kind=prepared ops=" + u64(entry.circuit.numOperations());
    }
    appended_.fetch_add(1, std::memory_order_relaxed);
    reply += " dd_nodes=" + u64(backend_->ddSession()->poolNodes());
    return reply;
}

std::string VerificationService::handleReverify(const Request& request) {
    rejectUnknownOptions(request, {"id"});
    PreparedTarget& entry = residentEntry(request);
    reverified_.fetch_add(1, std::memory_order_relaxed);
    if (entry.kind == PreparedTarget::Kind::Stream) {
        // A stream has no independent target; the check is the unitarity
        // invariant — the streamed state's norm² must still be 1.
        return "OK id=" + u64(entry.id) + " kind=stream fidelity=" +
               fixed(entry.target.normSquared(), 9) + " ops=" + u64(entry.streamOps) +
               " checkpoints=" + u64(entry.checkpointCount) +
               " dd_nodes=" + u64(backend_->ddSession()->poolNodes());
    }
    if (!entry.hasReplay) {
        entry.replay = backend_->zeroState(entry.circuit.dimensions());
        entry.hasReplay = true;
        entry.replayedOps = 0;
    }
    // O(1) root snapshot (same store) — the diff measures what the delta
    // replay changed structurally.
    const DecisionDiagram before = entry.replay.diagram();
    const VerifyReport report =
        backend_->reverifyAppended(entry.circuit, entry.replayedOps, entry.replay, entry.target);
    const std::uint64_t deltaOps = entry.circuit.numOperations() - entry.replayedOps;
    entry.replayedOps = entry.circuit.numOperations();
    const dd::DiagramDiffStats diff = dd::diffDiagrams(before, entry.replay.diagram());
    return "OK id=" + u64(entry.id) + " kind=prepared fidelity=" + fixed(report.fidelity, 9) +
           " delta_ops=" + u64(deltaOps) + " total_ops=" + u64(entry.replayedOps) +
           " shared_nodes=" + u64(diff.shared) + " new_nodes=" + u64(diff.added) +
           " dropped_nodes=" + u64(diff.removed) + " cache_lookups=" + u64(report.cacheLookups) +
           " cache_hits=" + u64(report.cacheHits) + " dd_nodes=" + u64(report.ddNodes);
}

std::string VerificationService::handleDrop(const Request& request) {
    rejectUnknownOptions(request, {"id"});
    const std::string* idText = request.option("id");
    requireThat(idText != nullptr, "DROP requires --id <n>");
    const std::uint64_t id = parse::uint64(*idText, "--id");
    requireThat(registry_.drop(id), "no prepared target with id " + u64(id));
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return "OK dropped=" + u64(id) + " resident=" + u64(registry_.size());
}

std::string VerificationService::handleGc(const Request& request) {
    rejectUnknownOptions(request, {});
    const auto session = backend_->ddSession();
    const dd::DdSessionGcStats stats = session->garbageCollect(registry_.liveDiagrams());
    gcRuns_.fetch_add(1, std::memory_order_relaxed);
    // An explicit GC re-derives the auto-trigger too: if it shrank the
    // live set's footprint, automatic collection resumes at the watermark.
    gcTrigger_.store(std::max(gcWatermark_, stats.nodesAfter), std::memory_order_relaxed);
    return "OK nodes_before=" + u64(stats.nodesBefore) + " nodes_after=" + u64(stats.nodesAfter) +
           " cache_evicted=" + u64(stats.cacheEntriesEvicted) +
           " live_roots=" + u64(stats.liveRoots);
}

VerificationService::StatsSnapshot VerificationService::snapshotStats() const {
    StatsSnapshot snapshot;
    snapshot.dd = backend_->ddSession()->stats();
    snapshot.resident = registry_.size();
    snapshot.prepared = prepared_.load(std::memory_order_relaxed);
    snapshot.dropped = dropped_.load(std::memory_order_relaxed);
    snapshot.verified = verified_.load(std::memory_order_relaxed);
    snapshot.streams = streams_.load(std::memory_order_relaxed);
    snapshot.appended = appended_.load(std::memory_order_relaxed);
    snapshot.reverified = reverified_.load(std::memory_order_relaxed);
    snapshot.gcRuns = gcRuns_.load(std::memory_order_relaxed);
    snapshot.autoGcRuns = autoGcRuns_.load(std::memory_order_relaxed);
    snapshot.commands = commands_.load(std::memory_order_relaxed);
    snapshot.errors = errors_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kVerbCount; ++i) {
        const support::LatencyHistogram& histogram = latency_[i];
        StatsSnapshot::VerbLatency& verb = snapshot.verbs[i];
        verb.key = verbMetricKey(static_cast<Verb>(i));
        verb.count = histogram.count();
        verb.p50Ns = histogram.quantileNs(0.50);
        verb.p99Ns = histogram.quantileNs(0.99);
        verb.maxNs = histogram.maxNs();
    }
    return snapshot;
}

std::string VerificationService::formatStats(const StatsSnapshot& snapshot) {
    std::string reply =
        "OK dd_nodes=" + u64(snapshot.dd.poolNodes) +
        " unique_hit_rate=" + fixed(snapshot.dd.uniqueHitRate(), 3) +
        " cache_hit_rate=" + fixed(snapshot.dd.cacheHitRate(), 3) +
        " cache_hits=" + u64(snapshot.dd.cache.hits) +
        " cache_evictions=" + u64(snapshot.dd.cache.evictions) +
        " resident=" + u64(snapshot.resident) + " prepared=" + u64(snapshot.prepared) +
        " dropped=" + u64(snapshot.dropped) + " verified=" + u64(snapshot.verified) +
        " streams=" + u64(snapshot.streams) + " appended=" + u64(snapshot.appended) +
        " reverified=" + u64(snapshot.reverified) +
        " gc_runs=" + u64(snapshot.gcRuns) + " auto_gc_runs=" + u64(snapshot.autoGcRuns) +
        " commands=" + u64(snapshot.commands) + " errors=" + u64(snapshot.errors);
    // Per-verb latency, only for verbs actually seen. Counts are
    // deterministic; latencies are measurements. A command's latency is
    // recorded after its reply is built, so a STATS? never reports itself.
    for (const StatsSnapshot::VerbLatency& verb : snapshot.verbs) {
        if (verb.count == 0) {
            continue;
        }
        const std::string key = verb.key;
        reply += " " + key + ".count=" + u64(verb.count) +
                 " " + key + ".p50_us=" + fixed(static_cast<double>(verb.p50Ns) / 1000.0, 1) +
                 " " + key + ".p99_us=" + fixed(static_cast<double>(verb.p99Ns) / 1000.0, 1) +
                 " " + key + ".max_us=" + fixed(static_cast<double>(verb.maxNs) / 1000.0, 1);
    }
    return reply;
}

std::string VerificationService::handleLimits(const Request& request) {
    rejectUnknownOptions(request, {});
    return "OK max_amplitudes=" + u64(limits_.maxAmplitudes) +
           " max_nodes=" + u64(limits_.maxSessionNodes) +
           " max_line=" + u64(limits_.maxLineLength) +
           " max_repeat=" + u64(limits_.maxVerifyRepeat) +
           " gc_watermark=" + u64(gcWatermark_);
}

} // namespace mqsp::serve
