#include "workloads.hpp"

#include "mqsp/approx/approximation.hpp"
#include "mqsp/circuit/qasm.hpp"
#include "mqsp/opt/optimizer.hpp"
#include "mqsp/serve/service.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

using namespace mqsp;

/// Fidelity bounds of the output checks.
constexpr double kExactBound = 1.0 - 1e-9;
constexpr double kApproxThreshold = 0.98;

/// Seed of the fixed warm-up requests (independent of the run seed, so
/// set-up does the same work in every run).
constexpr std::uint64_t kWarmupSeed = 0x5EED'0000'0000'0001ULL;

/// Request rates measured on the reference machine (4-vCPU KVM guest),
/// used only to turn --seconds into a fixed request count.
constexpr double kPrepVerifyPerSecond = 62.0;
constexpr double kSimStreamPerSecond = 80.0;
constexpr double kServeSessionPerSecond = 1950.0;
constexpr double kServeBatchPerSecond = 95.0;

/// About rate * seconds requests, in kRounds rounds of whole blocks.
std::uint64_t wholeBlocks(double rate, double seconds, std::uint64_t block) {
    const std::uint64_t round = kRounds * block;
    const auto wanted = static_cast<std::uint64_t>(std::llround(rate * seconds));
    return std::max<std::uint64_t>(1, (wanted + round / 2) / round) * round;
}

double ratio(double numerator, double denominator) {
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

std::string fidelityError(double fidelity, double bound) {
    if (fidelity >= bound) {
        return {};
    }
    std::ostringstream message;
    message.precision(12);
    message << "fidelity " << fidelity << " below its bound " << bound;
    return message.str();
}

SynthesisOptions cliSynthesisOptions() {
    // mqsp_prep without --faithful.
    SynthesisOptions options;
    options.emitIdentityOperations = false;
    options.circuitName = "from_file";
    return options;
}

/// Request `index` of a run and its seeded random state.
struct DenseInput {
    DenseRequest request;
    StateVector state;
};

DenseInput denseInput(std::uint64_t seed, std::uint64_t index) {
    DenseInput input{denseRequest(seed, index), {}};
    Rng rng(input.request.amplitudeSeed);
    input.state = states::random(denseRegisters()[input.request.registerIndex], rng);
    return input;
}

// --- prep-verify ----------------------------------------------------------------

/// `mqsp_prep --amplitudes f [--approx 0.98] --optimize --qasm --verify
/// --backend dense` without process start.
class PrepVerify final : public Workload {
public:
    static constexpr std::uint64_t kWarmupRequests = 20;

    explicit PrepVerify(const Options& options) : options_(options) {}

    void setUp() override {
        backend_ = std::make_unique<DenseBackend>(kDenseBackendCeiling,
                                                  parallel::ExecutionConfig{options_.width});
        Tracer off(false);
        for (std::uint64_t i = 0; i < kWarmupRequests; ++i) {
            (void)execute(denseInput(kWarmupSeed, i), i, off);
        }
    }

    void tearDown() override { backend_.reset(); }

    std::uint64_t requestCount(double seconds) const override {
        return wholeBlocks(kPrepVerifyPerSecond, seconds, denseBlockSize());
    }

    Outcome run(std::uint64_t index, Tracer& tracer) override {
        return execute(denseInput(options_.seed, index), index, tracer);
    }

    void layerCounters(Metrics& out) const override {
        out["dd.nodes"].value = ddNodes_;
        out["approx.removed_nodes"].value = approxRemoved_;
        out["synth.ops"].value = synthOps_;
        out["opt.ops_removed"].value = optRemoved_;
        out["circuit.qasm_bytes"].value = qasmBytes_;
        out["sim.amp_pairs_walked"].value = pairsWalked_;
        out["sim.amp_pairs_touched"].value = pairsTouched_;
        out["sim.useful_frac"].value = ratio(pairsTouched_, pairsWalked_);
    }

private:
    Outcome execute(const DenseInput& input, std::uint64_t index, Tracer& tracer) {
        const bool approx = input.request.approximate;
        const EvalState target(input.state);
        const SynthesisOptions options = cliSynthesisOptions();
        PreparationResult result;
        OptimizerReport optimized;
        std::string qasm;
        VerifyReport report;

        const std::int64_t start = wallNs();
        {
            const SpanScope request(tracer, "req.self_ms", index, true);
            if (!tracer.enabled()) {
                result = approx ? prepareApproximated(input.state, kApproxThreshold, options)
                                : prepareExact(input.state, options);
            } else {
                // The calls prepareExact/prepareApproximated are made of.
                {
                    const SpanScope span(tracer, "dd.construct_ms", index);
                    result.diagram =
                        DecisionDiagram::fromStateVector(input.state, options.tolerance);
                }
                if (approx) {
                    const SpanScope span(tracer, "approx.ms", index);
                    ApproximationOptions approxOptions;
                    approxOptions.fidelityThreshold = kApproxThreshold;
                    approxOptions.tolerance = options.tolerance;
                    result.approx = approximate(result.diagram, approxOptions);
                }
                const SpanScope span(tracer, "synth.ms", index);
                result.circuit = synthesize(result.diagram, options);
            }
            {
                const SpanScope span(tracer, "opt.ms", index);
                optimized = optimizeCircuit(result.circuit);
            }
            {
                const SpanScope span(tracer, "circuit.emit_ms", index);
                qasm = toQasm(result.circuit);
            }
            const SpanScope span(tracer, "sim.verify_ms", index);
            report = backend_->verify(VerifyRequest{&result.circuit, &target, 1, 0});
        }
        Outcome outcome;
        outcome.ns = wallNs() - start;

        const std::uint64_t nodes = result.diagram.nodeCount(NodeCountMode::Internal);
        outcome.circuitOps = result.circuit.numOperations();
        outcome.counts = "register=" + std::to_string(input.request.registerIndex) +
                         " approx=" + std::to_string(approx ? 1 : 0) +
                         " nodes=" + std::to_string(nodes) +
                         " synth_ops=" + std::to_string(optimized.opsBefore) +
                         " ops=" + std::to_string(outcome.circuitOps) +
                         " qasm_bytes=" + std::to_string(qasm.size());
        outcome.error = report.failed ? "verify failed: " + report.error
                                      : fidelityError(report.fidelity,
                                                      approx ? kApproxThreshold : kExactBound);
        if (tracer.enabled()) {
            ddNodes_ += static_cast<double>(nodes);
            approxRemoved_ += static_cast<double>(result.approx.removedInternalNodes);
            synthOps_ += static_cast<double>(optimized.opsBefore);
            optRemoved_ += static_cast<double>(optimized.opsBefore - optimized.opsAfter);
            qasmBytes_ += static_cast<double>(qasm.size());
            countKernelPairs(result.circuit);
        }
        return outcome;
    }

    /// Computed, not measured: per op, the dense kernel walks
    /// ∏dims / dim(target) amplitude pairs and touches the ones whose
    /// control digits match, ∏dims / (dim(target) * ∏ dim(control)).
    void countKernelPairs(const Circuit& circuit) {
        const auto& radix = circuit.radix();
        const double total = static_cast<double>(radix.totalDimension());
        for (const Operation& op : circuit.operations()) {
            const double walked = total / radix.dimensionAt(op.target);
            double touched = walked;
            for (const Control& control : op.controls) {
                touched /= radix.dimensionAt(control.qudit);
            }
            pairsWalked_ += walked;
            pairsTouched_ += touched;
        }
    }

    Options options_;
    std::unique_ptr<DenseBackend> backend_;
    double ddNodes_ = 0.0;
    double approxRemoved_ = 0.0;
    double synthOps_ = 0.0;
    double optRemoved_ = 0.0;
    double qasmBytes_ = 0.0;
    double pairsWalked_ = 0.0;
    double pairsTouched_ = 0.0;
};

// --- sim-stream -------------------------------------------------------------------

/// OperationSource decorator timing verifyStream from outside: each next()
/// is parse time, the gap between two next() calls is the backend applying
/// the previous gate, the time before the first next() is the target lift
/// and zero state, and the time after the last is the final overlap.
class TimedSource final : public OperationSource {
public:
    explicit TimedSource(OperationSource& inner) : inner_(inner), startNs_(wallNs()) {}

    const Dimensions& dimensions() const override { return inner_.dimensions(); }

    std::optional<Operation> next() override {
        const std::int64_t begin = wallNs();
        if (calls_ == 0) {
            firstCallNs_ = begin;
        } else {
            applyNs_ += begin - lastReturnNs_;
        }
        std::optional<Operation> op = inner_.next();
        lastReturnNs_ = wallNs();
        parseNs_ += lastReturnNs_ - begin;
        ++calls_;
        return op;
    }

    /// Record the split as aggregate spans; `endNs` is when verifyStream returned.
    void record(Tracer& tracer, std::uint64_t request, std::int64_t endNs) const {
        tracer.addAggregate("dd.construct_ms", request, startNs_, firstCallNs_,
                            firstCallNs_ - startNs_, 1);
        tracer.addAggregate("circuit.parse_ms", request, firstCallNs_, lastReturnNs_, parseNs_,
                            calls_);
        tracer.addAggregate("dd.apply_ms", request, firstCallNs_, lastReturnNs_, applyNs_,
                            calls_ - 1);
        tracer.addAggregate("dd.overlap_ms", request, lastReturnNs_, endNs, endNs - lastReturnNs_,
                            1);
    }

private:
    OperationSource& inner_;
    std::int64_t startNs_;
    std::int64_t firstCallNs_ = 0;
    std::int64_t lastReturnNs_ = 0;
    std::int64_t parseNs_ = 0;
    std::int64_t applyNs_ = 0;
    std::uint64_t calls_ = 0;
};

/// `mqsp_sim --stream --backend dd` over one circuit's MQSP-QASM text, with
/// the circuit's target: a fresh DdBackend, a GateStream, verifyStream.
class SimStream final : public Workload {
public:
    static constexpr std::uint64_t kWarmupRequests = 24;

    explicit SimStream(const Options& options) : options_(options) {}

    void setUp() override {
        Tracer off(false);
        for (std::uint64_t i = 0; i < kWarmupRequests; ++i) {
            (void)execute(kWarmupSeed, i, off);
        }
    }

    std::uint64_t requestCount(double seconds) const override {
        return wholeBlocks(kSimStreamPerSecond, seconds, denseBlockSize());
    }

    Outcome run(std::uint64_t index, Tracer& tracer) override {
        return execute(options_.seed, index, tracer);
    }

    void layerCounters(Metrics& out) const override {
        out["dd.unique_lookups"].value = uniqueLookups_;
        out["dd.unique_hit_rate"].value = ratio(uniqueHits_, uniqueLookups_);
        out["dd.cache_lookups"].value = cacheLookups_;
        out["dd.cache_hit_rate"].value = ratio(cacheHits_, cacheLookups_);
        out["dd.pool_nodes.max"].value = poolMax_;
    }

private:
    Outcome execute(std::uint64_t seed, std::uint64_t index, Tracer& tracer) {
        // Inputs: the circuit text compiled from a seeded random state, and
        // that state as the verification target.
        const DenseInput input = denseInput(seed, index);
        const bool approx = input.request.approximate;
        const SynthesisOptions options = cliSynthesisOptions();
        const PreparationResult compiled =
            approx ? prepareApproximated(input.state, kApproxThreshold, options)
                   : prepareExact(input.state, options);
        const std::string text = toQasm(compiled.circuit);
        const EvalState target(DecisionDiagram::fromStateVector(input.state));

        VerifyRequest request;
        request.target = &target;
        VerifyReport report;
        dd::DdSessionStats session;
        const std::int64_t start = wallNs();
        {
            const SpanScope span(tracer, "req.self_ms", index, true);
            const DdBackend backend(Tolerance::kDefault,
                                    parallel::ExecutionConfig{options_.width});
            std::istringstream in(text);
            std::optional<GateStream> stream;
            {
                const SpanScope parse(tracer, "circuit.parse_ms", index);
                stream.emplace(in);
            }
            if (tracer.enabled()) {
                TimedSource timed(*stream);
                report = backend.verifyStream(timed, request);
                timed.record(tracer, index, wallNs());
                session = backend.ddSession()->stats();
            } else {
                report = backend.verifyStream(*stream, request);
            }
        }
        Outcome outcome;
        outcome.ns = wallNs() - start;
        outcome.circuitOps = report.ops;
        outcome.counts = "register=" + std::to_string(input.request.registerIndex) +
                         " approx=" + std::to_string(approx ? 1 : 0) +
                         " ops=" + std::to_string(report.ops) +
                         " dd_nodes=" + std::to_string(report.ddNodes);
        if (report.ops != compiled.circuit.numOperations()) {
            outcome.error = "streamed " + std::to_string(report.ops) + " of " +
                            std::to_string(compiled.circuit.numOperations()) + " ops";
        } else {
            outcome.error = fidelityError(report.fidelity, approx ? kApproxThreshold : kExactBound);
        }
        if (tracer.enabled()) {
            uniqueLookups_ += static_cast<double>(session.unique.lookups);
            uniqueHits_ += static_cast<double>(session.unique.hits);
            cacheLookups_ += static_cast<double>(report.cacheLookups);
            cacheHits_ += static_cast<double>(report.cacheHits);
            poolMax_ = std::max(poolMax_, static_cast<double>(report.ddNodes));
        }
        return outcome;
    }

    Options options_;
    double uniqueLookups_ = 0.0;
    double uniqueHits_ = 0.0;
    double cacheLookups_ = 0.0;
    double cacheHits_ = 0.0;
    double poolMax_ = 0.0;
};

// --- serve workloads ----------------------------------------------------------------

/// Reply fields that are timings, not counts; dropped from the per-request
/// record that must repeat exactly.
std::string withoutTimings(const std::string& reply) {
    std::istringstream words(reply);
    std::string word;
    std::string kept;
    while (words >> word) {
        const auto eq = word.find('=');
        if (eq != std::string::npos && eq >= 3 && word.compare(eq - 3, 3, "_us") == 0) {
            continue;
        }
        kept += (kept.empty() ? "" : " ") + word;
    }
    return kept;
}

/// Session counters summed over requests (GC rebuilds the tables, so each
/// request contributes its own non-negative delta).
struct SessionCounters {
    double uniqueLookups = 0.0;
    double uniqueHits = 0.0;
    double cacheLookups = 0.0;
    double cacheHits = 0.0;
    double poolMax = 0.0;
    double gcBefore = 0.0;
    double gcReclaimed = 0.0;

    void add(const dd::DdSessionStats& before, const dd::DdSessionStats& after) {
        const auto delta = [](std::uint64_t from, std::uint64_t to) {
            return static_cast<double>(to >= from ? to - from : to);
        };
        uniqueLookups += delta(before.unique.lookups, after.unique.lookups);
        uniqueHits += delta(before.unique.hits, after.unique.hits);
        cacheLookups += delta(before.cache.lookups, after.cache.lookups);
        cacheHits += delta(before.cache.hits, after.cache.hits);
        poolMax = std::max(poolMax, static_cast<double>(after.poolNodes));
    }

    void addGc(const std::string& reply) {
        const auto before = static_cast<double>(replyUint(reply, "nodes_before"));
        gcBefore += before;
        gcReclaimed += before - static_cast<double>(replyUint(reply, "nodes_after"));
    }

    void write(Metrics& out) const {
        out["dd.unique_lookups"].value = uniqueLookups;
        out["dd.unique_hit_rate"].value = ratio(uniqueHits, uniqueLookups);
        out["dd.cache_lookups"].value = cacheLookups;
        out["dd.cache_hit_rate"].value = ratio(cacheHits, cacheLookups);
        out["dd.pool_nodes.max"].value = poolMax;
        out["dd.gc_nodes_before"].value = gcBefore;
        out["dd.gc_reclaimed_frac"].value = ratio(gcReclaimed, gcBefore);
    }
};

/// One handleLine call under a span named by its verb.
struct ServeCall {
    std::string reply;
    std::int64_t ns = 0;
};

ServeCall serveCall(serve::VerificationService& service, const std::string& line,
                    const char* span, std::uint64_t index, bool withCpu, Tracer& tracer,
                    SessionCounters& counters) {
    const dd::DdSessionStats before =
        tracer.enabled() ? service.session()->stats() : dd::DdSessionStats{};
    ServeCall call;
    const std::int64_t start = wallNs();
    {
        const SpanScope scope(tracer, span, index, withCpu);
        call.reply = service.handleLine(line).line;
    }
    call.ns = wallNs() - start;
    if (tracer.enabled()) {
        counters.add(before, service.session()->stats());
    }
    return call;
}

/// Issue a set-up command and require OK.
std::string setupCall(serve::VerificationService& service, const std::string& line) {
    std::string reply = service.handleLine(line).line;
    if (!replyOk(reply)) {
        throw std::runtime_error("set-up command '" + line + "' replied: " + reply);
    }
    return reply;
}

/// One client running seeded sessions against one VerificationService:
/// PREP, VERIFY, APPEND, REVERIFY, VERIFY, DROP, with a GC after every
/// fourth session and a STATS? after every eighth.
class ServeSession final : public Workload {
public:
    static constexpr std::uint64_t kWarmupBlocks = 12;

    explicit ServeSession(const Options& options) : options_(options) {}

    void setUp() override {
        service_ = std::make_unique<serve::VerificationService>(
            serve::ServiceLimits{}, parallel::ExecutionConfig{options_.width});
        issued_ = {};
        Tracer off(false);
        SessionCounters ignored;
        for (std::uint64_t i = 0; i < kWarmupBlocks * schedule().size(); ++i) {
            const Outcome outcome = step(kWarmupSeed, i, off, ignored);
            if (!outcome.error.empty()) {
                throw std::runtime_error("warm-up request " + std::to_string(i) + ": " +
                                         outcome.error);
            }
        }
    }

    void tearDown() override { service_.reset(); }

    std::uint64_t requestCount(double seconds) const override {
        return wholeBlocks(kServeSessionPerSecond, seconds, schedule().size());
    }

    Outcome run(std::uint64_t index, Tracer& tracer) override {
        return step(options_.seed, index, tracer, counters_);
    }

    void layerCounters(Metrics& out) const override { counters_.write(out); }

private:
    enum class Kind { Prep, Verify, Append, Reverify, Drop, Gc, Stats };

    struct Step {
        Kind kind;
        std::uint64_t session; ///< session within the block
    };

    static const std::vector<Step>& schedule() {
        static const std::vector<Step> steps = [] {
            std::vector<Step> block;
            for (std::uint64_t s = 0; s < 8; ++s) {
                for (const Kind kind : {Kind::Prep, Kind::Verify, Kind::Append, Kind::Reverify,
                                        Kind::Verify, Kind::Drop}) {
                    block.push_back({kind, s});
                }
                if (s % 4 == 3) {
                    block.push_back({Kind::Gc, s});
                }
            }
            block.push_back({Kind::Stats, 7});
            return block;
        }();
        return steps;
    }

    Outcome step(std::uint64_t seed, std::uint64_t index, Tracer& tracer,
                 SessionCounters& counters) {
        const Step& next = schedule()[index % schedule().size()];
        const std::uint64_t session = index / schedule().size() * 8 + next.session;
        const std::string id = std::to_string(id_);
        std::string line;
        const char* span = "";
        switch (next.kind) {
        case Kind::Prep:
            script_ = sessionScript(seed, session);
            line = script_.prep;
            span = "serve.prep";
            break;
        case Kind::Verify:
            line = "VERIFY --id " + id;
            span = "serve.verify";
            break;
        case Kind::Append:
            line = "APPEND --id " + id + " --gate " + script_.gate;
            span = "serve.append";
            break;
        case Kind::Reverify:
            line = "REVERIFY --id " + id;
            span = "serve.reverify";
            break;
        case Kind::Drop:
            line = "DROP --id " + id;
            span = "serve.drop";
            break;
        case Kind::Gc:
            line = "GC";
            span = "serve.gc";
            break;
        case Kind::Stats:
            line = "STATS?";
            span = "serve.stats";
            break;
        }
        const ServeCall call = serveCall(*service_, line, span, index, true, tracer, counters);
        ++issued_[static_cast<std::size_t>(next.kind)];

        Outcome outcome;
        outcome.ns = call.ns;
        outcome.counts = withoutTimings(call.reply);
        try {
            outcome.error = check(next.kind, call.reply, outcome, tracer, counters);
        } catch (const std::exception& error) {
            outcome.error = error.what();
        }
        if (!outcome.error.empty()) {
            outcome.error = "'" + line + "': " + outcome.error;
        }
        return outcome;
    }

    std::string check(Kind kind, const std::string& reply, Outcome& outcome, Tracer& tracer,
                      SessionCounters& counters) {
        if (!replyOk(reply)) {
            return "replied " + reply;
        }
        const double bound = script_.approximate ? kApproxThreshold : kExactBound;
        switch (kind) {
        case Kind::Prep:
            id_ = replyUint(reply, "id");
            prepOps_ = replyUint(reply, "ops");
            outcome.circuitOps = prepOps_;
            return {};
        case Kind::Verify:
            return fidelityError(replyReal(reply, "fidelity"), bound);
        case Kind::Append:
            return replyUint(reply, "ops") == prepOps_ + 1 ? std::string{}
                                                           : "circuit did not grow by one op";
        case Kind::Reverify:
            if (replyUint(reply, "delta_ops") != prepOps_ + 1 ||
                replyUint(reply, "total_ops") != prepOps_ + 1) {
                return "first REVERIFY did not replay the whole circuit";
            }
            return fidelityError(replyReal(reply, "fidelity"), bound);
        case Kind::Drop:
            return replyUint(reply, "dropped") == id_ ? std::string{} : "dropped the wrong id";
        case Kind::Gc:
            if (tracer.enabled()) {
                counters.addGc(reply);
            }
            return replyUint(reply, "nodes_after") <= replyUint(reply, "nodes_before")
                       ? std::string{}
                       : "GC grew the pool";
        case Kind::Stats:
            return checkStats(reply);
        }
        return "unknown step";
    }

    /// STATS? must count exactly the commands this client issued.
    std::string checkStats(const std::string& reply) const {
        static constexpr std::array<std::pair<Kind, const char*>, 6> kVerbs{{
            {Kind::Prep, "prep.count"},
            {Kind::Verify, "verify.count"},
            {Kind::Append, "append.count"},
            {Kind::Reverify, "reverify.count"},
            {Kind::Drop, "drop.count"},
            {Kind::Gc, "gc.count"},
        }};
        if (replyUint(reply, "errors") != 0) {
            return "service counted errors";
        }
        for (const auto& [kind, key] : kVerbs) {
            if (replyUint(reply, key) != issued_[static_cast<std::size_t>(kind)]) {
                return std::string(key) + " differs from the commands issued";
            }
        }
        return {};
    }

    Options options_;
    std::unique_ptr<serve::VerificationService> service_;
    SessionScript script_;
    std::uint64_t id_ = 0;
    std::uint64_t prepOps_ = 0;
    std::array<std::uint64_t, 7> issued_{};
    SessionCounters counters_;
};

/// One client alternating BATCH and GC over a resident set of 16 targets
/// PREPed during set-up, at the machine's full width.
class ServeBatch final : public Workload {
public:
    static constexpr int kWarmupRounds = 12;

    explicit ServeBatch(const Options& options) : options_(options) {}

    void setUp() override {
        service_ = std::make_unique<serve::VerificationService>(
            serve::ServiceLimits{}, parallel::ExecutionConfig{options_.width});
        residentOps_ = 0;
        for (const std::string& line : batchResidentSet(options_.seed)) {
            residentOps_ += replyUint(setupCall(*service_, line), "ops");
        }
        for (int i = 0; i < kWarmupRounds; ++i) {
            (void)setupCall(*service_, "BATCH");
            (void)setupCall(*service_, "BATCH");
            liveNodes_ = replyUint(setupCall(*service_, "GC"), "nodes_after");
        }
    }

    void tearDown() override { service_.reset(); }

    std::uint64_t requestCount(double seconds) const override {
        return wholeBlocks(kServeBatchPerSecond, seconds, 3);
    }

    /// BATCH, BATCH, GC: the first BATCH after a GC re-interns every
    /// replayed node, the second finds most of them in the uniquing table.
    /// Three classes of a third each (about 3, 10 and 17 ms at width 4) put
    /// the median in the middle of the second-BATCH class; strict BATCH/GC
    /// alternation would put it on the boundary between GC and BATCH.
    Outcome run(std::uint64_t index, Tracer& tracer) override {
        const bool batch = index % 3 != 2;
        const ServeCall call = serveCall(*service_, batch ? "BATCH" : "GC",
                                         batch ? "serve.batch" : "serve.gc", index, batch,
                                         tracer, counters_);
        Outcome outcome;
        outcome.ns = call.ns;
        try {
            outcome.error = batch ? checkBatch(call.reply, outcome) : checkGc(call.reply, outcome);
            if (!batch && tracer.enabled()) {
                counters_.addGc(call.reply);
            }
        } catch (const std::exception& error) {
            outcome.error = error.what();
        }
        if (!outcome.error.empty()) {
            outcome.error = std::string(batch ? "BATCH: " : "GC: ") + outcome.error;
        }
        return outcome;
    }

    void layerCounters(Metrics& out) const override { counters_.write(out); }

private:
    std::string checkBatch(const std::string& reply, Outcome& outcome) const {
        outcome.counts = withoutTimings(reply);
        outcome.circuitOps = residentOps_;
        if (!replyOk(reply)) {
            return "replied " + reply;
        }
        if (replyUint(reply, "items") != 16 || replyUint(reply, "failures") != 0) {
            return "not all 16 resident targets verified";
        }
        return fidelityError(replyReal(reply, "min_fidelity"), kExactBound);
    }

    std::string checkGc(const std::string& reply, Outcome& outcome) const {
        if (!replyOk(reply)) {
            return "replied " + reply;
        }
        // Only what survives GC is compared: the cache entries a concurrent
        // BATCH leaves, and so cache_evicted, depend on how items interleave.
        outcome.counts = "nodes_after=" + std::to_string(replyUint(reply, "nodes_after")) +
                         " live_roots=" + std::to_string(replyUint(reply, "live_roots"));
        return replyUint(reply, "nodes_after") == liveNodes_ &&
                       replyUint(reply, "live_roots") == 16
                   ? std::string{}
                   : "GC did not return to the resident set";
    }

    Options options_;
    std::unique_ptr<serve::VerificationService> service_;
    std::uint64_t residentOps_ = 0;
    std::uint64_t liveNodes_ = 0;
    SessionCounters counters_;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const Options& options) {
    if (options.workload == "prep-verify") {
        return std::make_unique<PrepVerify>(options);
    }
    if (options.workload == "sim-stream") {
        return std::make_unique<SimStream>(options);
    }
    if (options.workload == "serve-session") {
        return std::make_unique<ServeSession>(options);
    }
    if (options.workload == "serve-batch") {
        return std::make_unique<ServeBatch>(options);
    }
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

unsigned pinnedWidth(const std::string& workload) {
    if (workload != "serve-batch") {
        return 1;
    }
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0) {
        return parallel::hardwareThreads();
    }
    return static_cast<unsigned>(CPU_COUNT(&cpus));
}

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
    static const std::vector<std::pair<std::string, std::string>> units = [] {
        std::vector<std::pair<std::string, std::string>> list{
            {"req.self_ms", "ms/req"},
            {"dd.construct_ms", "ms/req"},
            {"approx.ms", "ms/req"},
            {"synth.ms", "ms/req"},
            {"opt.ms", "ms/req"},
            {"circuit.emit_ms", "ms/req"},
            {"sim.verify_ms", "ms/req"},
            {"circuit.parse_ms", "ms/req"},
            {"dd.apply_ms", "ms/req"},
            {"dd.overlap_ms", "ms/req"},
            {"dd.nodes", "count"},
            {"approx.removed_nodes", "count"},
            {"synth.ops", "count"},
            {"opt.ops_removed", "count"},
            {"circuit.qasm_bytes", "bytes"},
            {"sim.amp_pairs_walked", "count"},
            {"sim.amp_pairs_touched", "count"},
            {"sim.useful_frac", "ratio"},
            {"dd.unique_lookups", "count"},
            {"dd.unique_hit_rate", "ratio"},
            {"dd.cache_lookups", "count"},
            {"dd.cache_hit_rate", "ratio"},
            {"dd.gc_nodes_before", "count"},
            {"dd.gc_reclaimed_frac", "ratio"},
            {"dd.pool_nodes.max", "count"},
        };
        for (const char* verb : {"prep", "verify", "append", "reverify", "drop", "gc", "stats",
                                 "batch"}) {
            const std::string prefix = std::string("serve.") + verb;
            list.emplace_back(prefix + "_ms.p50", "ms");
            list.emplace_back(prefix + "_ms.tail", "ms");
            list.emplace_back(prefix + "_count", "count");
        }
        list.emplace_back("pool.width", "threads");
        list.emplace_back("pool.cpu_per_wall", "ratio");
        list.emplace_back("trace.req_per_s", "1/s");
        list.emplace_back("trace.overhead_frac", "ratio");
        return list;
    }();
    return units;
}

} // namespace perfbench
