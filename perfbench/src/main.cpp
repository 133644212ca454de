// perfbench — the mqsp end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--counts-dir <dir>] [--spans-out <file>]
//
// Runs one workload's fixed, seed-generated request list in-process, at
// the workload's pinned thread width, and prints, as its last stdout line,
// one JSON object with the correctness verdict and the metrics: the
// end-to-end ones untraced (--trace 0), the per-layer ones from a traced
// pass whose rounds alternate with untraced ones (--trace 1). run.py
// builds this program and is the command BENCHMARK.json names.

#include "core.hpp"
#include "workloads.hpp"

#include "mqsp/support/parallel.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

/// The per-request counts of the first run of a workload, seed and request
/// count, kept under --counts-dir so that every later run must reproduce
/// them. Each request's line is compared or recorded as the request
/// completes, so a run never holds more than one.
class CountsLog {
public:
    CountsLog(const Options& options, std::uint64_t requests) {
        if (options.countsDir.empty()) {
            return;
        }
        namespace fs = std::filesystem;
        path_ = fs::path(options.countsDir) /
                (options.workload + "-seed" + std::to_string(options.seed) + "-n" +
                 std::to_string(requests) + ".txt");
        earlier_.open(path_);
        if (!earlier_.is_open()) {
            fs::create_directories(path_.parent_path());
            record_.open(partialPath());
        }
    }

    /// Why `counts` differs from the earlier run's counts of the same
    /// request; empty when they agree or when this run is the record.
    std::string check(const std::string& counts) {
        if (!earlier_.is_open()) {
            if (record_.is_open()) {
                record_ << counts << '\n';
            }
            return {};
        }
        std::string line;
        if (!std::getline(earlier_, line)) {
            line = "<missing>";
        }
        return line == counts ? std::string{}
                              : "counts differ from an earlier run of this seed: '" + line +
                                    "' vs '" + counts + "'";
    }

    /// Publish a complete record for later runs.
    void finish() {
        if (record_.is_open()) {
            record_.close();
            std::filesystem::rename(partialPath(), path_);
        }
    }

private:
    [[nodiscard]] std::string partialPath() const { return path_.string() + ".partial"; }

    std::filesystem::path path_;
    std::ifstream earlier_;
    std::ofstream record_;
};

/// One workload instance going through the request list round by round,
/// and everything it produced.
struct Pass {
    Pass(const Options& options, bool traced)
        : workload(makeWorkload(options)), tracer(traced),
          requests(workload->requestCount(options.seconds)) {
        failed.assign(requests, false);
        latencyMs.reserve(requests);
        countsHash.reserve(requests);
    }

    std::unique_ptr<Workload> workload;
    Tracer tracer;
    std::uint64_t requests;
    std::vector<bool> failed;               ///< per request
    std::vector<double> latencyMs;          ///< per request
    std::vector<std::size_t> countsHash;    ///< per request: hash of its counts
    std::vector<double> setupSeconds;       ///< per round
    double timedSeconds = 0.0;              ///< sum of the requests' timed spans
    double circuitOps = 0.0;
};

/// Set up a fresh program (one setup_s sample), issue round `round`'s
/// requests, and release the program again. `log`, when given, checks each
/// request's counts against earlier runs.
void runRound(const Options& options, std::uint64_t round, Pass& pass, CountsLog* log) {
    const std::int64_t start = wallNs();
    pass.workload->setUp();
    pass.setupSeconds.push_back(static_cast<double>(wallNs() - start) * 1e-9);

    const std::uint64_t perRound = pass.requests / kRounds;
    for (std::uint64_t i = round * perRound; i < (round + 1) * perRound; ++i) {
        Outcome outcome;
        try {
            outcome = pass.workload->run(i, pass.tracer);
        } catch (const std::exception& error) {
            outcome.error = std::string("threw: ") + error.what();
        }
        if (log != nullptr) {
            std::string mismatch = log->check(outcome.counts);
            if (outcome.error.empty()) {
                outcome.error = std::move(mismatch);
            }
        }
        if (!outcome.error.empty()) {
            pass.failed[i] = true;
            std::fprintf(stderr, "FAIL %s request %llu%s: %s\n", options.workload.c_str(),
                         static_cast<unsigned long long>(i),
                         pass.tracer.enabled() ? " (traced)" : "", outcome.error.c_str());
        }
        pass.latencyMs.push_back(static_cast<double>(outcome.ns) * 1e-6);
        pass.countsHash.push_back(std::hash<std::string>{}(outcome.counts));
        pass.timedSeconds += static_cast<double>(outcome.ns) * 1e-9;
        pass.circuitOps += static_cast<double>(outcome.circuitOps);
    }
    pass.workload->tearDown();
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Timings of one pass: each is the median over its kRounds rounds, so a
/// few seconds of interference from outside the process move one round,
/// not the result.
struct Timings {
    std::vector<double> rates; ///< per round
    double reqPerSecond = 0.0;
    double p50 = 0.0;
    double tail = 0.0;
    LatencySummary round; ///< the first round's sample count and tail percentile
};

Timings timings(const Pass& pass) {
    const std::size_t perRound = pass.latencyMs.size() / kRounds;
    std::vector<double> p50s;
    std::vector<double> tails;
    Timings result;
    for (std::size_t r = 0; r < kRounds; ++r) {
        const auto first = pass.latencyMs.begin() + static_cast<std::ptrdiff_t>(r * perRound);
        const std::vector<double> round(first, first + static_cast<std::ptrdiff_t>(perRound));
        const double totalMs = std::accumulate(round.begin(), round.end(), 0.0);
        const LatencySummary summary = summarize(round);
        result.rates.push_back(static_cast<double>(perRound) * 1e3 / totalMs);
        p50s.push_back(summary.p50);
        tails.push_back(summary.tail);
        if (r == 0) {
            result.round = summary;
        }
    }
    result.reqPerSecond = median(result.rates);
    result.p50 = median(p50s);
    result.tail = median(tails);
    return result;
}

/// Per-layer metrics of a traced pass: per-request self time of every
/// module span, per-verb serve latency, CPU per wall inside request spans.
void addSpanMetrics(const Tracer& tracer, std::uint64_t requests, Metrics& out) {
    const double perRequestMs = 1e-6 / static_cast<double>(requests);
    for (const auto& [name, ns] : tracer.selfNs()) {
        if (const auto it = out.find(name); it != out.end() && it->second.unit == "ms/req") {
            it->second.value = static_cast<double>(ns) * perRequestMs;
        }
    }
    double cpuNs = 0.0;
    double wallNsTotal = 0.0;
    std::map<std::string, std::vector<double>> verbMs;
    for (const Span& span : tracer.spans()) {
        if (span.cpuNs > 0) {
            cpuNs += static_cast<double>(span.cpuNs);
            wallNsTotal += static_cast<double>(span.busyNs);
        }
        const std::string name = span.name;
        if (name.rfind("serve.", 0) == 0) {
            verbMs[name].push_back(static_cast<double>(span.busyNs) * 1e-6);
        }
    }
    out["pool.cpu_per_wall"].value = wallNsTotal > 0.0 ? cpuNs / wallNsTotal : 0.0;
    for (auto& [name, samples] : verbMs) {
        const LatencySummary summary = summarize(samples);
        out[name + "_ms.p50"].value = summary.p50;
        out[name + "_ms.tail"].value = summary.tail;
        out[name + "_count"].value = static_cast<double>(summary.samples);
    }
}

std::string jsonNumber(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string jsonMetrics(const Metrics& metrics) {
    std::string text = "{";
    for (const auto& [name, metric] : metrics) {
        text += (text.size() > 1 ? ", " : "") + ("\"" + name + "\": {\"value\": ") +
                jsonNumber(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    }
    return text + "}";
}

std::string argValue(int argc, char** argv, const std::string& key, const char* fallback) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (key == argv[i]) {
            return argv[i + 1];
        }
    }
    if (fallback == nullptr) {
        throw std::invalid_argument("missing " + key);
    }
    return fallback;
}

Options parseOptions(int argc, char** argv) {
    Options options;
    options.workload = argValue(argc, argv, "--workload", nullptr);
    options.seed = std::stoull(argValue(argc, argv, "--seed", nullptr));
    options.seconds = std::stod(argValue(argc, argv, "--seconds", nullptr));
    const std::string trace = argValue(argc, argv, "--trace", "0");
    if (trace != "0" && trace != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
    }
    options.trace = trace == "1";
    options.countsDir = argValue(argc, argv, "--counts-dir", "");
    options.spansOut = argValue(argc, argv, "--spans-out", "");
    if (options.seconds <= 0.0) {
        throw std::invalid_argument("--seconds must be positive");
    }
    (void)makeWorkload(options); // reject an unknown name before any work
    options.width = pinnedWidth(options.workload);
    return options;
}

/// Mark as failed, and report, every traced request whose counts differ
/// from the untraced pass's.
void markTracedMismatches(const Options& options, const Pass& untraced, Pass& traced) {
    for (std::size_t i = 0; i < traced.countsHash.size(); ++i) {
        if (traced.countsHash[i] != untraced.countsHash[i]) {
            traced.failed[i] = true;
            std::fprintf(stderr,
                         "FAIL %s request %zu (traced): counts differ from the untraced pass\n",
                         options.workload.c_str(), i);
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Options options = parseOptions(argc, argv);
        // synthesize() and serve PREP read the process-wide width; every
        // backend and service also gets it in its ExecutionConfig.
        mqsp::parallel::setGlobalThreads(options.width);

        Pass untraced(options, false);
        CountsLog counts(options, untraced.requests);
        Metrics metrics;
        if (!options.trace) {
            for (std::uint64_t r = 0; r < kRounds; ++r) {
                runRound(options, r, untraced, &counts);
            }
        } else {
            // Untraced and traced rounds alternate in ABBA order, so that
            // the tracing overhead is read from pairs of neighbouring rounds
            // over the same requests rather than from two whole passes.
            Pass traced(options, true);
            for (std::uint64_t r = 0; r < kRounds; ++r) {
                if (r % 2 == 0) {
                    runRound(options, r, untraced, &counts);
                    runRound(options, r, traced, nullptr);
                } else {
                    runRound(options, r, traced, nullptr);
                    runRound(options, r, untraced, &counts);
                }
            }
            markTracedMismatches(options, untraced, traced);
            for (std::size_t i = 0; i < untraced.failed.size(); ++i) {
                untraced.failed[i] = untraced.failed[i] || traced.failed[i];
            }
            for (const auto& [name, unit] : layerMetricUnits()) {
                metrics[name] = {0.0, unit};
            }
            traced.workload->layerCounters(metrics);
            addSpanMetrics(traced.tracer, traced.requests, metrics);
            const std::vector<double> plainRates = timings(untraced).rates;
            const std::vector<double> tracedRates = timings(traced).rates;
            std::vector<double> overheads;
            for (std::size_t r = 0; r < kRounds; ++r) {
                overheads.push_back(1.0 - tracedRates[r] / plainRates[r]);
            }
            metrics["pool.width"].value = options.width;
            metrics["trace.req_per_s"].value = median(tracedRates);
            metrics["trace.overhead_frac"].value = median(overheads);
            if (!options.spansOut.empty()) {
                std::filesystem::create_directories(
                    std::filesystem::path(options.spansOut).parent_path());
                std::ofstream out(options.spansOut);
                traced.tracer.write(out);
            }
            std::fprintf(stderr, "traced: %.1f req/s against %.1f untraced (overhead %.2f%%)\n",
                         median(tracedRates), median(plainRates),
                         100.0 * metrics["trace.overhead_frac"].value);
        }
        const double peakRss = peakRssMb();
        counts.finish();

        const std::uint64_t attempted = untraced.requests;
        const auto failures = static_cast<std::uint64_t>(
            std::count(untraced.failed.begin(), untraced.failed.end(), true));
        const Timings timed = timings(untraced);
        if (!options.trace) {
            metrics["setup_s"] = {median(untraced.setupSeconds), "s"};
            metrics["req_per_s"] = {timed.reqPerSecond, "1/s"};
            metrics["req_ms.p50"] = {timed.p50, "ms"};
            metrics["req_ms.tail"] = {timed.tail, "ms"};
            metrics["ok_frac"] = {static_cast<double>(attempted - failures) /
                                      static_cast<double>(attempted),
                                  "ratio"};
            metrics["circuit_ops"] = {untraced.circuitOps, "count"};
            metrics["peak_rss_mb"] = {peakRss, "MB"};
        }

        std::printf("info {\"workload\": \"%s\", \"seed\": %llu, \"width\": %u, "
                    "\"requests\": %llu, \"rounds\": %llu, \"round_samples\": %zu, "
                    "\"tail_percentile\": %g, \"tail_samples_beyond\": %zu, "
                    "\"setup_runs\": %zu, \"timed_s\": %s}\n",
                    options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                    options.width, static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(kRounds), timed.round.samples,
                    timed.round.tailPercentile,
                    samplesBeyond(timed.round.samples, timed.round.tailPercentile),
                    untraced.setupSeconds.size(), jsonNumber(untraced.timedSeconds).c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                    failures == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failures), jsonMetrics(metrics).c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
}
