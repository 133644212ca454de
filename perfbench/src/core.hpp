#pragma once

// Shared pieces of the end-to-end benchmark: request generation as a pure
// function of the seed, the latency statistics every workload reports,
// parsing of serve reply lines, and the span recorder of the traced run.

#include "mqsp/support/mixed_radix.hpp"

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (request and span timing).
[[nodiscard]] std::int64_t wallNs();

/// CPU nanoseconds consumed by the whole process, every thread included.
[[nodiscard]] std::int64_t processCpuNs();

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peakRssMb();

// --- request generation -----------------------------------------------------

/// splitmix64 of (seed, stream): the seed of one independent random stream.
[[nodiscard]] std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/// The Table-1-sized mixed registers (700 to 2,000 amplitudes) that the
/// prep-verify and sim-stream requests draw their random states on.
[[nodiscard]] const std::vector<mqsp::Dimensions>& denseRegisters();

/// One prep-verify or sim-stream input: a random state on
/// denseRegisters()[registerIndex], drawn from `amplitudeSeed`, prepared
/// exactly or approximated at fidelity 0.98.
struct DenseRequest {
    std::size_t registerIndex = 0;
    bool approximate = false;
    std::uint64_t amplitudeSeed = 0;

    friend bool operator==(const DenseRequest&, const DenseRequest&) = default;
};

/// Requests per block: every (register, exact/approximated) pair exactly
/// once, so any run of whole blocks does the same mix of work.
[[nodiscard]] std::size_t denseBlockSize();

/// Request `index` of the run seeded `seed`.
[[nodiscard]] DenseRequest denseRequest(std::uint64_t seed, std::uint64_t index);

/// One serve-session session: the PREP line, whether the target is
/// approximated (its fidelity bound is then 0.98), and the MQSP-QASM gate
/// statement it APPENDs. The gate's control sits on a site more
/// significant than its target, as the DD backend requires.
struct SessionScript {
    std::string prep;
    bool approximate = false;
    std::string gate;

    friend bool operator==(const SessionScript&, const SessionScript&) = default;
};

/// Session `index` of the run seeded `seed`.
[[nodiscard]] SessionScript sessionScript(std::uint64_t seed, std::uint64_t index);

/// The PREP lines of the serve-batch resident set: 8 random and 8
/// structured targets. Random amplitudes come from `seed`; the registers
/// are fixed, so set-up does the same work for every seed.
[[nodiscard]] std::vector<std::string> batchResidentSet(std::uint64_t seed);

// --- latency statistics -------------------------------------------------------

/// Minimum number of samples strictly beyond the reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank percentile of ascending `sorted` (non-empty), p in (0, 100].
[[nodiscard]] double nearestRank(const std::vector<double>& sorted, double percentile);

/// Samples strictly beyond the nearest-rank `percentile` of `count` samples.
[[nodiscard]] std::size_t samplesBeyond(std::size_t count, double percentile);

/// The highest percentile of the ladder 50, 75, 90, 95, 98, 99, 99.5, 99.8,
/// 99.9, 99.95, 99.98, 99.99 that leaves at least kTailBeyond samples
/// beyond it; 0 when even p50 does not.
[[nodiscard]] double tailPercentile(std::size_t count);

struct LatencySummary {
    std::size_t samples = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tailPercentile = 0.0;
};

/// Median and tail of `values` (any order); the tail is the median when
/// there are too few samples for any ladder percentile.
[[nodiscard]] LatencySummary summarize(std::vector<double> values);

// --- serve replies --------------------------------------------------------------

/// True for an "OK ..." reply line.
[[nodiscard]] bool replyOk(const std::string& reply);

/// Raw text of ` key=value` in a reply line, or nullopt when absent.
[[nodiscard]] std::optional<std::string> replyField(const std::string& reply,
                                                    std::string_view key);

/// Numeric fields; throw std::runtime_error naming the key when absent or
/// not a number.
[[nodiscard]] std::uint64_t replyUint(const std::string& reply, std::string_view key);
[[nodiscard]] double replyReal(const std::string& reply, std::string_view key);

// --- tracing ------------------------------------------------------------------------

/// One recorded span. A span that aggregates several disjoint calls
/// (`calls > 1`) covers [startNs, endNs] but was busy only `busyNs` of it.
struct Span {
    const char* name = ""; ///< a string literal
    std::uint64_t request = 0;
    std::int32_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t busyNs = 0;
    std::int64_t cpuNs = 0; ///< process CPU during the span (request spans only)
    std::uint64_t calls = 1;
};

/// In-memory span recorder. Disabled, every call is a single branch, so
/// the untraced run executes the same code.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Open a span as a child of the innermost open one; -1 when disabled.
    std::int32_t open(const char* name, std::uint64_t request, bool withCpu = false);
    void close(std::int32_t index);

    /// Record an aggregated child of the innermost open span.
    void addAggregate(const char* name, std::uint64_t request, std::int64_t startNs,
                      std::int64_t endNs, std::int64_t busyNs, std::uint64_t calls);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Per span name: busy time minus the busy time of its children.
    [[nodiscard]] std::map<std::string, std::int64_t> selfNs() const;

    /// One JSON object per span.
    void write(std::ostream& out) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> openStack_;
};

/// RAII span on a Tracer.
class SpanScope {
public:
    SpanScope(Tracer& tracer, const char* name, std::uint64_t request, bool withCpu = false)
        : tracer_(tracer), index_(tracer.open(name, request, withCpu)) {}
    ~SpanScope() { tracer_.close(index_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer& tracer_;
    std::int32_t index_;
};

} // namespace perfbench
