#include "core.hpp"

#include "mqsp/support/rng.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numbers>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace perfbench {

using mqsp::Dimensions;
using mqsp::Rng;

std::int64_t wallNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t processCpuNs() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peakRssMb() {
    // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
    // the launching process's peak whenever that was larger.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- request generation -----------------------------------------------------------

namespace {

// Stream namespaces, so the dense requests, the sessions and the resident
// set of one seed never share a random stream.
constexpr std::uint64_t kDenseStream = 0x1000'0000ULL;
constexpr std::uint64_t kSessionStream = 0x2000'0000ULL;
constexpr std::uint64_t kResidentStream = 0x3000'0000ULL;

/// Sessions per block: six structured families and two random targets, one
/// of them approximated, in a seeded order.
constexpr std::size_t kSessionBlock = 8;

/// The radices of the serve registers: the divisors of 24, so lcm(dims),
/// the cyclic family's default shift count, stays at most 24.
constexpr std::array<mqsp::Dimension, 6> kServeRadices{2, 3, 4, 6, 8, 12};

/// Seeded permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniformIndex(i)]);
    }
    return order;
}

std::uint64_t product(const Dimensions& dims) {
    std::uint64_t total = 1;
    for (const auto dim : dims) {
        total *= dim;
    }
    return total;
}

/// `qudits` radices from kServeRadices whose product stays within
/// `maxAmplitudes`: start from all-qubits and upgrade sites in a seeded
/// order to a seeded radix that still fits.
Dimensions serveRegister(std::size_t qudits, std::uint64_t maxAmplitudes, Rng& rng) {
    Dimensions dims(qudits, 2);
    for (const std::size_t site : shuffled(qudits, rng)) {
        const mqsp::Dimension radix = kServeRadices[rng.uniformIndex(kServeRadices.size())];
        const std::uint64_t grown = product(dims) / 2 * radix;
        if (grown <= maxAmplitudes) {
            dims[site] = radix;
        }
    }
    return dims;
}

std::string dimsArg(const Dimensions& dims) {
    std::string text;
    for (const auto dim : dims) {
        if (!text.empty()) {
            text += ',';
        }
        text += std::to_string(dim);
    }
    return text;
}

std::string realText(double value) {
    std::array<char, 32> buffer{};
    std::snprintf(buffer.data(), buffer.size(), "%.6f", value);
    return buffer.data();
}

/// A Givens rotation on site `target` controlled by a more significant site.
std::string appendGate(const Dimensions& dims, Rng& rng) {
    const std::size_t target = 1 + rng.uniformIndex(dims.size() - 1);
    const std::size_t control = rng.uniformIndex(target);
    const std::uint64_t levelA = rng.uniformIndex(dims[target]);
    const std::uint64_t levelB = (levelA + 1 + rng.uniformIndex(dims[target] - 1)) % dims[target];
    const std::uint64_t controlLevel = rng.uniformIndex(dims[control]);
    const double theta = rng.uniform(0.1, std::numbers::pi);
    const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
    return "rxy q[" + std::to_string(target) + "] (" + std::to_string(levelA) + ", " +
           std::to_string(levelB) + ", " + realText(theta) + ", " + realText(phi) + ") ctl q[" +
           std::to_string(control) + "]=" + std::to_string(controlLevel) + ";";
}

} // namespace

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E37'79B9'7F4A'7C15ULL * (stream + 1);
    z = (z ^ (z >> 30U)) * 0xBF58'476D'1CE4'E5B9ULL;
    z = (z ^ (z >> 27U)) * 0x94D0'49BB'1331'11EBULL;
    return z ^ (z >> 31U);
}

const std::vector<Dimensions>& denseRegisters() {
    // 720 to 2,000 amplitudes, 4 to 6 qudits, most significant first. Three
    // are Table-1 registers: [9,5,6,3], [6,6,5,3,3] and [5,4,2,5,5,2].
    static const std::vector<Dimensions> registers{
        {3, 6, 2, 4, 5}, {9, 5, 6, 3},    {2, 7, 4, 3, 5},    {4, 3, 8, 9},
        {5, 2, 6, 3, 5}, {6, 4, 5, 8},    {7, 2, 3, 3, 8},    {3, 9, 5, 8},
        {8, 7, 5, 4},    {4, 6, 2, 5, 5}, {7, 6, 4, 8},       {2, 9, 3, 5, 5},
        {6, 6, 5, 3, 3}, {5, 3, 4, 2, 7, 2}, {3, 8, 2, 9, 4}, {5, 4, 2, 5, 5, 2},
    };
    return registers;
}

std::size_t denseBlockSize() { return 2 * denseRegisters().size(); }

DenseRequest denseRequest(std::uint64_t seed, std::uint64_t index) {
    const std::uint64_t block = index / denseBlockSize();
    Rng blockRng(streamSeed(seed, kDenseStream + block));
    const std::size_t slot = shuffled(denseBlockSize(), blockRng)[index % denseBlockSize()];
    DenseRequest request;
    request.registerIndex = slot / 2;
    request.approximate = slot % 2 == 1;
    request.amplitudeSeed = streamSeed(seed, index);
    return request;
}

SessionScript sessionScript(std::uint64_t seed, std::uint64_t index) {
    static constexpr std::array<const char*, kSessionBlock> kKinds{
        "ghz", "w", "embw", "uniform", "dicke", "cyclic", "random", "random-approx"};
    const std::uint64_t block = index / kSessionBlock;
    Rng blockRng(streamSeed(seed, kSessionStream + block));
    const std::string kind = kKinds[shuffled(kSessionBlock, blockRng)[index % kSessionBlock]];

    Rng rng(streamSeed(seed, kSessionStream + (std::uint64_t{1} << 32U) + index));
    SessionScript script;
    Dimensions dims;
    if (kind.rfind("random", 0) == 0) {
        // Small dense registers: 3 to 5 qudits, 24 to 288 amplitudes.
        dims = serveRegister(3 + rng.uniformIndex(3), 288, rng);
        while (product(dims) < 24) {
            dims = serveRegister(3 + rng.uniformIndex(3), 288, rng);
        }
        script.approximate = kind == "random-approx";
        script.prep = "PREP:RANDOM --dims " + dimsArg(dims) + " --seed " +
                      std::to_string(rng.uniformIndex(std::uint64_t{1} << 40U)) +
                      (script.approximate ? " --approx 0.98" : "");
    } else {
        // Structured families on 8 to 17 qudits within the default
        // admission limit of 2^28 amplitudes.
        dims = serveRegister(8 + rng.uniformIndex(10), std::uint64_t{1} << 28U, rng);
        std::string family = kind;
        std::transform(family.begin(), family.end(), family.begin(),
                       [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
        script.prep = "PREP:" + family + " --dims " + dimsArg(dims);
    }
    script.gate = appendGate(dims, rng);
    return script;
}

std::vector<std::string> batchResidentSet(std::uint64_t seed) {
    static const std::array<const char*, 8> kRandomDims{
        "3,4,2,6,3", "2,6,4,2,4", "4,3,3,2,6", "6,2,2,3,8",
        "3,3,4,2,2,4", "2,4,6,3,3", "8,3,2,2,6", "4,4,3,2,4"};
    static const std::array<const char*, 8> kStructured{
        "PREP:GHZ --dims 4,6,3,8,2,12,6,4,3,2",
        "PREP:W --dims 3,4,6,2,8,3,2,4,6,12",
        "PREP:EMBW --dims 6,3,2,4,12,2,3,8,4,6",
        "PREP:UNIFORM --dims 2,3,4,6,8,12,2,3,4,6",
        "PREP:DICKE --dims 4,2,6,3,4,2,8,3,2,6",
        "PREP:CYCLIC --dims 2,3,4,6,2,3,4,6,2,3",
        "PREP:GHZ --dims 12,8,6,4,3,2,2,3,4,6,8,12",
        "PREP:W --dims 2,12,3,8,4,6,6,4,8,3,12,2"};
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < kRandomDims.size(); ++i) {
        lines.push_back(std::string("PREP:RANDOM --dims ") + kRandomDims[i] + " --seed " +
                        std::to_string(streamSeed(seed, kResidentStream + i) >> 24U));
        lines.emplace_back(kStructured[i]);
    }
    return lines;
}

// --- latency statistics -------------------------------------------------------------

double nearestRank(const std::vector<double>& sorted, double percentile) {
    if (sorted.empty()) {
        throw std::invalid_argument("nearestRank: no samples");
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(percentile / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::size_t samplesBeyond(std::size_t count, double percentile) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(percentile / 100.0 * static_cast<double>(count)));
    return count - std::min(std::max<std::size_t>(rank, 1), count);
}

double tailPercentile(std::size_t count) {
    static constexpr std::array<double, 12> kLadder{50,   75,   90,    95,    98,    99,
                                                    99.5, 99.8, 99.9, 99.95, 99.98, 99.99};
    double best = 0.0;
    for (const double percentile : kLadder) {
        if (samplesBeyond(count, percentile) >= kTailBeyond) {
            best = percentile;
        }
    }
    return best;
}

LatencySummary summarize(std::vector<double> values) {
    LatencySummary summary;
    summary.samples = values.size();
    if (values.empty()) {
        return summary;
    }
    std::sort(values.begin(), values.end());
    summary.p50 = nearestRank(values, 50.0);
    summary.tailPercentile = tailPercentile(values.size());
    summary.tail = summary.tailPercentile > 0.0 ? nearestRank(values, summary.tailPercentile)
                                                : summary.p50;
    return summary;
}

// --- serve replies --------------------------------------------------------------------

bool replyOk(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

std::optional<std::string> replyField(const std::string& reply, std::string_view key) {
    std::string needle(" ");
    needle.append(key).push_back('=');
    const auto pos = reply.find(needle);
    if (pos == std::string::npos) {
        return std::nullopt;
    }
    const auto begin = pos + needle.size();
    const auto end = reply.find(' ', begin);
    return reply.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

namespace {

std::string requiredField(const std::string& reply, std::string_view key) {
    auto value = replyField(reply, key);
    if (!value || value->empty()) {
        throw std::runtime_error("reply lacks field " + std::string(key) + ": " + reply);
    }
    return *value;
}

} // namespace

std::uint64_t replyUint(const std::string& reply, std::string_view key) {
    const std::string text = requiredField(reply, key);
    std::uint64_t value = 0;
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (error != std::errc{} || end != text.data() + text.size()) {
        throw std::runtime_error("field " + std::string(key) + " is not a count: " + reply);
    }
    return value;
}

double replyReal(const std::string& reply, std::string_view key) {
    const std::string text = requiredField(reply, key);
    double value = 0.0;
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (error != std::errc{} || end != text.data() + text.size()) {
        throw std::runtime_error("field " + std::string(key) + " is not a number: " + reply);
    }
    return value;
}

// --- tracing ------------------------------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::uint64_t request, bool withCpu) {
    if (!enabled_) {
        return -1;
    }
    Span span;
    span.name = name;
    span.request = request;
    span.parent = openStack_.empty() ? -1 : openStack_.back();
    span.cpuNs = withCpu ? -processCpuNs() : 0;
    span.startNs = wallNs();
    spans_.push_back(span);
    openStack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return openStack_.back();
}

void Tracer::close(std::int32_t index) {
    if (index < 0) {
        return;
    }
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.endNs = wallNs();
    span.busyNs = span.endNs - span.startNs;
    if (span.cpuNs < 0) {
        span.cpuNs += processCpuNs();
    }
    openStack_.pop_back();
}

void Tracer::addAggregate(const char* name, std::uint64_t request, std::int64_t startNs,
                          std::int64_t endNs, std::int64_t busyNs, std::uint64_t calls) {
    if (!enabled_) {
        return;
    }
    Span span;
    span.name = name;
    span.request = request;
    span.parent = openStack_.empty() ? -1 : openStack_.back();
    span.startNs = startNs;
    span.endNs = endNs;
    span.busyNs = busyNs;
    span.calls = calls;
    spans_.push_back(span);
}

std::map<std::string, std::int64_t> Tracer::selfNs() const {
    std::vector<std::int64_t> childBusy(spans_.size(), 0);
    for (const Span& span : spans_) {
        if (span.parent >= 0) {
            childBusy[static_cast<std::size_t>(span.parent)] += span.busyNs;
        }
    }
    std::map<std::string, std::int64_t> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[spans_[i].name] += spans_[i].busyNs - childBusy[i];
    }
    return self;
}

void Tracer::write(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << span.name << "\",\"request\":"
            << span.request << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << ",\"busy_ns\":" << span.busyNs
            << ",\"cpu_ns\":" << span.cpuNs << ",\"calls\":" << span.calls << "}\n";
    }
}

} // namespace perfbench
