#pragma once

// The four closed-loop workloads. Each one issues a fixed, seed-generated
// list of requests through the public entry points that mqsp_prep,
// mqsp_sim and mqsp_serve call, times each request, and checks its
// output. Inputs are generated just before their request, outside its
// timed span.

#include "core.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Rounds per run. The request list splits into this many rounds of whole
/// request blocks. Each round sets up a fresh program first, and the
/// reported timings, setup_s included, are medians over the rounds.
inline constexpr std::uint64_t kRounds = 5;

/// What one benchmark invocation asks for.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned width = 1;      ///< pinned thread width: pinnedWidth(workload)
    std::string countsDir;   ///< where per-request counts persist across runs; empty = off
    std::string spansOut;    ///< traced run: write the spans here; empty = off
};

/// One timed request.
struct Outcome {
    std::int64_t ns = 0;         ///< duration of the request's timed span
    std::string error;           ///< empty when every output check passed
    std::string counts;          ///< deterministic per-request counts (same every run)
    std::uint64_t circuitOps = 0;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

class Workload {
public:
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    virtual ~Workload() = default;

    /// Build the program objects at the pinned width, plus any resident
    /// state, then run the fixed warm-up. Called at the start of every
    /// round; each call is one setup_s sample.
    virtual void setUp() = 0;

    /// Release what setUp() built, untimed, at the end of a round.
    virtual void tearDown() {}

    /// Number of timed requests in a run of `seconds`: fixed by the
    /// argument alone, never by elapsed time, and a multiple of kRounds
    /// whole request blocks.
    [[nodiscard]] virtual std::uint64_t requestCount(double seconds) const = 0;

    /// Generate request `index`, run it, and check its outputs.
    [[nodiscard]] virtual Outcome run(std::uint64_t index, Tracer& tracer) = 0;

    /// Per-layer counters gathered during a traced pass, added to `out`.
    virtual void layerCounters(Metrics& out) const = 0;
};

/// A fresh, not yet set-up workload; throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const Options& options);

/// The thread width `workload` runs at: 1 on the DD and dense paths, whose
/// intra-item fan-outs lose at 4, and every CPU this process may run on for
/// serve-batch, the one batch-level fan-out that pays.
[[nodiscard]] unsigned pinnedWidth(const std::string& workload);

/// Every per-layer metric with its unit, as the traced run reports them.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layerMetricUnits();

} // namespace perfbench
