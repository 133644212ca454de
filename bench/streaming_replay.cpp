// Streaming replay and incremental re-verification: the two new
// verification entry points (sim/backend.hpp verifyStream /
// reverifyAppended) measured end to end on the dd backend.
//
// The streamed workload is an OperationSource that yields repeated
// (block, block⁻¹) pairs of an entangling preparation block — many more
// operations than the diagram ever holds, so the replay demonstrates the
// O(diagram) space contract: the stream is never materialized as a
// Circuit, and the state returns to |0...0> at every pair boundary. With
// the checkpoint interval aligned to the pair length, every checkpoint
// probes fidelity 1.0 against the zero-state target — a deterministic
// outcome the CI metrics gate pins at every thread count, alongside the
// operation/checkpoint counts and the session dd_nodes (bit-identical
// across widths by the deterministic-interning contract).
//
// The delta phase replays one pair as a grown Circuit through
// reverifyAppended: first the base replay, then one appended pair
// re-verified incrementally. The appended gates hit the session compute
// cache (the same (gate, state) applications were just interned), so every
// row also records the raw cache hit/lookup counts — the measured proof
// that incremental re-verification reuses the session cache instead of
// redoing the replay. One replay runs on one thread at any width, so the
// counts are the same at every width (see docs/BENCHMARKS.md).

#include "harness.hpp"

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/sim/backend.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace mqsp;
using namespace mqsp::bench;

/// Pairs of (block, block⁻¹) streamed per repetition. The diagram is
/// bounded by the block's entanglement however large this grows.
constexpr std::uint64_t kPairs = 32;

/// The entangling forward block: superpose the first qudit, fan the
/// superposition out through controlled rotations, and stir the levels
/// with phase/swap work. Only invertible kinds (no Hadamard, no Shift)
/// so the inverse block exists in the gate alphabet.
Circuit forwardBlock(const Dimensions& dims) {
    const double pi = std::acos(-1.0);
    Circuit block(dims, "stream_block");
    block.append(Operation::givens(0, 0, 1, pi / 2.0, 0.0));
    block.append(Operation::givens(1, 0, 1, pi, 0.0, {{0, 1}}));
    block.append(Operation::givens(2, 0, 1, pi, 0.0, {{1, 1}}));
    block.append(Operation::phase(1, 0, 1, pi / 4.0, {{0, 1}}));
    block.append(Operation::levelSwap(1, 1, 2, {{0, 1}}));
    block.append(Operation::givens(1, 2, 3, pi / 3.0, pi / 7.0));
    return block;
}

/// OperationSource yielding `pairs` copies of (block, block⁻¹) from O(1)
/// storage — one pair's worth of operations, cycled. This is the honest
/// streaming setting: the full operation sequence never exists in memory.
class PairSource final : public OperationSource {
public:
    PairSource(const Circuit& pair, std::uint64_t pairs)
        : dims_(pair.dimensions()), ops_(pair.operations()),
          total_(pairs * pair.numOperations()) {}

    [[nodiscard]] const Dimensions& dimensions() const override { return dims_; }

    [[nodiscard]] std::optional<Operation> next() override {
        if (emitted_ == total_) {
            return std::nullopt;
        }
        const Operation& op = ops_[emitted_ % ops_.size()];
        ++emitted_;
        return op;
    }

private:
    Dimensions dims_;
    std::vector<Operation> ops_;
    std::uint64_t total_ = 0;
    std::uint64_t emitted_ = 0;
};

void requireNear(double value, double expected, const std::string& what) {
    if (std::abs(value - expected) > 1e-9) {
        throw std::runtime_error(what + ": expected " + std::to_string(expected) +
                                 ", got " + std::to_string(value));
    }
}

void addStreamingCase(Harness& harness, unsigned threads, bool smoke) {
    CaseSpec spec;
    spec.name = "stream+delta";
    spec.dims = {3, 6, 2};
    spec.backend = "dd";
    spec.threads = threads;
    spec.reps = 10;
    spec.smoke = smoke;
    spec.body = [dims = spec.dims](Repetition& rep) {
        // Fresh backend (and so fresh session) per repetition: the cache
        // counters below describe exactly one stream + one delta, so the
        // metrics are repetition-invariant.
        const auto backend = makeBackend(BackendKind::Dd);
        const Circuit forward = forwardBlock(dims);
        Circuit pair = forward;
        pair.append(forward.inverted());

        const EvalState target = backend->zeroState(dims);
        VerifyRequest request;
        request.target = &target;
        request.checkpointInterval = pair.numOperations();

        // Phase 1 — streaming replay, timed. Every checkpoint lands on a
        // pair boundary where the state is back at |0...0>.
        PairSource source(pair, kPairs);
        VerifyReport stream;
        rep.time([&] { stream = backend->verifyStream(source, request); });
        if (stream.ops != kPairs * pair.numOperations()) {
            throw std::runtime_error("stream replayed " + std::to_string(stream.ops) +
                                     " ops, expected " +
                                     std::to_string(kPairs * pair.numOperations()));
        }
        requireNear(stream.fidelity, 1.0, "final stream fidelity");
        double checkpointFidelityMin = 1.0;
        for (const ReplayCheckpoint& checkpoint : stream.checkpoints) {
            requireNear(checkpoint.fidelity, 1.0,
                        "checkpoint at op " + std::to_string(checkpoint.opIndex));
            checkpointFidelityMin = std::min(checkpointFidelityMin, checkpoint.fidelity);
        }

        // Phase 2 — incremental re-verification: replay one pair as a
        // Circuit, append a second pair, and re-verify just the delta.
        // The appended applications repeat (gate, state) keys the session
        // cache already holds, so the delta resolves from cache.
        Circuit grown = pair;
        EvalState replayed = backend->zeroState(dims);
        const VerifyReport base =
            backend->reverifyAppended(grown, 0, replayed, target);
        requireNear(base.fidelity, 1.0, "base replay fidelity");
        const std::uint64_t fromOp = grown.numOperations();
        grown.append(pair);
        const VerifyReport delta =
            backend->reverifyAppended(grown, fromOp, replayed, target);
        requireNear(delta.fidelity, 1.0, "delta replay fidelity");
        if (delta.ops != pair.numOperations()) {
            throw std::runtime_error("delta replayed " + std::to_string(delta.ops) +
                                     " ops, expected " +
                                     std::to_string(pair.numOperations()));
        }
        if (delta.cacheHits == 0) {
            throw std::runtime_error(
                "appended-delta re-verification produced zero session-cache hits");
        }

        // Deterministic at every width: counts, fidelities, dd_nodes and
        // the raw cache counters.
        rep.metric("stream_ops", static_cast<double>(stream.ops));
        rep.metric("stream_checkpoints", static_cast<double>(stream.checkpoints.size()));
        rep.metric("stream_fidelity", stream.fidelity);
        rep.metric("checkpoint_fidelity_min", checkpointFidelityMin);
        rep.metric("stream_dd_nodes", static_cast<double>(stream.ddNodes));
        rep.metric("delta_ops", static_cast<double>(delta.ops));
        rep.metric("delta_fidelity", delta.fidelity);
        rep.metric("dd_nodes", static_cast<double>(delta.ddNodes));
        rep.metric("ops_per_sec", static_cast<double>(stream.ops) * 1e9 /
                                      static_cast<double>(rep.elapsedNs()));
        rep.metric("stream_cache_lookups", static_cast<double>(stream.cacheLookups));
        rep.metric("stream_cache_hits", static_cast<double>(stream.cacheHits));
        rep.metric("delta_cache_lookups", static_cast<double>(delta.cacheLookups));
        rep.metric("delta_cache_hits", static_cast<double>(delta.cacheHits));
    };
    harness.add(std::move(spec));
}

} // namespace

int main(int argc, char** argv) {
    Harness harness("streaming_replay");
    for (const unsigned threads : {1U, 2U, 4U, 8U}) {
        addStreamingCase(harness, threads, threads == 1 || threads == 4);
    }
    return harness.main(argc, argv);
}
