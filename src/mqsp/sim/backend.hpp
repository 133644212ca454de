#pragma once

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/statevec/state_vector.hpp"
#include "mqsp/support/parallel.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

namespace mqsp {

/// Which evaluation substrate a backend runs on.
enum class BackendKind {
    Dense, ///< dense state vector (O(∏dims) memory, exact reference)
    Dd,    ///< decision diagram (memory ∝ diagram size, scales past dense)
};

/// Human-readable backend name ("dense" / "dd") — also the CLI spelling.
[[nodiscard]] const char* backendName(BackendKind kind) noexcept;

/// Total dimension above which `auto` backend selection switches from the
/// dense simulator to the decision-diagram backend: 2^22 ≈ 4.2M amplitudes
/// (64 MiB of Complex), comfortably inside any dev machine while keeping
/// the asymptotically safe choice for everything larger.
inline constexpr std::uint64_t kAutoBackendThreshold = std::uint64_t{1} << 22U;

/// Largest register the DenseBackend agrees to materialize: 2^26 amplitudes
/// (1 GiB of Complex). Beyond this the dense backend *refuses* with a clear
/// error instead of dying in the allocator — `--backend dd` is the tool for
/// those registers.
inline constexpr std::uint64_t kDenseBackendCeiling = std::uint64_t{1} << 26U;

/// Resolve a CLI backend spec ("dense" | "dd" | "auto") against a register's
/// total dimension. "auto" picks Dense up to `autoThreshold` and Dd beyond;
/// anything else throws InvalidArgumentError.
[[nodiscard]] BackendKind resolveBackendKind(const std::string& spec,
                                             std::uint64_t totalDimension,
                                             std::uint64_t autoThreshold = kAutoBackendThreshold);

/// A quantum state as handled by the evaluation backends: either a dense
/// StateVector or a DecisionDiagram, with the common read-side operations
/// (amplitudes, norms, overlaps) dispatched to the native representation.
/// Mixed-representation overlaps convert the *dense* side to a diagram —
/// never the diagram to a dense vector — so a huge DD state is never
/// materialized by accident.
class EvalState {
public:
    EvalState() = default;
    explicit EvalState(StateVector state) : value_(std::move(state)) {}
    explicit EvalState(DecisionDiagram diagram) : value_(std::move(diagram)) {}

    [[nodiscard]] bool isDense() const noexcept {
        return std::holds_alternative<StateVector>(value_);
    }
    [[nodiscard]] bool isDiagram() const noexcept { return !isDense(); }

    /// Register geometry (shared by both representations).
    [[nodiscard]] const MixedRadix& radix() const;
    [[nodiscard]] const Dimensions& dimensions() const { return radix().dimensions(); }
    [[nodiscard]] std::uint64_t totalDimension() const { return radix().totalDimension(); }

    /// Native accessors; throw InvalidArgumentError on representation
    /// mismatch (callers branch on isDense()/isDiagram()).
    [[nodiscard]] const StateVector& dense() const;
    [[nodiscard]] const DecisionDiagram& diagram() const;
    [[nodiscard]] StateVector& dense();
    [[nodiscard]] DecisionDiagram& diagram();

    /// Amplitude of one basis state, whatever the representation.
    [[nodiscard]] Complex amplitudeOf(const Digits& digits) const;

    /// Sum of squared amplitude magnitudes.
    [[nodiscard]] double normSquared() const;

    /// <this|other>. Registers must match; a mixed pair converts the dense
    /// side to a diagram first.
    [[nodiscard]] Complex overlapWith(const EvalState& other) const;

    /// |<this|other>|^2 — the fidelity metric of Table 1.
    [[nodiscard]] double fidelityWith(const EvalState& other) const;

    /// This state as a diagram (identity when already one; O(∏dims) build
    /// from a dense vector).
    [[nodiscard]] DecisionDiagram toDiagram() const;

    /// This state as a dense vector. Refuses (InvalidArgumentError) when the
    /// register exceeds `ceiling` amplitudes — the guard that keeps huge DD
    /// states from being expanded by accident.
    [[nodiscard]] StateVector toStateVector(std::uint64_t ceiling = kDenseBackendCeiling) const;

private:
    std::variant<StateVector, DecisionDiagram> value_;
};

/// One fidelity / `dd_nodes` probe taken mid-replay by the streaming verify
/// path: after `opIndex` operations the replayed state had fidelity
/// `fidelity` against the request target (its norm² when no target was
/// given) and the backing session held `ddNodes` nodes (0 on dense).
struct ReplayCheckpoint {
    std::uint64_t opIndex = 0;
    double fidelity = 0.0;
    std::uint64_t ddNodes = 0;
};

/// One verify work item — the shared request shape of every verification
/// entry point (single, batch, streaming). Replay `circuit` from |0...0>
/// and measure the fidelity against `target`; the pointed-to objects must
/// outlive the call.
///
/// `target == nullptr` (streaming only) reports the replayed state's norm²
/// as the fidelity — the unitarity self-check. `repeat` re-runs the verify
/// that many times (cache-warming studies; the report carries the last
/// run). `checkpointInterval > 0` (streaming only) records a
/// ReplayCheckpoint every that-many operations.
struct VerifyRequest {
    const Circuit* circuit = nullptr;
    const EvalState* target = nullptr;
    std::uint64_t repeat = 1;
    std::uint64_t checkpointInterval = 0;
};

/// Outcome of one verify item: the fidelity plus the observability the
/// CLIs, serve verbs and bench drivers previously re-derived ad hoc —
/// operations replayed, session `dd_nodes` after the run, and the session
/// compute-cache lookup/hit deltas attributable to this item (all zero on
/// the dense backend). A throwing item (e.g. a register past the dense
/// ceiling) is reported in `failed`/`error` instead of aborting its batch
/// siblings.
struct VerifyReport {
    double fidelity = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t ddNodes = 0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::vector<ReplayCheckpoint> checkpoints;
    bool failed = false;
    std::string error;
};

/// The pluggable evaluation substrate: everything the toolchain needs to
/// *run* and *verify* circuits behind one interface, so callers (CLI tools,
/// bench drivers, serve, tests) are written once and switch substrate with
/// a flag.
///
/// A backend implements four primitives: `kind`, `zeroState`, `apply` (one
/// operation in place) and `circuitsEquivalent` (whole-unitary
/// equivalence). Verification is replay, and replay is defined once here
/// on those primitives: `runFromZero` is `zeroState` followed by one
/// `apply` per operation, and `preparationFidelity` overlaps that replay
/// with the target. The verify entry points share the
/// VerifyRequest/VerifyReport shapes: `verify` (one item) and
/// `verifyBatch` (independent items fanned out across the pool) run
/// `preparationFidelity`; `verifyStream` (replay an OperationSource one
/// gate at a time in O(state) space with periodic checkpoints) and
/// `reverifyAppended` (advance an already-replayed state by just the delta
/// of a grown circuit) drive `apply` themselves.
///
/// Threading: each backend carries an ExecutionConfig (default: a snapshot
/// of the process-wide one at construction; `threads == 0` = follow the
/// ambient setting) and pins the process width to it for the duration of
/// every evaluation entry point: the pin lives in `runFromZero` and
/// `preparationFidelity` (so `verify` and each batch item inherit it), in
/// `verifyBatch`, `verifyStream` and `reverifyAppended`, and in the dense
/// `circuitsEquivalent` — a 1-thread backend is genuinely single-threaded
/// whatever the ambient width. Parallelism lives in two places only:
/// `verifyBatch` runs min(width, items) tasks that claim *independent*
/// items from one cursor (each item's inner kernels then run serially —
/// nested-use refusal), and the dense backend parallelizes the amplitude
/// walks of its kernels. Each batch item replays on the backend
/// `batchWorker` lends it: the backend itself on dense, a worker with a
/// DD session of its own on dd, so no two items share a uniquing table.
/// The dd backend never splits one item: a diagram of a few thousand nodes
/// is too little work per gate to pay for the pool, so its single-item
/// calls run on the calling thread at any width and its fidelities and
/// `dd_nodes` cannot depend on the width. (`apply`, the per-operation
/// primitive, follows the ambient width rather than re-pinning per call:
/// it is called in tight loops.)
///
/// Because the width is process-wide, evaluation entry points on backends
/// with *different* configs must not overlap from different application
/// threads — their width pins would interleave. Drive backends from one
/// coordinating thread (as the tools, bench drivers and tests do) and get
/// concurrency from `verifyBatch`, not from racing backends.
class EvaluationBackend {
public:
    EvaluationBackend() : config_(parallel::globalExecutionConfig()) {}
    explicit EvaluationBackend(parallel::ExecutionConfig config) : config_(config) {}
    virtual ~EvaluationBackend() = default;

    [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
    [[nodiscard]] const char* name() const noexcept { return backendName(kind()); }

    /// The execution configuration this backend was constructed under.
    [[nodiscard]] const parallel::ExecutionConfig& executionConfig() const noexcept {
        return config_;
    }

    // --- primitives: what a backend implements -------------------------

    /// |0...0> over `dims` in this backend's native representation — the
    /// seed of every replay.
    [[nodiscard]] virtual EvalState zeroState(const Dimensions& dims) const = 0;

    /// Apply a single (possibly multi-controlled) operation in place. The
    /// state must be in this backend's native representation.
    virtual void apply(EvalState& state, const Operation& op) const = 0;

    /// True when the two circuits implement the same unitary up to a global
    /// phase (full-operator equivalence, not merely equal action on |0>).
    [[nodiscard]] virtual bool circuitsEquivalent(const Circuit& a, const Circuit& b,
                                                  double tol = 1e-9) const = 0;

    // --- replay and verification, defined once on the primitives --------

    /// Replay the circuit from |0...0> — the state-preparation setting:
    /// `zeroState`, then `apply` for every operation in order.
    [[nodiscard]] EvalState runFromZero(const Circuit& circuit) const;

    /// |<target|circuit(|0...0>)>|^2 — the verification metric. The target
    /// is taken after the replay: interned into the session when the
    /// backend has one (same-store overlap), else overlapped densely (a
    /// dense target in place, a diagram target expanded).
    [[nodiscard]] double preparationFidelity(const Circuit& circuit,
                                             const EvalState& target) const;

    /// Replay + verify one item, with the full report (fidelity, ops,
    /// dd_nodes, session cache deltas; honors `repeat`). Exceptions land in
    /// the report's failed/error instead of propagating.
    [[nodiscard]] VerifyReport verify(const VerifyRequest& request) const;

    /// Replay + verify every item. Items are independent: min(width, items)
    /// tasks claim them from one cursor, so with more than one item and
    /// more than one configured thread they run concurrently across the
    /// pool workers; a single item keeps the whole pool for its own
    /// kernels. Each item runs through `verify`'s body on the backend
    /// `batchWorker` lends it, so on dd every report — fidelity bits, ops,
    /// dd_nodes and cache deltas — equals `verify` of that item on a fresh
    /// DdBackend, at any width and in any item order, and the batch leaves
    /// this backend's session untouched. Per-item exceptions, a worker that
    /// cannot be lent included, land in the item's report.
    [[nodiscard]] std::vector<VerifyReport>
    verifyBatch(const std::vector<VerifyRequest>& items) const;

    /// Streaming verify: drain `source` one operation at a time into a
    /// fresh |0...0> state — memory stays O(state), never O(circuit text) —
    /// recording a ReplayCheckpoint every `request.checkpointInterval` ops
    /// and the fidelity against `request.target` (the state's norm² when
    /// the target is null) at the end. `request.circuit` is ignored; the
    /// register comes from `source.dimensions()`. When `finalState` is
    /// non-null the replayed state is moved out through it so callers can
    /// keep sampling / printing from where the stream ended. Unlike the
    /// batch paths this throws on error: a torn stream has no meaningful
    /// partial report.
    [[nodiscard]] VerifyReport verifyStream(OperationSource& source,
                                            const VerifyRequest& request,
                                            EvalState* finalState = nullptr) const;

    /// Incremental re-verify after `circuit` grew by appended gates:
    /// advance `replayed` — the live replay state, previously advanced
    /// through `fromOp` operations — by just the delta `[fromOp, end)` and
    /// measure the fidelity against `target`. Time is proportional to the
    /// delta, and on the dd backend unchanged subtrees resolve from the
    /// session caches (the report's cacheHits measure exactly that).
    [[nodiscard]] VerifyReport reverifyAppended(const Circuit& circuit, std::uint64_t fromOp,
                                                EvalState& replayed,
                                                const EvalState& target) const;

    /// The DD memory session backing this backend's evaluations, when it
    /// has one (the dd backend does, for its whole lifetime); callers use
    /// it to build targets on the shared store and to read the
    /// dd_nodes / unique_hit_rate / cache_hit_rate statistics.
    [[nodiscard]] virtual std::shared_ptr<dd::DdSession> ddSession() const { return nullptr; }

protected:
    /// The backend one `verifyBatch` item replays on, held by that item
    /// alone until the returned pointer is released. By default this
    /// backend itself (not owned): a backend without a session shares
    /// nothing between items. A throw here fails that item only.
    [[nodiscard]] virtual std::shared_ptr<const EvaluationBackend> batchWorker() const;

private:
    parallel::ExecutionConfig config_;
};

/// Dense state-vector backend: wraps the existing Simulator. Exact and
/// fast on small registers; refuses registers beyond `maxAmplitudes` with
/// a clear error pointing at the DD backend.
class DenseBackend final : public EvaluationBackend {
public:
    explicit DenseBackend(std::uint64_t maxAmplitudes = kDenseBackendCeiling)
        : maxAmplitudes_(maxAmplitudes) {}
    DenseBackend(std::uint64_t maxAmplitudes, parallel::ExecutionConfig config)
        : EvaluationBackend(config), maxAmplitudes_(maxAmplitudes) {}

    [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::Dense; }
    [[nodiscard]] EvalState zeroState(const Dimensions& dims) const override;
    void apply(EvalState& state, const Operation& op) const override;
    [[nodiscard]] bool circuitsEquivalent(const Circuit& a, const Circuit& b,
                                          double tol = 1e-9) const override;

    [[nodiscard]] std::uint64_t maxAmplitudes() const noexcept { return maxAmplitudes_; }

private:
    std::uint64_t maxAmplitudes_ = kDenseBackendCeiling;
};

/// Decision-diagram backend: replay on DecisionDiagram (dd/apply.cpp),
/// fidelity as a DD-DD overlap, equivalence on matrix decision diagrams
/// (mdd/MatrixDD) — memory and time scale with diagram size, not with
/// ∏dims, so structured states verify on registers of 10^8+ amplitudes.
///
/// Memory model: the backend owns two dd::DdNodeStores for its
/// whole lifetime — its dd::DdSession's, for states, and one for the
/// operator diagrams of the equivalence path. Every target, replayed state,
/// and per-gate intermediate of `verify`, `verifyStream` and
/// `reverifyAppended` allocates through the session's uniquing table, so
/// identical sub-trees are built once per backend, repeated verifications
/// hit the session compute cache, and `ddSession()->stats()` reports the
/// dd_nodes / unique_hit_rate / cache_hit_rate metrics (operator nodes are
/// not counted there).
///
/// Batch items do not touch that session. Each replays on a worker
/// DdBackend with a session of its own, lent from an idle list the backend
/// keeps (under a mutex) across batches. A worker's session is emptied
/// when the worker comes back, and a new worker starts empty, so every item
/// starts from the state of a fresh backend and its report equals `verify`
/// on one, bit for bit, whatever the width and the item order. Idle workers
/// hold no nodes; they keep their cache array and their table's slot
/// capacity, so the next batch does not build them again.
///
/// Concurrency: both stores' uniquing tables are sharded and the session's
/// compute cache striped (dd/unique_table.hpp), so concurrent `verify`
/// calls (serve readers) may intern into the shared session. The distinct
/// structural key set (dd_nodes) is a function of the work; which of two
/// bucket-equal weights a key keeps depends on who interned it first, so
/// the bits of later results depend on the order of earlier calls.
class DdBackend final : public EvaluationBackend {
public:
    explicit DdBackend(double tolerance = Tolerance::kDefault);
    DdBackend(double tolerance, parallel::ExecutionConfig config);

    [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::Dd; }
    [[nodiscard]] EvalState zeroState(const Dimensions& dims) const override;
    /// A diagram from another store (a builder's fresh one, or another
    /// session's) is interned into this backend's session once, then the
    /// gate applies there, so the replay shares the session's table and
    /// caches.
    void apply(EvalState& state, const Operation& op) const override;
    [[nodiscard]] bool circuitsEquivalent(const Circuit& a, const Circuit& b,
                                          double tol = 1e-9) const override;

    [[nodiscard]] std::shared_ptr<dd::DdSession> ddSession() const override {
        return session_;
    }

protected:
    /// An idle worker, or a new one at this backend's tolerance and
    /// configuration, on an empty session; releasing the pointer empties
    /// the session and returns the worker to the idle list.
    [[nodiscard]] std::shared_ptr<const EvaluationBackend> batchWorker() const override;

private:
    /// Empty `worker`'s session and keep it for the next item; a worker
    /// that cannot be emptied or kept is destroyed instead.
    void returnWorker(DdBackend* worker) const noexcept;

    std::shared_ptr<dd::DdSession> session_;
    std::shared_ptr<dd::DdNodeStore> operatorStore_;
    mutable std::mutex workersMutex_; ///< guards idleWorkers_
    mutable std::vector<std::unique_ptr<DdBackend>> idleWorkers_;
};

/// Factory for a backend of the given kind (process-wide ExecutionConfig).
[[nodiscard]] std::unique_ptr<EvaluationBackend> makeBackend(BackendKind kind);

/// Factory for a backend of the given kind under an explicit configuration.
[[nodiscard]] std::unique_ptr<EvaluationBackend> makeBackend(BackendKind kind,
                                                             parallel::ExecutionConfig config);

/// Convenience: resolve a CLI spec against a register and construct.
[[nodiscard]] std::unique_ptr<EvaluationBackend> makeBackend(const std::string& spec,
                                                             std::uint64_t totalDimension);

} // namespace mqsp
