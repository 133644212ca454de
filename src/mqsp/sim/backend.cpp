#include "mqsp/sim/backend.hpp"

#include "mqsp/mdd/matrix_dd.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/support/error.hpp"

#include <cmath>
#include <string>
#include <utility>

namespace mqsp {

namespace {

/// Register ceiling of the dense *equivalence* check: it walks all ∏dims
/// columns of both unitaries, so it is quadratic where dense simulation is
/// linear. It replays columns as state vectors and never builds a matrix, so
/// it sits above MatrixDD::toDenseMatrix's own limit of 512.
constexpr std::uint64_t kDenseEquivalenceCeiling = 4096;

std::string formatAmplitudeCount(std::uint64_t count) {
    return std::to_string(count);
}

} // namespace

const char* backendName(BackendKind kind) noexcept {
    return kind == BackendKind::Dense ? "dense" : "dd";
}

BackendKind resolveBackendKind(const std::string& spec, std::uint64_t totalDimension,
                               std::uint64_t autoThreshold) {
    if (spec == "dense") {
        return BackendKind::Dense;
    }
    if (spec == "dd") {
        return BackendKind::Dd;
    }
    if (spec == "auto") {
        return totalDimension > autoThreshold ? BackendKind::Dd : BackendKind::Dense;
    }
    detail::throwInvalidArgument("unknown evaluation backend '" + spec +
                                 "' (expected dense, dd, or auto)");
}

// --- EvalState -------------------------------------------------------------

const MixedRadix& EvalState::radix() const {
    return isDense() ? std::get<StateVector>(value_).radix()
                     : std::get<DecisionDiagram>(value_).radix();
}

const StateVector& EvalState::dense() const {
    requireThat(isDense(), "EvalState::dense: state is a decision diagram");
    return std::get<StateVector>(value_);
}

StateVector& EvalState::dense() {
    requireThat(isDense(), "EvalState::dense: state is a decision diagram");
    return std::get<StateVector>(value_);
}

const DecisionDiagram& EvalState::diagram() const {
    requireThat(isDiagram(), "EvalState::diagram: state is a dense vector");
    return std::get<DecisionDiagram>(value_);
}

DecisionDiagram& EvalState::diagram() {
    requireThat(isDiagram(), "EvalState::diagram: state is a dense vector");
    return std::get<DecisionDiagram>(value_);
}

Complex EvalState::amplitudeOf(const Digits& digits) const {
    if (isDense()) {
        return dense().at(digits);
    }
    return diagram().amplitudeOf(digits);
}

double EvalState::normSquared() const {
    return isDense() ? dense().normSquared() : diagram().normSquared();
}

Complex EvalState::overlapWith(const EvalState& other) const {
    requireThat(radix() == other.radix(), "EvalState::overlapWith: registers differ");
    if (isDense() && other.isDense()) {
        return dense().innerProduct(other.dense());
    }
    if (isDiagram() && other.isDiagram()) {
        return diagram().innerProductWith(other.diagram());
    }
    // Mixed pair: lift the dense side into a diagram (linear in its size);
    // the diagram side is never expanded.
    if (isDiagram()) {
        return diagram().innerProductWith(DecisionDiagram::fromStateVector(other.dense()));
    }
    return DecisionDiagram::fromStateVector(dense()).innerProductWith(other.diagram());
}

double EvalState::fidelityWith(const EvalState& other) const {
    return squaredMagnitude(overlapWith(other));
}

DecisionDiagram EvalState::toDiagram() const {
    return isDiagram() ? diagram() : DecisionDiagram::fromStateVector(dense());
}

StateVector EvalState::toStateVector(std::uint64_t ceiling) const {
    if (isDense()) {
        return dense();
    }
    requireThat(totalDimension() <= ceiling,
                "EvalState::toStateVector: register has " +
                    formatAmplitudeCount(totalDimension()) +
                    " amplitudes, past the dense ceiling of " +
                    formatAmplitudeCount(ceiling) + " — keep it as a diagram");
    return diagram().toStateVector();
}

// --- EvaluationBackend -----------------------------------------------------

namespace {

/// The target as a backend measures against it. With a session it is
/// interned there (into `holder`), so every overlap against it is a
/// same-store traversal that resolves through the session caches. Without
/// one the overlap stays dense: a dense target is used in place, a diagram
/// target is expanded into `holder`.
const EvalState& liftTarget(const std::shared_ptr<dd::DdSession>& session,
                            const EvalState& target, EvalState& holder) {
    if (session == nullptr) {
        if (target.isDense()) {
            return target;
        }
        holder = EvalState(target.toStateVector());
    } else if (target.isDiagram()) {
        holder = EvalState(session->intern(target.diagram()));
    } else {
        holder = EvalState(
            DecisionDiagram::fromStateVector(target.dense(), session->tolerance(), session.get()));
    }
    return holder;
}

/// Session compute-cache counters, or zeros on a session-less backend.
dd::ComputeCacheStats cacheCounters(const std::shared_ptr<dd::DdSession>& session) {
    return session == nullptr ? dd::ComputeCacheStats{} : session->stats().cache;
}

std::uint64_t poolNodesOf(const std::shared_ptr<dd::DdSession>& session) {
    return session == nullptr ? 0 : session->stats().poolNodes;
}

/// Stamp the session-side observability (dd_nodes, cache deltas since
/// `before`) onto a report.
void stampSessionMetrics(VerifyReport& report, const std::shared_ptr<dd::DdSession>& session,
                         const dd::ComputeCacheStats& before) {
    if (session == nullptr) {
        return;
    }
    const dd::ComputeCacheStats after = cacheCounters(session);
    report.ddNodes = poolNodesOf(session);
    report.cacheLookups = after.lookups - before.lookups;
    report.cacheHits = after.hits - before.hits;
}

/// The body of one verify item, shared by `verify` and `verifyBatch`:
/// replay `repeat` times (at least once) and stamp the session metrics. A
/// null circuit or target, or a throw, is this item's failure, reported in
/// its own report — a throw out of a batch item would tear down every
/// sibling mid-flight.
VerifyReport verifyItem(const EvaluationBackend& backend,
                        const std::shared_ptr<dd::DdSession>& session,
                        const VerifyRequest& request, const char* nullError) {
    VerifyReport report;
    if (request.circuit == nullptr || request.target == nullptr) {
        report.failed = true;
        report.error = nullError;
        return report;
    }
    const dd::ComputeCacheStats before = cacheCounters(session);
    report.ops = request.circuit->numOperations();
    try {
        const std::uint64_t repeats = request.repeat == 0 ? 1 : request.repeat;
        for (std::uint64_t run = 0; run < repeats; ++run) {
            report.fidelity = backend.preparationFidelity(*request.circuit, *request.target);
        }
    } catch (const std::exception& error) {
        report.failed = true;
        report.error = error.what();
    }
    stampSessionMetrics(report, session, before);
    return report;
}

} // namespace

EvalState EvaluationBackend::runFromZero(const Circuit& circuit) const {
    const parallel::ScopedThreadCount scope(executionConfig().threads);
    EvalState state = zeroState(circuit.dimensions());
    for (const Operation& op : circuit.operations()) {
        apply(state, op);
    }
    return state;
}

double EvaluationBackend::preparationFidelity(const Circuit& circuit,
                                              const EvalState& target) const {
    const parallel::ScopedThreadCount scope(executionConfig().threads);
    const EvalState prepared = runFromZero(circuit);
    EvalState holder;
    return liftTarget(ddSession(), target, holder).fidelityWith(prepared);
}

VerifyReport EvaluationBackend::verify(const VerifyRequest& request) const {
    return verifyItem(*this, ddSession(), request, "verify: null circuit or target");
}

std::vector<VerifyReport>
EvaluationBackend::verifyBatch(const std::vector<VerifyRequest>& items) const {
    std::vector<VerifyReport> results(items.size());
    // Grain 1: every item is its own unit of work. With one item (or one
    // configured thread) this runs inline on the caller — *outside* any
    // parallel region — so a dense single-item batch still parallelizes its
    // amplitude walks; with many items the pool workers each take items
    // whole and the nested kernels run serially on their worker.
    const std::shared_ptr<dd::DdSession> session = ddSession();
    const auto runItem = [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) {
            results[i] =
                verifyItem(*this, session, items[i], "verifyBatch: null circuit or target");
        }
    };
    // Pin the process width to this backend's configuration for the whole
    // batch: a 1-thread backend runs items (and their kernels) serially, a
    // 4-thread one fans the items out 4-wide.
    const parallel::ScopedThreadCount scope(executionConfig().threads);
    parallel::parallelFor(std::uint64_t{0}, items.size(), 1, runItem);
    return results;
}

VerifyReport EvaluationBackend::verifyStream(OperationSource& source,
                                             const VerifyRequest& request,
                                             EvalState* finalState) const {
    const parallel::ScopedThreadCount scope(executionConfig().threads);
    const std::shared_ptr<dd::DdSession> session = ddSession();
    const dd::ComputeCacheStats before = cacheCounters(session);
    VerifyReport report;
    EvalState state = zeroState(source.dimensions());
    // Lift the target once, before the replay, so every checkpoint overlap
    // is a same-store traversal that reuses whatever the replay interned.
    EvalState holder;
    const EvalState* lifted =
        request.target == nullptr ? nullptr : &liftTarget(session, *request.target, holder);
    const auto fidelityNow = [&]() {
        return lifted == nullptr ? state.normSquared() : lifted->fidelityWith(state);
    };
    while (auto op = source.next()) {
        apply(state, *op);
        ++report.ops;
        if (request.checkpointInterval != 0 &&
            report.ops % request.checkpointInterval == 0) {
            report.checkpoints.push_back({report.ops, fidelityNow(), poolNodesOf(session)});
        }
    }
    report.fidelity = fidelityNow();
    stampSessionMetrics(report, session, before);
    if (finalState != nullptr) {
        *finalState = std::move(state);
    }
    return report;
}

VerifyReport EvaluationBackend::reverifyAppended(const Circuit& circuit, std::uint64_t fromOp,
                                                 EvalState& replayed,
                                                 const EvalState& target) const {
    requireThat(fromOp <= circuit.numOperations(),
                "reverifyAppended: replay cursor is past the end of the circuit");
    const parallel::ScopedThreadCount scope(executionConfig().threads);
    const std::shared_ptr<dd::DdSession> session = ddSession();
    const dd::ComputeCacheStats before = cacheCounters(session);
    VerifyReport report;
    for (std::uint64_t i = fromOp; i < circuit.numOperations(); ++i) {
        apply(replayed, circuit[static_cast<std::size_t>(i)]);
        ++report.ops;
    }
    EvalState holder;
    report.fidelity = liftTarget(session, target, holder).fidelityWith(replayed);
    stampSessionMetrics(report, session, before);
    return report;
}

// --- DenseBackend ----------------------------------------------------------

EvalState DenseBackend::zeroState(const Dimensions& dims) const {
    const std::uint64_t total = MixedRadix(dims).totalDimension();
    requireThat(total <= maxAmplitudes_,
                "DenseBackend::zeroState: register has " + formatAmplitudeCount(total) +
                    " amplitudes, past the dense backend ceiling of " +
                    formatAmplitudeCount(maxAmplitudes_) +
                    " — use the dd backend (--backend dd)");
    return EvalState(StateVector::basis(dims, Digits(dims.size(), 0)));
}

void DenseBackend::apply(EvalState& state, const Operation& op) const {
    Simulator::apply(state.dense(), op);
}

bool DenseBackend::circuitsEquivalent(const Circuit& a, const Circuit& b,
                                      double tol) const {
    requireThat(a.radix() == b.radix(),
                "DenseBackend::circuitsEquivalent: registers differ");
    const parallel::ScopedThreadCount scope(executionConfig().threads);
    const std::uint64_t total = a.radix().totalDimension();
    requireThat(total <= kDenseEquivalenceCeiling,
                "DenseBackend::circuitsEquivalent: register has " +
                    formatAmplitudeCount(total) +
                    " amplitudes; dense equivalence walks every column (limit " +
                    formatAmplitudeCount(kDenseEquivalenceCeiling) +
                    ") — use the dd backend");

    // Column-by-column comparison of the two unitaries up to one global
    // phase. The phase is fixed by the *largest*-magnitude entry of the
    // first column — for a unitary column (norm 1) that entry is at least
    // 1/sqrt(total), far above tol, so the quotient is never dominated by
    // rounding noise the way a barely-above-tolerance entry would be.
    Complex phase{0.0, 0.0};
    bool havePhase = false;
    for (std::uint64_t column = 0; column < total; ++column) {
        const StateVector basis =
            StateVector::basis(a.dimensions(), a.radix().digitsOf(column));
        const StateVector columnA = Simulator::run(a, basis);
        const StateVector columnB = Simulator::run(b, basis);
        if (!havePhase) {
            std::uint64_t anchor = 0;
            double best = 0.0;
            for (std::uint64_t row = 0; row < total; ++row) {
                const double magnitude = std::abs(columnA[row]);
                if (magnitude > best) {
                    best = magnitude;
                    anchor = row;
                }
            }
            if (best > tol) {
                phase = columnB[anchor] / columnA[anchor];
                if (std::abs(std::abs(phase) - 1.0) > tol) {
                    return false;
                }
                havePhase = true;
            } else {
                // Column A vanishes (non-unitary input); B must vanish too.
                for (std::uint64_t row = 0; row < total; ++row) {
                    if (std::abs(columnB[row]) > tol) {
                        return false;
                    }
                }
                continue;
            }
        }
        for (std::uint64_t row = 0; row < total; ++row) {
            if (std::abs(columnB[row] - phase * columnA[row]) > tol) {
                return false;
            }
        }
    }
    return true;
}

// --- DdBackend -------------------------------------------------------------

DdBackend::DdBackend(double tolerance)
    : DdBackend(tolerance, parallel::globalExecutionConfig()) {}

DdBackend::DdBackend(double tolerance, parallel::ExecutionConfig config)
    : EvaluationBackend(config),
      session_(std::make_shared<dd::DdSession>(tolerance)),
      operatorStore_(std::make_shared<dd::DdNodeStore>(tolerance)) {}

EvalState DdBackend::zeroState(const Dimensions& dims) const {
    return EvalState(DecisionDiagram::zeroState(dims, session_.get()));
}

void DdBackend::apply(EvalState& state, const Operation& op) const {
    DecisionDiagram& diagram = state.diagram();
    if (!session_->owns(diagram)) {
        diagram = session_->intern(diagram);
    }
    diagram.applyOperation(op);
}

bool DdBackend::circuitsEquivalent(const Circuit& a, const Circuit& b, double tol) const {
    requireThat(a.radix() == b.radix(), "DdBackend::circuitsEquivalent: registers differ");
    // Both sides compile onto the backend's shared operator store (its
    // table is sharded, so concurrent batch items intern safely):
    // identity scaffolding and common gate structure are built once, and
    // two circuits that reduce to the same canonical operator
    // short-circuit on root identity.
    const MatrixDD lhs = MatrixDD::fromCircuit(a, session_->tolerance(), operatorStore_);
    const MatrixDD rhs = MatrixDD::fromCircuit(b, session_->tolerance(), operatorStore_);
    return lhs.equivalentUpToGlobalPhase(rhs, tol);
}

// --- factories -------------------------------------------------------------

std::unique_ptr<EvaluationBackend> makeBackend(BackendKind kind) {
    return makeBackend(kind, parallel::globalExecutionConfig());
}

std::unique_ptr<EvaluationBackend> makeBackend(BackendKind kind,
                                               parallel::ExecutionConfig config) {
    if (kind == BackendKind::Dense) {
        return std::make_unique<DenseBackend>(kDenseBackendCeiling, config);
    }
    return std::make_unique<DdBackend>(Tolerance::kDefault, config);
}

std::unique_ptr<EvaluationBackend> makeBackend(const std::string& spec,
                                               std::uint64_t totalDimension) {
    return makeBackend(resolveBackendKind(spec, totalDimension));
}

} // namespace mqsp
