#pragma once

#include "mqsp/approx/approximation.hpp"
#include "mqsp/circuit/circuit.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/statevec/state_vector.hpp"
#include "mqsp/synth/rotation_cascade.hpp"

#include <string>

namespace mqsp {

/// Options of the decision-diagram-to-circuit synthesis (§4.2).
struct SynthesisOptions {
    /// Emit every cascade step, including identity rotations and zero
    /// phases. This reproduces the paper's operation counting exactly
    /// (each nonzero node contributes dim-many multi-controlled ops).
    /// Disable to get shorter circuits with identical semantics.
    bool emitIdentityOperations = true;

    /// When every nonzero out-edge of a node points to one shared child
    /// (the tensor-product pattern exposed by reduction, §4.3), descend once
    /// and skip that node's control on the child's operations.
    bool elideTensorProductControls = true;

    /// Numerical tolerance for identity detection.
    double tolerance = Tolerance::kDefault;

    /// Name given to the produced circuit.
    std::string circuitName = "state_preparation";
};

/// Synthesize a mixed-dimensional state-preparation circuit from a decision
/// diagram. The produced circuit, applied to |0...0>, prepares the state the
/// diagram represents (up to an irrelevant global phase; in practice the
/// construction keeps the root weight at 1, so the state is exact).
///
/// Complexity: linear in the number of diagram nodes (each node is visited
/// once per root-to-node context and contributes at most dim operations) —
/// the paper's §3.3 efficiency claim.
[[nodiscard]] Circuit synthesize(const DecisionDiagram& dd, const SynthesisOptions& options = {});

/// Result bundle of the end-to-end pipelines below.
struct PreparationResult {
    Circuit circuit;
    DecisionDiagram diagram;        ///< the diagram the circuit was built from
    ApproximationReport approx;     ///< meaningful for the approximated pipeline
};

/// The paper's "Exact" pipeline: state -> reduced diagram (split and
/// interned by DecisionDiagram::fromStateVector) -> circuit. Reducing first
/// is what lets §4.3's tensor-product control elision fire.
[[nodiscard]] PreparationResult prepareExact(const StateVector& state,
                                             const SynthesisOptions& options = {});

/// Exact pipeline from an already-built diagram (e.g. a DD-native
/// structured-state builder on a register past the dense ceiling).
[[nodiscard]] PreparationResult prepareExact(DecisionDiagram diagram,
                                             const SynthesisOptions& options = {});

/// The paper's "Approximated" pipeline: state -> reduced diagram -> prune
/// to the fidelity threshold and rebuild reduced (approximate) -> circuit.
[[nodiscard]] PreparationResult prepareApproximated(const StateVector& state,
                                                    double fidelityThreshold = 0.98,
                                                    const SynthesisOptions& options = {});

/// Approximated pipeline from an already-built diagram, tree or reduced.
[[nodiscard]] PreparationResult prepareApproximated(DecisionDiagram diagram,
                                                    double fidelityThreshold = 0.98,
                                                    const SynthesisOptions& options = {});

} // namespace mqsp
