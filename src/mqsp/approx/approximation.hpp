#pragma once

#include "mqsp/dd/decision_diagram.hpp"

#include <cstddef>

namespace mqsp {

/// Options of the approximation pass (§4.3 of the paper).
struct ApproximationOptions {
    /// Lower bound on the fidelity of the approximated state against the
    /// original ("Approximated 98%" uses 0.98). Must be in (0, 1].
    double fidelityThreshold = 0.98;

    /// Numerical tolerance for zero/merge decisions.
    double tolerance = Tolerance::kDefault;
};

/// Outcome of the approximation pass.
struct ApproximationReport {
    /// Probability mass removed from the state (sum of pruned contributions).
    double removedMass = 0.0;

    /// Fidelity of the pruned-and-renormalized state against the original:
    /// exactly 1 - removedMass for disjoint tree prunes.
    double fidelity = 1.0;

    /// Internal decision nodes pruned (their whole sub-tree went with them).
    std::size_t removedInternalNodes = 0;

    /// Terminal edges pruned (single amplitudes zeroed) — the leaf "nodes"
    /// of the paper's tree-shaped counting.
    std::size_t removedLeafEdges = 0;

    /// Nodes eliminated by the reduction (sharing) step.
    std::size_t mergedNodes = 0;
};

/// Prune the decision diagram until removing anything further would push the
/// fidelity below `options.fidelityThreshold` (§4.3): contributions are
/// computed per node, candidates are removed greedily smallest-first, the
/// diagram is renormalized, reduced by merging identical sub-trees (the
/// paper's reduction rule, which also enables control elision during
/// synthesis), and collected. The input diagram must be tree-shaped (fresh from
/// DecisionDiagram::fromStateVector); the output is the approximated diagram
/// the synthesizer consumes.
ApproximationReport approximate(DecisionDiagram& dd, const ApproximationOptions& options = {});

} // namespace mqsp
