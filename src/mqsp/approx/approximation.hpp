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

    /// Fidelity of the pruned state, normalized again, against the original:
    /// exactly 1 - removedMass, since every cut removes its own edge's mass.
    double fidelity = 1.0;

    /// Internal decision nodes pruned, counted in the paper's tree view: a
    /// cut to a single-path node takes its whole sub-tree with it, and a
    /// cut to a shared node removes that node's copy on the one path.
    std::size_t removedInternalNodes = 0;

    /// Terminal edges pruned (single amplitudes zeroed) — the leaf "nodes"
    /// of the paper's tree-shaped counting.
    std::size_t removedLeafEdges = 0;

    /// Nodes the rebuild merged: surviving nodes that pruning made
    /// structurally identical (the paper's reduction step).
    std::size_t mergedNodes = 0;
};

/// Prune the decision diagram until removing anything further would push the
/// fidelity below `options.fidelityThreshold` (§4.3). The pass reads `dd`
/// without writing it: contributions are computed for the single-path nodes
/// (those the root reaches along exactly one path — on a tree, every node),
/// and their edges are cut greedily smallest-first. Nothing below a shared
/// (multi-path) node is cut, so shared sub-diagrams survive whole, and each
/// cut removes exactly its own edge's mass. `dd` is then replaced by one
/// rebuild on a fresh store at `options.tolerance`: normalized,
/// and reduced by merging identical sub-trees (the paper's reduction rule,
/// which also enables control elision during synthesis). Diagrams that
/// alias the input keep it. A pass that cuts nothing leaves `dd` unchanged.
ApproximationReport approximate(DecisionDiagram& dd, const ApproximationOptions& options = {});

} // namespace mqsp
