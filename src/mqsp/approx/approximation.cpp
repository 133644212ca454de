#include "mqsp/approx/approximation.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace mqsp {

namespace {

/// A prunable unit: either an internal node (cut the edge from its parent)
/// or a single terminal edge (zero one amplitude). In the paper's tree view
/// both are "nodes"; terminal edges are its leaf nodes.
struct Candidate {
    double contribution = 0.0;
    NodeRef parent = kNoNode;
    std::size_t edgeIndex = 0;
    NodeRef child = kNoNode; // kNoNode for terminal-edge candidates
    bool isLeafEdge = false;
};

} // namespace

ApproximationReport approximate(DecisionDiagram& dd, const ApproximationOptions& options) {
    requireThat(options.fidelityThreshold > 0.0 && options.fidelityThreshold <= 1.0,
                "approximate: fidelityThreshold must lie in (0, 1]");
    ApproximationReport report;
    if (dd.rootNode() == kNoNode) {
        return report;
    }

    const auto contributions = dd.nodeContributions();

    // Gather candidates and the parent map (tree => unique parent).
    std::vector<Candidate> candidates;
    std::unordered_map<NodeRef, NodeRef> parentOf;
    {
        std::vector<NodeRef> stack{dd.rootNode()};
        std::vector<bool> seen(dd.poolSize(), false);
        seen[dd.rootNode()] = true;
        while (!stack.empty()) {
            const NodeRef ref = stack.back();
            stack.pop_back();
            const DDNode& n = dd.node(ref);
            for (std::size_t k = 0; k < n.edges.size(); ++k) {
                const DDEdge& edge = n.edges[k];
                if (edge.isZeroStub()) {
                    continue;
                }
                const DDNode& child = dd.node(edge.node);
                const double mass =
                    contributions[ref] * squaredMagnitude(edge.weight);
                if (child.isTerminal()) {
                    candidates.push_back(
                        {mass, ref, k, kNoNode, /*isLeafEdge=*/true});
                } else {
                    candidates.push_back({mass, ref, k, edge.node, /*isLeafEdge=*/false});
                    const bool inserted = parentOf.emplace(edge.node, ref).second;
                    requireThat(inserted || parentOf.at(edge.node) == ref,
                                "approximate: diagram must be tree-shaped (run the "
                                "approximation before reduce(); prune bookkeeping "
                                "relies on unique parents)");
                    if (!seen[edge.node]) {
                        seen[edge.node] = true;
                        stack.push_back(edge.node);
                    }
                }
            }
        }
    }

    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.contribution < b.contribution;
                     });

    const double budget = 1.0 - options.fidelityThreshold;
    std::vector<bool> nodeRemoved(dd.poolSize(), false);
    const auto inRemovedSubtree = [&](NodeRef ref) {
        // Walk up the parent chain; tree depth bounds the cost.
        for (NodeRef cur = ref; cur != kNoNode;) {
            if (nodeRemoved[cur]) {
                return true;
            }
            const auto it = parentOf.find(cur);
            cur = (it == parentOf.end()) ? kNoNode : it->second;
        }
        return false;
    };

    // Mass already removed underneath each node: an internal candidate's
    // effective cost is its contribution minus what its pruned descendants
    // already gave up, otherwise the budget would be double-charged.
    std::unordered_map<NodeRef, double> removedWithin;
    const auto chargeAncestors = [&](NodeRef from, double mass) {
        for (NodeRef cur = from; cur != kNoNode;) {
            removedWithin[cur] += mass;
            const auto it = parentOf.find(cur);
            cur = (it == parentOf.end()) ? kNoNode : it->second;
        }
    };

    double removed = 0.0;
    for (const auto& candidate : candidates) {
        if (inRemovedSubtree(candidate.parent)) {
            continue; // already gone with an ancestor
        }
        if (!candidate.isLeafEdge && nodeRemoved[candidate.child]) {
            continue;
        }
        double effective = candidate.contribution;
        if (!candidate.isLeafEdge) {
            if (const auto it = removedWithin.find(candidate.child);
                it != removedWithin.end()) {
                effective -= it->second;
            }
        }
        if (effective <= 0.0) {
            continue; // nothing (new) gained by pruning this
        }
        if (removed + effective > budget) {
            // Candidates are sorted ascending, but a later candidate can
            // still fit after this one overshoots (ties, partially-pruned
            // sub-trees); keep scanning to fill the budget greedily.
            continue;
        }
        dd.cutEdge(candidate.parent, candidate.edgeIndex);
        removed += effective;
        chargeAncestors(candidate.parent, effective);
        if (candidate.isLeafEdge) {
            ++report.removedLeafEdges;
        } else {
            nodeRemoved[candidate.child] = true;
            ++report.removedInternalNodes;
        }
    }

    report.removedMass = removed;
    report.fidelity = 1.0 - removed;

    dd.renormalize(options.tolerance);
    dd.normalizeRoot();

    report.mergedNodes = dd.reduce(options.tolerance);
    dd.garbageCollect();
    return report;
}

} // namespace mqsp
