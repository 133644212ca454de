#include "mqsp/approx/approximation.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace mqsp {

namespace {

/// Local index of "no node": the parent of the root and of a multi-path
/// node, and the child of a terminal edge.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// The diagram as the pass reads it, never writes it: the nodes the root
/// reaches, numbered in the order DdNodeStore::reachable visits them (the
/// root is 0), and their edges numbered flat in that order, each node's in
/// index order. Every array of the pass is indexed by one of the two, so
/// its size follows the diagram, not the store's pool (on a serve session
/// the pool holds every resident target).
struct ReachableView {
    std::vector<NodeRef> nodes;           ///< local index -> node
    std::vector<std::uint32_t> firstEdge; ///< local index -> its first flat edge
    std::vector<std::uint32_t> child;     ///< flat edge -> internal child, kNone otherwise
    std::vector<std::uint8_t> inDegree;   ///< local index -> in-edges, saturated at 2

    explicit ReachableView(const DecisionDiagram& dd) : nodes(dd.reachableNodes()) {
        std::vector<std::pair<NodeRef, std::uint32_t>> byRef(nodes.size());
        for (std::uint32_t i = 0; i < nodes.size(); ++i) {
            byRef[i] = {nodes[i], i};
        }
        std::sort(byRef.begin(), byRef.end());
        firstEdge.resize(nodes.size());
        inDegree.assign(nodes.size(), 0);
        for (std::uint32_t i = 0; i < nodes.size(); ++i) {
            firstEdge[i] = static_cast<std::uint32_t>(child.size());
            for (const DDEdge& edge : dd.node(nodes[i]).edges) {
                std::uint32_t local = kNone;
                if (!edge.isZeroStub() && !dd.node(edge.node).isTerminal()) {
                    local = std::lower_bound(byRef.begin(), byRef.end(),
                                             std::pair<NodeRef, std::uint32_t>{edge.node, 0})
                                ->second;
                    inDegree[local] = static_cast<std::uint8_t>(std::min(inDegree[local] + 1, 2));
                }
                child.push_back(local);
            }
        }
    }
};

/// A prunable edge of a single-path node: cutting it removes exactly
/// `contribution`, the mass of the basis states whose path crosses it. In
/// the paper's tree view it is a node — internal when the edge leads to
/// one, a leaf when it leads to the terminal.
struct Candidate {
    double contribution = 0.0;
    std::uint32_t parent = kNone; ///< local index of the single-path node
    std::uint32_t edge = 0;       ///< flat edge index
};

/// The greedy pass over `view` of `dd`: the flat-edge marks of the cuts
/// whose summed mass stays within `budget`, with the report's counts,
/// removed mass and fidelity filled in.
std::vector<char> chooseCuts(const DecisionDiagram& dd, const ReachableView& view,
                             double budget, ApproximationReport& report) {
    const std::size_t count = view.nodes.size();

    // Candidates: the edges of single-path nodes — the nodes the root
    // reaches along exactly one path — in visiting order, each node's in
    // index order. A node is single-path when its one in-edge comes from a
    // single-path node; that parent precedes it in visiting order, which
    // first reached it from there. A cut below a multi-path node would
    // change every path through it, so shared sub-diagrams are kept whole.
    std::vector<char> singlePath(count, 0);
    std::vector<std::uint32_t> parentOf(count, kNone);
    std::vector<double> contribution(count, 0.0); ///< mass through a single-path node
    singlePath[0] = 1;
    contribution[0] = squaredMagnitude(dd.rootWeight());
    std::vector<Candidate> candidates;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (singlePath[i] == 0) {
            continue;
        }
        const DDNode& node = dd.node(view.nodes[i]);
        for (std::uint32_t k = 0; k < node.edges.size(); ++k) {
            if (node.edges[k].isZeroStub()) {
                continue;
            }
            const std::uint32_t edge = view.firstEdge[i] + k;
            const double mass = contribution[i] * squaredMagnitude(node.edges[k].weight);
            candidates.push_back({mass, i, edge});
            const std::uint32_t child = view.child[edge];
            if (child != kNone && view.inDegree[child] == 1) {
                singlePath[child] = 1;
                parentOf[child] = i;
                contribution[child] = mass;
            }
        }
    }

    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.contribution < b.contribution;
                     });

    // Greedy smallest-first removal within the budget. `removedWithin`
    // holds the mass already removed underneath each single-path node: an
    // internal candidate's effective cost is its contribution minus what
    // its pruned descendants already gave up, otherwise the budget would be
    // double-charged. A cut into a shared child removes only its own edge:
    // nothing below a multi-path node is ever cut, and the child stays
    // live for its other parents.
    std::vector<char> removed(count, 0);
    std::vector<double> removedWithin(count, 0.0);
    std::vector<char> cut(view.child.size(), 0);
    double removedMass = 0.0;
    const auto inRemovedSubtree = [&](std::uint32_t from) {
        // Walk up the parent chain; the register depth bounds the cost.
        for (std::uint32_t cur = from; cur != kNone; cur = parentOf[cur]) {
            if (removed[cur] != 0) {
                return true;
            }
        }
        return false;
    };
    for (const Candidate& candidate : candidates) {
        if (inRemovedSubtree(candidate.parent)) {
            continue; // already gone with an ancestor
        }
        const std::uint32_t child = view.child[candidate.edge];
        double effective = candidate.contribution;
        if (child != kNone) {
            effective -= removedWithin[child];
        }
        if (effective <= 0.0) {
            continue; // nothing (new) gained by pruning this
        }
        if (removedMass + effective > budget) {
            // Candidates are sorted ascending, but a later candidate can
            // still fit after this one overshoots (ties, partially-pruned
            // sub-trees); keep scanning to fill the budget greedily.
            continue;
        }
        cut[candidate.edge] = 1;
        removedMass += effective;
        for (std::uint32_t cur = candidate.parent; cur != kNone; cur = parentOf[cur]) {
            removedWithin[cur] += effective;
        }
        if (child == kNone) {
            ++report.removedLeafEdges;
        } else {
            removed[child] = singlePath[child];
            ++report.removedInternalNodes;
        }
    }
    report.removedMass = removedMass;
    report.fidelity = 1.0 - removedMass;
    return cut;
}

} // namespace

ApproximationReport approximate(DecisionDiagram& dd, const ApproximationOptions& options) {
    requireThat(options.fidelityThreshold > 0.0 && options.fidelityThreshold <= 1.0,
                "approximate: fidelityThreshold must lie in (0, 1]");
    ApproximationReport report;
    if (dd.rootNode() == kNoNode) {
        return report;
    }
    const ReachableView view(dd);
    const std::vector<char> cut =
        chooseCuts(dd, view, 1.0 - options.fidelityThreshold, report);
    if (report.removedLeafEdges + report.removedInternalNodes == 0) {
        return report; // nothing cut: the input is the exact result
    }

    // The result: one memoized post-order walk over the surviving edges onto
    // `target`, a fresh interning store. A cut edge, a dead child, or a
    // child whose scaled weight is approxZero becomes a pruned stub; each
    // surviving weight is scaled by its child's factor (the child's norm, 1
    // for the terminal); then DecisionDiagram::normalizedNode divides the
    // weights by the root of their squares summed in index order and
    // interns the node, which merges nodes that pruning made identical. Each
    // node's edges are staged on one reused stack, as in
    // DecisionDiagram::rebuiltOn. A local class, so it may intern through
    // the result's normalizedNode.
    struct PrunedRebuild {
        const DecisionDiagram& source;
        const ReachableView& view;
        const std::vector<char>& cut; ///< flat edge -> cut by the greedy pass
        double tol;
        DecisionDiagram& target;
        std::vector<DDEdge> memo;  ///< local index -> rebuilt node with its factor; stub = died
        std::vector<char> visited; ///< local index -> memo is set
        std::vector<DDEdge> staged;

        DDEdge visit(std::uint32_t i) {
            if (visited[i] != 0) {
                return memo[i];
            }
            const DDNode& node = source.node(view.nodes[i]);
            const std::size_t base = staged.size();
            staged.insert(staged.end(), node.edges.begin(), node.edges.end());
            for (std::uint32_t k = 0; k < node.edges.size(); ++k) {
                if (node.edges[k].isZeroStub()) {
                    continue;
                }
                const std::uint32_t edge = view.firstEdge[i] + k;
                DDEdge below{/*terminal=*/0, Complex{1.0, 0.0}};
                if (cut[edge] != 0) {
                    below = DDEdge{};
                } else if (view.child[edge] != kNone) {
                    below = visit(view.child[edge]);
                }
                // Index after visiting: the recursion may grow `staged`.
                DDEdge& out = staged[base + k];
                const double factor = below.weight.real();
                if (below.isZeroStub() || approxZero(out.weight * factor, tol)) {
                    out = DDEdge{kNoNode, Complex{0.0, 0.0}, /*pruned=*/true};
                    continue;
                }
                out.node = below.node;
                out.weight *= factor;
            }
            memo[i] = target.normalizedNode(node.site, std::span<DDEdge>(staged).subspan(base));
            visited[i] = 1;
            staged.resize(base);
            return memo[i];
        }
    };

    // A fresh store, never the input's: a node normalized again one ulp away
    // from its original would land in the original's bucket and take the
    // original's bits.
    DecisionDiagram result(
        std::make_shared<dd::DdNodeStore>(dd::DdNodeStore::Mode::Interning, options.tolerance),
        dd.dimensions());
    const std::size_t count = view.nodes.size();
    PrunedRebuild rebuild{dd, view, cut, options.tolerance, result,
                          std::vector<DDEdge>(count), std::vector<char>(count, 0), {}};
    const DDEdge root = rebuild.visit(0);
    if (!root.isZeroStub()) {
        result.root_ = root.node;
        result.rootWeight_ = dd.rootWeight() * root.weight.real();
        result.rootWeight_ /= std::abs(result.rootWeight_);
    }
    const auto kept = static_cast<std::size_t>(
        std::count_if(rebuild.memo.begin(), rebuild.memo.end(),
                      [](const DDEdge& edge) { return !edge.isZeroStub(); }));
    report.mergedNodes = kept - (result.poolSize() - 1); // the terminal is no merge
    dd = std::move(result);
    return report;
}

} // namespace mqsp
