#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

namespace mqsp {

void DecisionDiagram::cutEdge(NodeRef parent, std::size_t edgeIndex) {
    const std::span<DDEdge> edges = mutableEdges(parent);
    requireThat(!node(parent).isTerminal(), "DecisionDiagram::cutEdge: cannot cut terminal edges");
    requireThat(edgeIndex < edges.size(), "DecisionDiagram::cutEdge: edge index out of range");
    edges[edgeIndex] = DDEdge{kNoNode, Complex{0.0, 0.0}, /*pruned=*/true};
}

void DecisionDiagram::cutRoot() {
    root_ = kNoNode;
    rootWeight_ = Complex{0.0, 0.0};
}

void DecisionDiagram::renormalize(double tol) {
    if (root_ == kNoNode) {
        return;
    }
    // Post-order renormalization: after cuts the out-weights of a node no
    // longer sum to one, so the residual norm is pushed upward exactly like
    // during construction. `visit` returns the factor to multiply into
    // in-edge weights of a node, or a negative value when the node died
    // (all children cut). Memoized so shared (reduced) nodes renormalize once.
    std::unordered_map<NodeRef, double> factor;
    const std::function<double(NodeRef)> visit = [&](NodeRef ref) -> double {
        if (node(ref).isTerminal()) {
            return 1.0;
        }
        if (const auto it = factor.find(ref); it != factor.end()) {
            return it->second;
        }
        const std::span<DDEdge> edges = mutableEdges(ref);
        double sumSquares = 0.0;
        bool any = false;
        for (auto& edge : edges) {
            if (edge.isZeroStub()) {
                continue;
            }
            const double childFactor = visit(edge.node);
            if (childFactor < 0.0 || approxZero(edge.weight * childFactor, tol)) {
                // The child died because pruning emptied it; mark the slot
                // as pruned so the approximated node count drops with it.
                edge = DDEdge{kNoNode, Complex{0.0, 0.0}, /*pruned=*/true};
                continue;
            }
            edge.weight *= childFactor;
            sumSquares += squaredMagnitude(edge.weight);
            any = true;
        }
        double result = -1.0;
        if (any) {
            const double norm = std::sqrt(sumSquares);
            for (auto& edge : edges) {
                if (!edge.isZeroStub()) {
                    edge.weight /= norm;
                }
            }
            result = norm;
        }
        factor.emplace(ref, result);
        return result;
    };
    const double rootFactor = visit(root_);
    if (rootFactor < 0.0) {
        cutRoot();
        return;
    }
    rootWeight_ *= rootFactor;
}

void DecisionDiagram::normalizeRoot() {
    if (root_ == kNoNode) {
        return;
    }
    const double magnitude = std::abs(rootWeight_);
    requireThat(magnitude > 0.0, "DecisionDiagram::normalizeRoot: zero root weight");
    rootWeight_ /= magnitude;
}

std::size_t DecisionDiagram::reduce(double tol) {
    if (root_ == kNoNode) {
        return 0;
    }
    if (store_->interning()) {
        // Session-backed diagrams are hash-consed at allocation time with
        // the same key scheme reduce uses: every node is already canonical,
        // and the in-place edge rewiring below would corrupt diagrams
        // sharing the store.
        return 0;
    }
    // Bottom-up hash-consing through the uniquing table (same open-
    // addressed machinery as a session store, scoped to this one pass).
    // Because weights were normalized by a fixed scheme during construction
    // (§4.2: "normalized by a fixed scheme to ensure canonicity"),
    // structurally identical sub-trees have identical weights and merge
    // exactly; the tolerance only absorbs rounding.
    dd::UniqueTable unique(tol);
    std::unordered_map<NodeRef, NodeRef> canonical;

    const std::function<NodeRef(NodeRef)> visit = [&](NodeRef ref) -> NodeRef {
        if (node(ref).isTerminal()) {
            return ref;
        }
        if (const auto it = canonical.find(ref); it != canonical.end()) {
            return it->second;
        }
        const std::span<DDEdge> edges = mutableEdges(ref);
        for (auto& edge : edges) {
            if (!edge.isZeroStub()) {
                edge.node = visit(edge.node);
            }
        }
        // The node itself becomes canonical when no twin was seen before.
        const auto keepSelf = [ref](std::size_t /*shard*/) { return ref; };
        const NodeRef merged = unique.findOrInsert(node(ref).site, edges,
                                                   dd::detail::MakeNodeFnRef(keepSelf));
        canonical.emplace(ref, merged);
        return merged;
    };

    const std::size_t reachableBefore = nodeCount(NodeCountMode::Internal);
    root_ = visit(root_);
    const std::size_t reachableAfter = nodeCount(NodeCountMode::Internal);
    return reachableBefore - reachableAfter;
}

void DecisionDiagram::garbageCollect() {
    if (!store_ || store_->interning()) {
        // Node lifetime on a shared store belongs to the session, not to
        // any one diagram: compaction would remap refs under every sibling.
        return;
    }
    *this = rebuiltOn(
        std::make_shared<dd::DdNodeStore>(dd::DdNodeStore::Mode::Private, store_->tolerance()));
}

} // namespace mqsp
