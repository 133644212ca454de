#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mqsp {

namespace {

/// A weighted reference to a sub-tree; the building block of DD addition.
struct WeightedEdge {
    NodeRef node = kNoNode;
    Complex weight{0.0, 0.0};

    [[nodiscard]] bool isZero(double tol) const {
        return node == kNoNode || approxZero(weight, tol);
    }
};

} // namespace

DecisionDiagram DecisionDiagram::zeroState(const Dimensions& dims) {
    // Built natively as a weight-1 chain (structured.cpp), NOT via a dense
    // round trip: this is the starting point of DD simulation, which must
    // work on registers whose total dimension exceeds memory.
    return basisState(dims, Digits(MixedRadix(dims).numQudits(), 0));
}

void DecisionDiagram::applyOperation(const Operation& op) {
    requireThat(op.target < radix_.numQudits(), "applyOperation: target out of range");
    for (const auto& ctrl : op.controls) {
        requireThat(ctrl.qudit < radix_.numQudits(),
                    "applyOperation: control out of range");
        requireThat(ctrl.qudit < op.target,
                    "applyOperation: controls must be more significant than the target "
                    "(true for all synthesized preparation circuits)");
        requireThat(ctrl.level < radix_.dimensionAt(ctrl.qudit),
                    "applyOperation: control level out of range");
    }
    if (root_ == kNoNode) {
        return; // the zero vector is fixed by every linear map
    }

    // Pruning runs at the store's tolerance, the one its cached results
    // were computed under. Session compute cache: addition results keyed on
    // the *canonical* call (x's weight factored out). Entries persist
    // across gates and diagrams of the owning session — private diagrams
    // carry no cache and always recompute.
    const double tol = store_->tolerance();
    dd::ComputeCache* cache = store_->interning() ? &store_->computeCache() : nullptr;

    // The gate kernel: a copy-on-write rebuild of the paths the gate
    // reaches (`visit`) that mixes the target level's out-edges through
    // normalized DD addition (`add`). Every rebuilt node goes through
    // `intern`. A local class of this member function, so it may allocate
    // on the diagram's store.
    struct Kernel {
        DecisionDiagram& diagram;
        const Operation& op;
        const DenseMatrix local;
        double tol;
        dd::ComputeCache* cache;
        std::unordered_map<NodeRef, WeightedEdge> visitMemo;

        [[nodiscard]] DDEdge edgeOf(const WeightedEdge& edge) const {
            return edge.isZero(tol) ? DDEdge{} : DDEdge{edge.node, edge.weight};
        }

        /// Normalize `edges` (zero stubs are absent children) and allocate
        /// the node: sum |w|^2 over the non-stub edges in index order, divide
        /// them by the norm, then allocate. Returns the node with its norm as
        /// the (real) weight, or the zero edge when no child survived.
        WeightedEdge intern(std::uint32_t site, std::vector<DDEdge> edges) {
            double sumSquares = 0.0;
            bool any = false;
            for (const auto& edge : edges) {
                if (!edge.isZeroStub()) {
                    sumSquares += squaredMagnitude(edge.weight);
                    any = true;
                }
            }
            if (!any) {
                return {};
            }
            const double norm = std::sqrt(sumSquares);
            for (auto& edge : edges) {
                if (!edge.isZeroStub()) {
                    edge.weight /= norm;
                }
            }
            return {diagram.allocate(site, std::move(edges)), Complex{norm, 0.0}};
        }

        /// Normalized addition of weighted sub-trees (the classic DD add).
        /// The result edge's weight carries the norm; the node below is
        /// normalized. The recursion is evaluated in the canonical frame
        /// (in-weights (1, y/x)): addition is linear, so the absolute result
        /// is the canonical result scaled by x.weight — which makes one
        /// cache entry serve every scaled recurrence of the same structural
        /// addition.
        WeightedEdge add(WeightedEdge x, WeightedEdge y) {
            const bool xZero = x.isZero(tol);
            const bool yZero = y.isZero(tol);
            if (xZero && yZero) {
                return {};
            }
            if (xZero) {
                return y;
            }
            if (yZero) {
                return x;
            }
            if (diagram.node(x.node).isTerminal()) {
                ensureThat(diagram.node(y.node).isTerminal(),
                           "applyOperation: level mismatch in addition");
                const Complex sum = x.weight + y.weight;
                if (approxZero(sum, tol)) {
                    return {};
                }
                return {/*terminal=*/0, sum};
            }
            ensureThat(diagram.node(x.node).site == diagram.node(y.node).site,
                       "applyOperation: site mismatch in addition");
            // No operand reordering: addition commutes mathematically, but
            // NodeRef order is allocation order — scheduling-dependent in a
            // concurrent session — and swapping changes the floating-point
            // evaluation order, which would break bit-identical results
            // across thread counts. The cache simply keys (x, y) as called.
            const Complex scale = x.weight;
            const Complex ratio = y.weight / scale;
            if (cache != nullptr) {
                if (const auto hit =
                        cache->lookup(dd::ComputeCache::Op::Add, x.node, y.node, ratio)) {
                    if (hit->node == kNoNode) {
                        return {};
                    }
                    return {hit->node, scale * hit->value};
                }
            }
            // Node addresses are stable (chunked pool), so holding references
            // across the allocating recursion below would be safe; per-edge
            // re-fetches through the NodeRefs are kept for uniformity.
            const std::uint32_t site = diagram.node(x.node).site;
            std::vector<DDEdge> edges(diagram.node(x.node).edges.size());
            for (std::size_t k = 0; k < edges.size(); ++k) {
                const DDEdge ex = diagram.node(x.node).edges[k];
                const DDEdge ey = diagram.node(y.node).edges[k];
                edges[k] = edgeOf(add({ex.node, ex.weight}, {ey.node, ratio * ey.weight}));
            }
            const WeightedEdge sum = intern(site, std::move(edges));
            if (cache != nullptr) {
                cache->store(dd::ComputeCache::Op::Add, x.node, y.node, ratio,
                             dd::ComputeCache::Result{sum.node, sum.weight});
            }
            if (sum.node == kNoNode) {
                return {};
            }
            return {sum.node, scale * sum.weight};
        }

        /// The replacement edge for the sub-tree rooted at `ref` whose
        /// in-edge weight was `weight` (shared nodes on unaffected paths are
        /// reused). The rebuild of a sub-tree is independent of the path that
        /// reached it (the in-weight only scales the returned edge linearly),
        /// so results are memoized per node for in-weight 1 — on a reduced
        /// (shared) diagram a node is rebuilt once, not once per root-to-node
        /// path, which keeps gate application polynomial on DAG-shaped states
        /// like the uniform superposition.
        WeightedEdge visit(NodeRef ref, Complex weight) {
            if (const auto it = visitMemo.find(ref); it != visitMemo.end()) {
                const WeightedEdge& base = it->second;
                if (base.node == kNoNode) {
                    return {};
                }
                return {base.node, weight * base.weight};
            }
            ensureThat(!diagram.node(ref).isTerminal(),
                       "applyOperation: traversal reached the terminal");
            // Copy this node's shape up front (keeps the loops independent of
            // the allocating add()/visit() recursion below).
            const std::uint32_t site = diagram.node(ref).site;
            std::vector<DDEdge> edges = diagram.node(ref).edges;
            if (site == op.target) {
                // Mix the out-edges by the local matrix:
                // new_edge_r = sum_c local(r, c) * edge_c.
                const std::vector<DDEdge> source = std::move(edges);
                edges.assign(source.size(), DDEdge{});
                for (std::size_t r = 0; r < source.size(); ++r) {
                    WeightedEdge acc;
                    for (std::size_t c = 0; c < source.size(); ++c) {
                        const Complex coefficient = local(r, c);
                        if (coefficient == Complex{0.0, 0.0} || source[c].isZeroStub()) {
                            continue;
                        }
                        acc = add(acc, {source[c].node, coefficient * source[c].weight});
                    }
                    edges[r] = edgeOf(acc);
                }
            } else {
                // Above the target: a control on this site restricts the
                // rebuild to the edge of its level.
                const Control* control = nullptr;
                for (const auto& ctrl : op.controls) {
                    if (ctrl.qudit == site) {
                        control = &ctrl;
                        break;
                    }
                }
                for (std::size_t k = 0; k < edges.size(); ++k) {
                    if (!edges[k].isZeroStub() && (control == nullptr || control->level == k)) {
                        edges[k] = edgeOf(visit(edges[k].node, edges[k].weight));
                    }
                }
            }
            const WeightedEdge rebuilt = intern(site, std::move(edges));
            visitMemo.emplace(ref, rebuilt);
            if (rebuilt.node == kNoNode) {
                return {};
            }
            return {rebuilt.node, weight * rebuilt.weight.real()};
        }
    };

    Kernel kernel{*this, op, op.localMatrix(radix_.dimensionAt(op.target)), tol, cache, {}};
    const WeightedEdge newRoot = kernel.visit(root_, rootWeight_);
    if (newRoot.isZero(tol)) {
        cutRoot();
        return;
    }
    root_ = newRoot.node;
    rootWeight_ = newRoot.weight;
}

} // namespace mqsp
