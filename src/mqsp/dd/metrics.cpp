#include "mqsp/complexnum/complex_table.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/support/error.hpp"

#include <cmath>
#include <functional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace mqsp {

std::vector<NodeRef> DecisionDiagram::reachableNodes() const {
    if (root_ == kNoNode) {
        return {};
    }
    return store_->reachable(std::span<const NodeRef>(&root_, 1));
}

std::uint64_t DecisionDiagram::denseTreeNodeCount(const Dimensions& dims) {
    // Root + every level of the dense splitting tree + one leaf per
    // amplitude: sum over k in [0, n] of the product of the first k dims.
    std::uint64_t total = 0;
    std::uint64_t prefix = 1;
    for (std::size_t k = 0; k <= dims.size(); ++k) {
        total += prefix;
        if (k < dims.size()) {
            prefix *= dims[k];
        }
    }
    return total;
}

std::uint64_t DecisionDiagram::nodeCount(NodeCountMode mode) const {
    switch (mode) {
    case NodeCountMode::Internal:
        return reachableNodes().size();
    case NodeCountMode::DenseTree:
        return denseTreeNodeCount(radix_.dimensions());
    case NodeCountMode::Slots: {
        if (root_ == kNoNode) {
            return 0;
        }
        std::uint64_t slots = 1; // the root itself
        for (const NodeRef ref : reachableNodes()) {
            for (const auto& edge : node(ref).edges) {
                if (!edge.pruned) {
                    ++slots;
                }
            }
        }
        return slots;
    }
    case NodeCountMode::TreeSlots: {
        if (root_ == kNoNode) {
            return 0;
        }
        // f(v) = slots of the tree expansion below v (v itself excluded);
        // memoized so shared nodes are computed once but counted per path.
        std::unordered_map<NodeRef, std::uint64_t> memo;
        const std::function<std::uint64_t(NodeRef)> f = [&](NodeRef ref) -> std::uint64_t {
            if (const auto it = memo.find(ref); it != memo.end()) {
                return it->second;
            }
            std::uint64_t slots = 0;
            for (const auto& edge : node(ref).edges) {
                if (edge.pruned) {
                    continue;
                }
                ++slots;
                if (!edge.isZeroStub() && !node(edge.node).isTerminal()) {
                    slots += f(edge.node);
                }
            }
            memo.emplace(ref, slots);
            return slots;
        };
        return 1 + f(root_);
    }
    }
    detail::throwInternal("DecisionDiagram::nodeCount: unknown mode");
}

std::size_t DecisionDiagram::distinctComplexCount(double tol) const {
    if (root_ == kNoNode) {
        return 0;
    }
    ComplexTable table(tol);
    table.lookup(rootWeight_);
    for (const NodeRef ref : reachableNodes()) {
        for (const auto& edge : node(ref).edges) {
            table.lookup(edge.weight); // zero stubs contribute the value 0
        }
    }
    return table.size();
}

std::vector<double> DecisionDiagram::nodeContributions() const {
    std::vector<double> contribution(poolSize(), 0.0);
    if (root_ == kNoNode) {
        return contribution;
    }
    // Mass flows downward: contribution(child) += contribution(parent) *
    // |edge weight|^2. Out-edge weights are normalized per node, so the mass
    // below any node equals the mass flowing into it. Nodes are processed in
    // topological order (by site level), which a DFS order provides on these
    // level-structured diagrams; to stay correct on DAGs we accumulate by
    // level sweeps.
    contribution[root_] = squaredMagnitude(rootWeight_);
    // Level-ordered sweep: gather reachable nodes, bucket by site.
    std::vector<std::vector<NodeRef>> byLevel(radix_.numQudits());
    for (const NodeRef ref : reachableNodes()) {
        byLevel[node(ref).site].push_back(ref);
    }
    for (const auto& level : byLevel) {
        for (const NodeRef ref : level) {
            const DDNode& n = node(ref);
            for (const auto& edge : n.edges) {
                if (edge.isZeroStub()) {
                    continue;
                }
                const DDNode& child = node(edge.node);
                if (child.isTerminal()) {
                    continue;
                }
                contribution[edge.node] +=
                    contribution[ref] * squaredMagnitude(edge.weight);
            }
        }
    }
    return contribution;
}

bool DecisionDiagram::isTensorProductNode(NodeRef ref) const {
    const DDNode& n = node(ref);
    if (n.isTerminal()) {
        return false;
    }
    NodeRef shared = kNoNode;
    std::size_t nonZero = 0;
    for (const auto& edge : n.edges) {
        if (edge.isZeroStub()) {
            continue;
        }
        ++nonZero;
        if (shared == kNoNode) {
            shared = edge.node;
        } else if (shared != edge.node) {
            return false;
        }
    }
    // A single nonzero edge is not the sharing pattern of §4.3 (and eliding
    // its control would change the paper's control counts); require at
    // least two edges converging on one child.
    return nonZero >= 2 && shared != kNoNode && !node(shared).isTerminal();
}

std::string DecisionDiagram::checkInvariants(double tol) const {
    if (root_ == kNoNode) {
        return {};
    }
    std::ostringstream problems;
    for (const NodeRef ref : reachableNodes()) {
        const DDNode& n = node(ref);
        if (n.site >= radix_.numQudits()) {
            problems << "node " << ref << " has out-of-range site " << n.site << "; ";
            continue;
        }
        if (n.edges.size() != radix_.dimensionAt(n.site)) {
            problems << "node " << ref << " has " << n.edges.size() << " edges, expected "
                     << radix_.dimensionAt(n.site) << "; ";
        }
        double sumSquares = 0.0;
        bool anyChild = false;
        for (const auto& edge : n.edges) {
            if (edge.isZeroStub()) {
                if (!approxZero(edge.weight, tol)) {
                    problems << "node " << ref << " has zero stub with nonzero weight; ";
                }
                continue;
            }
            anyChild = true;
            sumSquares += squaredMagnitude(edge.weight);
            const DDNode& child = node(edge.node);
            if (!child.isTerminal() && child.site != n.site + 1) {
                problems << "node " << ref << " skips levels (site " << n.site << " -> "
                         << child.site << "); ";
            }
            if (child.isTerminal() && n.site + 1 != radix_.numQudits()) {
                problems << "node " << ref << " reaches the terminal early; ";
            }
        }
        if (!anyChild) {
            problems << "node " << ref << " has only zero stubs; ";
        } else if (std::abs(sumSquares - 1.0) > tol) {
            problems << "node " << ref << " violates normalization (sum=" << sumSquares
                     << "); ";
        }
    }
    return problems.str();
}

} // namespace mqsp
