#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

namespace mqsp {

DecisionDiagram::DecisionDiagram(std::shared_ptr<dd::DdNodeStore> store,
                                 const Dimensions& dims)
    : radix_(dims), store_(std::move(store)) {
    if (!store_) {
        store_ = std::make_shared<dd::DdNodeStore>(dd::DdNodeStore::Mode::Private);
    }
}

DecisionDiagram::DecisionDiagram(const DecisionDiagram& other)
    : radix_(other.radix_), root_(other.root_), rootWeight_(other.rootWeight_) {
    if (!other.store_) {
        return;
    }
    if (other.store_->interning()) {
        // Session-backed diagrams are immutable in place; copies alias the
        // shared store (O(1)) instead of deep-copying the session pool.
        store_ = other.store_;
    } else {
        store_ = std::make_shared<dd::DdNodeStore>(*other.store_);
    }
}

DecisionDiagram& DecisionDiagram::operator=(const DecisionDiagram& other) {
    if (this != &other) {
        DecisionDiagram copy(other);
        *this = std::move(copy);
    }
    return *this;
}

void DecisionDiagram::ensureStore(double tol) {
    if (!store_) {
        store_ = std::make_shared<dd::DdNodeStore>(dd::DdNodeStore::Mode::Private, tol);
    }
}

NodeRef DecisionDiagram::allocate(std::uint32_t site, std::span<const DDEdge> edges) {
    return store_->allocate(site, edges);
}

const DDNode& DecisionDiagram::node(NodeRef ref) const {
    requireThat(store_ != nullptr, "DecisionDiagram::node: empty diagram");
    return store_->node(ref);
}

std::span<DDEdge> DecisionDiagram::mutableEdges(NodeRef ref) {
    requireThat(store_ != nullptr, "DecisionDiagram::node: empty diagram");
    return store_->mutableEdges(ref);
}

namespace {

/// The memoized depth-first copy behind DecisionDiagram::rebuiltOn. Each
/// node's edges are staged on one reused stack and allocated from there, so
/// a node the target store already interned costs no allocation.
struct Rebuild {
    const DecisionDiagram& source;
    dd::DdNodeStore& target;
    std::vector<NodeRef> memo;  ///< source ref -> rebuilt ref; kNoNode = not yet
    std::vector<DDEdge> staged; ///< edges of the nodes in progress, innermost last

    NodeRef visit(NodeRef ref) {
        if (memo[ref] != kNoNode) {
            return memo[ref];
        }
        const DDNode& node = source.node(ref);
        const std::size_t base = staged.size();
        staged.insert(staged.end(), node.edges.begin(), node.edges.end());
        for (std::size_t k = 0; k < node.edges.size(); ++k) {
            if (!node.edges[k].isZeroStub()) {
                // Visit before indexing: the recursion may grow `staged`.
                const NodeRef child = visit(node.edges[k].node);
                staged[base + k].node = child;
            }
        }
        memo[ref] = target.allocate(node.site, std::span<const DDEdge>(staged).subspan(base));
        staged.resize(base);
        return memo[ref];
    }
};

} // namespace

DecisionDiagram DecisionDiagram::rebuiltOn(std::shared_ptr<dd::DdNodeStore> store) const {
    DecisionDiagram result(std::move(store), radix_.dimensions());
    if (root_ == kNoNode) {
        return result;
    }
    Rebuild rebuild{*this, *result.store_, std::vector<NodeRef>(poolSize(), kNoNode), {}};
    rebuild.memo[0] = 0; // the terminal is slot 0 of every store
    // At most one node per site is in progress, so the staging never
    // outgrows the register's summed dimensions.
    const Dimensions& dims = radix_.dimensions();
    rebuild.staged.reserve(std::accumulate(dims.begin(), dims.end(), std::size_t{0}));
    result.root_ = rebuild.visit(root_);
    result.rootWeight_ = rootWeight_;
    return result;
}

/// Recursive splitter for `fromStateVector`: builds the node for the
/// `count`-long amplitude block at `site` and returns the edge (node +
/// weight) the parent should store. The weight is the block's norm except at
/// the terminal, where it is the amplitude itself; normalization pushes all
/// phases into the lowest-level edges and keeps every upper weight real
/// non-negative — the paper's fixed canonical scheme ("each weight is
/// divided by the norm ... the norm is then multiplied to all weights on
/// in-edges", §4.2).
DDEdge DecisionDiagram::buildTree(std::size_t site, const Complex* amps, std::uint64_t count,
                                  double tol) {
    if (site == radix_.numQudits()) {
        ensureThat(count == 1, "DecisionDiagram::buildTree: leaf block must hold one value");
        if (approxZero(amps[0], tol)) {
            return DDEdge{};
        }
        return DDEdge{/*terminal=*/0, amps[0]};
    }
    const Dimension dim = radix_.dimensionAt(site);
    const std::uint64_t part = count / dim;
    ensureThat(part * dim == count, "DecisionDiagram::buildTree: block not divisible");

    std::vector<DDEdge> edges(dim);
    double sumSquares = 0.0;
    bool any = false;
    for (Dimension k = 0; k < dim; ++k) {
        edges[k] = buildTree(site + 1, amps + static_cast<std::uint64_t>(k) * part, part, tol);
        if (!edges[k].isZeroStub()) {
            any = true;
            sumSquares += squaredMagnitude(edges[k].weight);
        }
    }
    if (!any) {
        return DDEdge{};
    }
    const double norm = std::sqrt(sumSquares);
    for (auto& edge : edges) {
        if (!edge.isZeroStub()) {
            edge.weight /= norm;
        }
    }
    const NodeRef ref = allocate(static_cast<std::uint32_t>(site), edges);
    return DDEdge{ref, Complex{norm, 0.0}};
}

DecisionDiagram DecisionDiagram::fromStateVector(const StateVector& state, double tol) {
    DecisionDiagram dd;
    dd.radix_ = state.radix();
    dd.ensureStore(tol); // private store; slot 0 is the unique terminal
    const DDEdge rootEdge =
        dd.buildTree(0, state.amplitudes().data(), state.size(), tol);
    dd.root_ = rootEdge.node;
    dd.rootWeight_ = rootEdge.weight;
    return dd;
}

/// Dense-tree splitter for `fromStateVectorDense`: like buildTree but
/// zero sub-vectors still become nodes (with zero in-edge weight), so the
/// result is the full multiplexor tree of classical state preparation.
DDEdge DecisionDiagram::buildDenseTree(std::size_t site, const Complex* amps,
                                       std::uint64_t count) {
    if (site == radix_.numQudits()) {
        ensureThat(count == 1, "DecisionDiagram::buildDenseTree: bad leaf block");
        return DDEdge{/*terminal=*/0, amps[0]};
    }
    const Dimension dim = radix_.dimensionAt(site);
    const std::uint64_t part = count / dim;
    std::vector<DDEdge> edges(dim);
    double sumSquares = 0.0;
    for (Dimension k = 0; k < dim; ++k) {
        edges[k] = buildDenseTree(site + 1, amps + static_cast<std::uint64_t>(k) * part,
                                  part);
        sumSquares += squaredMagnitude(edges[k].weight);
    }
    const double norm = std::sqrt(sumSquares);
    if (norm > 0.0) {
        for (auto& edge : edges) {
            edge.weight /= norm;
        }
    }
    const NodeRef ref = allocate(static_cast<std::uint32_t>(site), edges);
    return DDEdge{ref, Complex{norm, 0.0}};
}

DecisionDiagram DecisionDiagram::fromStateVectorDense(const StateVector& state) {
    DecisionDiagram dd;
    dd.radix_ = state.radix();
    dd.ensureStore();
    const DDEdge rootEdge = dd.buildDenseTree(0, state.amplitudes().data(), state.size());
    dd.root_ = rootEdge.node;
    dd.rootWeight_ = rootEdge.weight;
    return dd;
}

} // namespace mqsp
