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

const DDNode& DecisionDiagram::node(NodeRef ref) const {
    requireThat(store_ != nullptr, "DecisionDiagram::node: empty diagram");
    return store_->node(ref);
}

DDEdge DecisionDiagram::normalizedNode(std::uint32_t site, std::span<DDEdge> edges) {
    double sumSquares = 0.0;
    bool any = false;
    for (const DDEdge& edge : edges) {
        if (!edge.isZeroStub()) {
            sumSquares += squaredMagnitude(edge.weight);
            any = true;
        }
    }
    if (!any) {
        return DDEdge{};
    }
    const double norm = std::sqrt(sumSquares);
    if (norm > 0.0) {
        for (DDEdge& edge : edges) {
            if (!edge.isZeroStub()) {
                edge.weight /= norm;
            }
        }
    }
    return DDEdge{store_->allocate(site, edges), Complex{norm, 0.0}};
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

/// The recursive splitter behind fromStateVector and fromStateVectorDense:
/// builds the node for the `count`-long amplitude block at `site` and
/// returns the edge (node + weight) its parent stores. The weight is the
/// block's norm except at the terminal, where it is the amplitude itself;
/// normalization pushes all phases into the lowest-level edges and keeps
/// every upper weight real non-negative — the paper's fixed canonical scheme
/// ("each weight is divided by the norm ... the norm is then multiplied to
/// all weights on in-edges", §4.2). Each node's edges are staged on
/// `staged`, one stack reused down the recursion, as in Rebuild.
///
/// `keepZeros` is the dense baseline: a zero amplitude stays a weight-0
/// edge instead of a zero stub, so every node of the splitting tree is
/// materialized, zero sub-vectors included.
DDEdge DecisionDiagram::split(std::size_t site, const Complex* amps, std::uint64_t count,
                              double tol, bool keepZeros, std::vector<DDEdge>& staged) {
    if (site == radix_.numQudits()) {
        ensureThat(count == 1, "DecisionDiagram::split: leaf block must hold one value");
        if (!keepZeros && approxZero(amps[0], tol)) {
            return DDEdge{};
        }
        return DDEdge{/*terminal=*/0, amps[0]};
    }
    const Dimension dim = radix_.dimensionAt(site);
    const std::uint64_t part = count / dim;
    ensureThat(part * dim == count, "DecisionDiagram::split: block not divisible");
    const std::size_t base = staged.size();
    staged.resize(base + dim);
    for (Dimension k = 0; k < dim; ++k) {
        // Split before indexing: the recursion may grow `staged`.
        const DDEdge edge = split(site + 1, amps + static_cast<std::uint64_t>(k) * part, part,
                                  tol, keepZeros, staged);
        staged[base + k] = edge;
    }
    const DDEdge edge =
        normalizedNode(static_cast<std::uint32_t>(site), std::span<DDEdge>(staged).subspan(base));
    staged.resize(base);
    return edge;
}

DecisionDiagram DecisionDiagram::splitOnto(std::shared_ptr<dd::DdNodeStore> store,
                                           const StateVector& state, double tol,
                                           bool keepZeros) {
    DecisionDiagram dd(std::move(store), state.radix().dimensions());
    // At most one node per site is in progress, so the staging never
    // outgrows the register's summed dimensions.
    const Dimensions& dims = dd.radix_.dimensions();
    std::vector<DDEdge> staged;
    staged.reserve(std::accumulate(dims.begin(), dims.end(), std::size_t{0}));
    const DDEdge rootEdge =
        dd.split(0, state.amplitudes().data(), state.size(), tol, keepZeros, staged);
    dd.root_ = rootEdge.node;
    dd.rootWeight_ = rootEdge.weight;
    return dd;
}

DecisionDiagram DecisionDiagram::fromStateVector(const StateVector& state, double tol,
                                                 const dd::DdSession* session) {
    if (session != nullptr) {
        return splitOnto(session->store(), state, session->tolerance(), /*keepZeros=*/false);
    }
    return splitOnto(std::make_shared<dd::DdNodeStore>(dd::DdNodeStore::Mode::Interning, tol),
                     state, tol, /*keepZeros=*/false);
}

DecisionDiagram DecisionDiagram::fromStateVectorDense(const StateVector& state) {
    // A private store: interning would merge the zero sub-trees the
    // baseline exists to keep.
    return splitOnto(nullptr, state, Tolerance::kDefault, /*keepZeros=*/true);
}

} // namespace mqsp
