#include "mqsp/mdd/matrix_dd.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <functional>
#include <utility>

namespace mqsp {

namespace {
constexpr std::uint32_t kTerminalSite = 0xffffffffU;

/// Per-thread staging of an edge list as the DDEdge key the shared table
/// hashes — thread-local so concurrent interners never share it.
thread_local std::vector<DDEdge> tlsKey;
} // namespace

// --- MatrixDdStore ---------------------------------------------------------

MatrixDdStore::MatrixDdStore(double tolerance, dd::UniqueTable::Concurrency concurrency)
    : table_(tolerance, /*initialCapacity=*/256, concurrency) {
    // Pool slot 0 is the unique terminal node.
    pool_.append(Node{kTerminalSite, {}});
}

const MatrixDdStore::Node& MatrixDdStore::node(NodeRef ref) const {
    requireThat(ref < pool_.size(), "MatrixDD: invalid node reference");
    return pool_.at(ref);
}

MatrixDdStore::NodeRef MatrixDdStore::intern(std::uint32_t site, std::vector<Edge> edges) {
    ensureThat(pool_.size() < MatrixDD::kNull, "MatrixDD: node pool exhausted");
    tlsKey.resize(edges.size());
    for (std::size_t k = 0; k < edges.size(); ++k) {
        tlsKey[k] = DDEdge{edges[k].node, edges[k].weight};
    }
    // Probe and append under the key's shard lock (see DdNodeStore::
    // allocate): `makeFresh` runs only on a genuine miss.
    const auto makeFresh = [&]() -> NodeRef {
        return pool_.append(Node{site, std::move(edges)});
    };
    return table_.findOrInsert(site, tlsKey, dd::detail::MakeNodeFnRef(makeFresh));
}

// --- MatrixDD --------------------------------------------------------------

MatrixDD::MatrixDD(std::shared_ptr<MatrixDdStore> store) : store_(std::move(store)) {
    if (!store_) {
        store_ = std::make_shared<MatrixDdStore>();
    }
}

const MatrixDD::Node& MatrixDD::node(NodeRef ref) const {
    return store_->node(ref);
}

MatrixDD::NodeRef MatrixDD::makeNode(std::uint32_t site, std::vector<Edge> edges,
                                     Complex& weightOut, double tol) {
    // Normalize by the largest-magnitude weight (QMDD scheme); all-zero
    // nodes collapse to the null edge.
    double best = 0.0;
    std::size_t bestIndex = edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].isZero()) {
            edges[i].weight = Complex{0.0, 0.0};
            continue;
        }
        const double magnitude = std::abs(edges[i].weight);
        if (magnitude <= tol) {
            edges[i] = Edge{};
            continue;
        }
        if (magnitude > best) {
            best = magnitude;
            bestIndex = i;
        }
    }
    if (bestIndex == edges.size()) {
        weightOut = Complex{0.0, 0.0};
        return kNull;
    }
    const Complex norm = edges[bestIndex].weight;
    for (auto& edge : edges) {
        if (!edge.isZero()) {
            edge.weight /= norm;
        }
    }
    weightOut = norm;
    return store_->intern(site, std::move(edges));
}

MatrixDD::Edge MatrixDD::buildIdentity(std::size_t site) {
    if (identitySuffix_.size() <= site) {
        identitySuffix_.resize(radix_.numQudits() + 1);
    }
    if (!identitySuffix_[site].isZero()) {
        return identitySuffix_[site];
    }
    if (site == radix_.numQudits()) {
        identitySuffix_[site] = Edge{0, Complex{1.0, 0.0}};
        return identitySuffix_[site];
    }
    const Dimension dim = radix_.dimensionAt(site);
    const Edge below = buildIdentity(site + 1);
    std::vector<Edge> edges(static_cast<std::size_t>(dim) * dim);
    for (Dimension r = 0; r < dim; ++r) {
        edges[static_cast<std::size_t>(r) * dim + r] = below;
    }
    Complex weight;
    const NodeRef ref = makeNode(static_cast<std::uint32_t>(site), std::move(edges),
                                 weight, Tolerance::kDefault);
    identitySuffix_[site] = Edge{ref, weight};
    return identitySuffix_[site];
}

MatrixDD::Edge MatrixDD::buildProjector(std::size_t site, const Operation& op, double tol) {
    if (site == radix_.numQudits()) {
        return Edge{0, Complex{1.0, 0.0}};
    }
    const Dimension dim = radix_.dimensionAt(site);
    const Control* control = nullptr;
    for (const auto& ctrl : op.controls) {
        if (ctrl.qudit == site) {
            control = &ctrl;
            break;
        }
    }
    const Edge below = buildProjector(site + 1, op, tol);
    std::vector<Edge> edges(static_cast<std::size_t>(dim) * dim);
    for (Dimension r = 0; r < dim; ++r) {
        if (control == nullptr || control->level == r) {
            edges[static_cast<std::size_t>(r) * dim + r] = below;
        }
    }
    Complex weight;
    const NodeRef ref =
        makeNode(static_cast<std::uint32_t>(site), std::move(edges), weight, tol);
    return Edge{ref, weight};
}

MatrixDD::Edge MatrixDD::buildOperation(std::size_t site, const Operation& op,
                                        const DenseMatrix& local, double tol) {
    if (site == radix_.numQudits()) {
        return Edge{0, Complex{1.0, 0.0}};
    }
    const Dimension dim = radix_.dimensionAt(site);
    std::vector<Edge> edges(static_cast<std::size_t>(dim) * dim);

    if (site == op.target) {
        // Below-target controls modulate the application:
        //   edge(r, c) = delta_rc * I_below + (U(r,c) - delta_rc) * P_below.
        // Without below controls P == I and this is U(r,c) * I_below.
        const Edge identityBelow = buildIdentity(site + 1);
        const Edge projectorBelow = buildProjector(site + 1, op, tol);
        for (Dimension r = 0; r < dim; ++r) {
            for (Dimension c = 0; c < dim; ++c) {
                const Complex u = local(r, c);
                const Complex delta = (r == c) ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
                Edge sum = addEdges(
                    Edge{identityBelow.node, identityBelow.weight * delta},
                    Edge{projectorBelow.node, projectorBelow.weight * (u - delta)}, tol);
                edges[static_cast<std::size_t>(r) * dim + c] = sum;
            }
        }
    } else {
        const Control* control = nullptr;
        for (const auto& ctrl : op.controls) {
            if (ctrl.qudit == site) {
                control = &ctrl;
                break;
            }
        }
        const Edge identityBelow = buildIdentity(site + 1);
        for (Dimension r = 0; r < dim; ++r) {
            if (control != nullptr && control->level != r) {
                edges[static_cast<std::size_t>(r) * dim + r] = identityBelow;
            } else {
                edges[static_cast<std::size_t>(r) * dim + r] =
                    buildOperation(site + 1, op, local, tol);
            }
        }
    }
    Complex weight;
    const NodeRef ref =
        makeNode(static_cast<std::uint32_t>(site), std::move(edges), weight, tol);
    return Edge{ref, weight};
}

MatrixDD::Edge MatrixDD::addEdges(Edge a, Edge b, double tol) {
    if (a.isZero() || std::abs(a.weight) <= tol) {
        return b;
    }
    if (b.isZero() || std::abs(b.weight) <= tol) {
        return a;
    }
    if (node(a.node).site == kTerminalSite) {
        ensureThat(node(b.node).site == kTerminalSite,
                   "MatrixDD::addEdges: level mismatch");
        const Complex sum = a.weight + b.weight;
        if (std::abs(sum) <= tol) {
            return Edge{};
        }
        return Edge{0, sum};
    }
    ensureThat(node(a.node).site == node(b.node).site,
               "MatrixDD::addEdges: site mismatch");
    // Node addresses are stable (chunked pool), so holding references
    // across the allocating recursion below would be safe; per-edge
    // re-fetches through the NodeRefs are kept for uniformity.
    const std::uint32_t site = node(a.node).site;
    const std::size_t arity = node(a.node).edges.size();
    std::vector<Edge> edges(arity);
    for (std::size_t k = 0; k < arity; ++k) {
        const Edge ea{node(a.node).edges[k].node, a.weight * node(a.node).edges[k].weight};
        const Edge eb{node(b.node).edges[k].node, b.weight * node(b.node).edges[k].weight};
        edges[k] = addEdges(ea, eb, tol);
    }
    Complex weight;
    const NodeRef ref = makeNode(site, std::move(edges), weight, tol);
    return Edge{ref, weight};
}

MatrixDD MatrixDD::identity(const Dimensions& dims, std::shared_ptr<MatrixDdStore> store) {
    MatrixDD dd(std::move(store));
    dd.radix_ = MixedRadix(dims);
    dd.root_ = dd.buildIdentity(0);
    return dd;
}

MatrixDD MatrixDD::fromOperation(const Dimensions& dims, const Operation& op, double tol,
                                 std::shared_ptr<MatrixDdStore> store) {
    if (!store) {
        store = std::make_shared<MatrixDdStore>(tol);
    }
    MatrixDD dd(std::move(store));
    dd.radix_ = MixedRadix(dims);
    requireThat(op.target < dd.radix_.numQudits(),
                "MatrixDD::fromOperation: target out of range");
    const DenseMatrix local = op.localMatrix(dd.radix_.dimensionAt(op.target));
    dd.root_ = dd.buildOperation(0, op, local, tol);
    return dd;
}

MatrixDD MatrixDD::fromCircuit(const Circuit& circuit, double tol,
                               std::shared_ptr<MatrixDdStore> store) {
    // One store for the whole compilation: per-gate operators and every
    // running product hash-cons into the same table, so the identity
    // scaffolding and repeated gate structure are built exactly once —
    // whether the store is this call's own or a session-lived one.
    if (!store) {
        store = std::make_shared<MatrixDdStore>(tol);
    }
    MatrixDD result = identity(circuit.dimensions(), store);
    for (const auto& op : circuit.operations()) {
        const MatrixDD gate = fromOperation(circuit.dimensions(), op, tol, store);
        result = gate.multiply(result, tol); // op applied after what came before
    }
    return result;
}

MatrixDD MatrixDD::multiply(const MatrixDD& rhs, double tol) const {
    requireThat(radix_ == rhs.radix_, "MatrixDD::multiply: registers differ");
    // The product lives on the operands' shared store when they have one
    // (cross-diagram sharing); operands on unrelated stores multiply onto a
    // fresh private store bucketing at this call's tolerance, as before.
    MatrixDD result(store_ == rhs.store_ ? store_ : std::make_shared<MatrixDdStore>(tol));
    result.radix_ = radix_;

    // product(aRef, bRef) of canonical (weight-1) nodes, memoized; weights
    // factor out linearly.
    std::unordered_map<std::uint64_t, Edge> memo;
    const std::function<Edge(NodeRef, NodeRef)> product = [&](NodeRef aRef,
                                                              NodeRef bRef) -> Edge {
        if (node(aRef).site == kTerminalSite) {
            ensureThat(rhs.node(bRef).site == kTerminalSite,
                       "MatrixDD::multiply: level mismatch");
            return Edge{0, Complex{1.0, 0.0}};
        }
        ensureThat(node(aRef).site == rhs.node(bRef).site,
                   "MatrixDD::multiply: site mismatch");
        const std::uint64_t key =
            (static_cast<std::uint64_t>(aRef) << 32U) | static_cast<std::uint64_t>(bRef);
        if (const auto it = memo.find(key); it != memo.end()) {
            return it->second;
        }
        // Copy both operands' shapes up front (cheap, and keeps the inner
        // loops independent of the allocating product/addEdges recursion).
        const std::uint32_t siteA = node(aRef).site;
        const std::vector<Edge> aEdges = node(aRef).edges;
        const std::vector<Edge> bEdges = rhs.node(bRef).edges;
        const Dimension dim = radix_.dimensionAt(siteA);
        std::vector<Edge> edges(static_cast<std::size_t>(dim) * dim);
        for (Dimension r = 0; r < dim; ++r) {
            for (Dimension c = 0; c < dim; ++c) {
                Edge acc;
                for (Dimension k = 0; k < dim; ++k) {
                    const Edge& ea = aEdges[static_cast<std::size_t>(r) * dim + k];
                    const Edge& eb = bEdges[static_cast<std::size_t>(k) * dim + c];
                    if (ea.isZero() || eb.isZero()) {
                        continue;
                    }
                    const Edge sub = product(ea.node, eb.node);
                    if (sub.isZero()) {
                        continue;
                    }
                    acc = result.addEdges(
                        acc, Edge{sub.node, sub.weight * ea.weight * eb.weight}, tol);
                }
                edges[static_cast<std::size_t>(r) * dim + c] = acc;
            }
        }
        Complex weight;
        const NodeRef ref = result.makeNode(siteA, std::move(edges), weight, tol);
        const Edge edge{ref, weight};
        memo.emplace(key, edge);
        return edge;
    };

    if (root_.isZero() || rhs.root_.isZero()) {
        result.root_ = Edge{};
        return result;
    }
    const Edge top = product(root_.node, rhs.root_.node);
    result.root_ = Edge{top.node, top.weight * root_.weight * rhs.root_.weight};
    return result;
}

MatrixDD::Edge MatrixDD::importFrom(const MatrixDD& source, NodeRef ref,
                                    std::unordered_map<NodeRef, Edge>& memo,
                                    bool conjugateTranspose, double tol) {
    if (source.node(ref).site == kTerminalSite) {
        return Edge{0, Complex{1.0, 0.0}};
    }
    if (const auto it = memo.find(ref); it != memo.end()) {
        return it->second;
    }
    // Copy the source shape up front (keeps the loop independent of the
    // allocating recursion below).
    const std::uint32_t site = source.node(ref).site;
    const std::vector<Edge> sourceEdges = source.node(ref).edges;
    const Dimension dim = radix_.dimensionAt(site);
    std::vector<Edge> edges(static_cast<std::size_t>(dim) * dim);
    for (Dimension r = 0; r < dim; ++r) {
        for (Dimension c = 0; c < dim; ++c) {
            const std::size_t from = conjugateTranspose
                                         ? static_cast<std::size_t>(c) * dim + r
                                         : static_cast<std::size_t>(r) * dim + c;
            const Edge& edge = sourceEdges[from];
            if (edge.isZero()) {
                continue;
            }
            const Edge sub = importFrom(source, edge.node, memo, conjugateTranspose, tol);
            const Complex w = conjugateTranspose ? std::conj(edge.weight) : edge.weight;
            edges[static_cast<std::size_t>(r) * dim + c] = Edge{sub.node, sub.weight * w};
        }
    }
    Complex weight;
    const NodeRef newRef = makeNode(site, std::move(edges), weight, tol);
    const Edge result{newRef, weight};
    memo.emplace(ref, result);
    return result;
}

MatrixDD MatrixDD::adjoint() const {
    MatrixDD result(store_);
    result.radix_ = radix_;
    if (root_.isZero()) {
        return result;
    }
    std::unordered_map<NodeRef, Edge> memo;
    const Edge top =
        result.importFrom(*this, root_.node, memo, /*conjugateTranspose=*/true,
                          Tolerance::kDefault);
    result.root_ = Edge{top.node, top.weight * std::conj(root_.weight)};
    return result;
}

Complex MatrixDD::hilbertSchmidtOverlap(const MatrixDD& other) const {
    requireThat(radix_ == other.radix_,
                "MatrixDD::hilbertSchmidtOverlap: registers differ");
    if (root_.isZero() || other.root_.isZero()) {
        return Complex{0.0, 0.0};
    }
    std::unordered_map<std::uint64_t, Complex> memo;
    const std::function<Complex(NodeRef, NodeRef)> visit = [&](NodeRef a,
                                                               NodeRef b) -> Complex {
        const Node& na = node(a);
        const Node& nb = other.node(b);
        if (na.site == kTerminalSite) {
            ensureThat(nb.site == kTerminalSite, "hilbertSchmidtOverlap: level mismatch");
            return Complex{1.0, 0.0};
        }
        ensureThat(na.site == nb.site, "hilbertSchmidtOverlap: site mismatch");
        const std::uint64_t key =
            (static_cast<std::uint64_t>(a) << 32U) | static_cast<std::uint64_t>(b);
        if (const auto it = memo.find(key); it != memo.end()) {
            return it->second;
        }
        Complex sum{0.0, 0.0};
        for (std::size_t k = 0; k < na.edges.size(); ++k) {
            const Edge& ea = na.edges[k];
            const Edge& eb = nb.edges[k];
            if (ea.isZero() || eb.isZero()) {
                continue;
            }
            sum += std::conj(ea.weight) * eb.weight * visit(ea.node, eb.node);
        }
        memo.emplace(key, sum);
        return sum;
    };
    return std::conj(root_.weight) * other.root_.weight * visit(root_.node, other.root_.node);
}

bool MatrixDD::equivalentUpToGlobalPhase(const MatrixDD& other, double tol) const {
    if (store_ == other.store_ && store_ != nullptr && !root_.isZero() &&
        root_.node == other.root_.node &&
        std::abs(std::abs(root_.weight) - std::abs(other.root_.weight)) <= tol) {
        // One shared hash-consed store: equal canonical roots mean the
        // operators differ at most by their root weights, so matching
        // magnitudes prove equivalence up to a global phase outright. A
        // magnitude mismatch is NOT a verdict — it falls through to the
        // overlap check below, whose tolerances scale with the register,
        // so shared-store and separate-store comparisons always agree.
        return true;
    }
    const double total = static_cast<double>(radix_.totalDimension());
    const double normA = hilbertSchmidtOverlap(*this).real();
    const double normB = other.hilbertSchmidtOverlap(other).real();
    const double overlap = std::abs(hilbertSchmidtOverlap(other));
    // Cauchy-Schwarz equality <=> proportional; equal norms pin the factor
    // to a pure phase.
    return std::abs(normA - normB) <= tol * total &&
           std::abs(overlap - std::sqrt(normA * normB)) <= tol * total;
}

Complex MatrixDD::entry(const Digits& row, const Digits& col) const {
    requireThat(row.size() == radix_.numQudits() && col.size() == radix_.numQudits(),
                "MatrixDD::entry: digit count mismatch");
    if (root_.isZero()) {
        return Complex{0.0, 0.0};
    }
    Complex product = root_.weight;
    NodeRef current = root_.node;
    for (std::size_t site = 0; site < row.size(); ++site) {
        const Node& n = node(current);
        ensureThat(n.site == site, "MatrixDD::entry: malformed levels");
        const Dimension dim = radix_.dimensionAt(site);
        requireThat(row[site] < dim && col[site] < dim, "MatrixDD::entry: digit range");
        const Edge& edge =
            n.edges[static_cast<std::size_t>(row[site]) * dim + col[site]];
        if (edge.isZero()) {
            return Complex{0.0, 0.0};
        }
        product *= edge.weight;
        current = edge.node;
    }
    return product;
}

DenseMatrix MatrixDD::toDenseMatrix() const {
    const std::uint64_t total = radix_.totalDimension();
    requireThat(total <= 512, "MatrixDD::toDenseMatrix: register too large");
    DenseMatrix m(static_cast<std::size_t>(total));
    for (std::uint64_t r = 0; r < total; ++r) {
        const Digits row = radix_.digitsOf(r);
        for (std::uint64_t c = 0; c < total; ++c) {
            m(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
                entry(row, radix_.digitsOf(c));
        }
    }
    return m;
}

std::uint64_t MatrixDD::nodeCount() const {
    if (root_.isZero()) {
        return 0;
    }
    std::vector<bool> seen(store_->size(), false);
    std::vector<NodeRef> stack{root_.node};
    seen[root_.node] = true;
    std::uint64_t count = 0;
    while (!stack.empty()) {
        const NodeRef ref = stack.back();
        stack.pop_back();
        const Node& n = node(ref);
        if (n.site == kTerminalSite) {
            continue;
        }
        ++count;
        for (const auto& edge : n.edges) {
            if (!edge.isZero() && !seen[edge.node]) {
                seen[edge.node] = true;
                stack.push_back(edge.node);
            }
        }
    }
    return count;
}

} // namespace mqsp
