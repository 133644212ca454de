#include "mqsp/mdd/matrix_dd.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <functional>
#include <span>
#include <utility>

namespace mqsp {

MatrixDD::MatrixDD(std::shared_ptr<dd::DdNodeStore> store, double tol)
    : store_(std::move(store)) {
    if (!store_) {
        store_ = std::make_shared<dd::DdNodeStore>(tol);
    }
}

const DDNode& MatrixDD::node(NodeRef ref) const {
    return store_->node(ref);
}

NodeRef MatrixDD::makeNode(std::uint32_t site, std::vector<DDEdge> edges, Complex& weightOut,
                           double tol) {
    // Normalize by the largest-magnitude weight (QMDD scheme); all-zero
    // nodes collapse to the null edge.
    double best = 0.0;
    std::size_t bestIndex = edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].isZeroStub()) {
            edges[i].weight = Complex{0.0, 0.0};
            continue;
        }
        const double magnitude = std::abs(edges[i].weight);
        if (magnitude <= tol) {
            edges[i] = DDEdge{};
            continue;
        }
        if (magnitude > best) {
            best = magnitude;
            bestIndex = i;
        }
    }
    if (bestIndex == edges.size()) {
        weightOut = Complex{0.0, 0.0};
        return kNoNode;
    }
    const Complex norm = edges[bestIndex].weight;
    for (auto& edge : edges) {
        if (!edge.isZeroStub()) {
            edge.weight /= norm;
        }
    }
    weightOut = norm;
    return store_->allocate(site, edges);
}

DDEdge MatrixDD::buildIdentity(std::size_t site) {
    if (identitySuffix_.size() <= site) {
        identitySuffix_.resize(radix_.numQudits() + 1);
    }
    if (!identitySuffix_[site].isZeroStub()) {
        return identitySuffix_[site];
    }
    if (site == radix_.numQudits()) {
        identitySuffix_[site] = DDEdge{0, Complex{1.0, 0.0}};
        return identitySuffix_[site];
    }
    const Dimension dim = radix_.dimensionAt(site);
    const DDEdge below = buildIdentity(site + 1);
    std::vector<DDEdge> edges(static_cast<std::size_t>(dim) * dim);
    for (Dimension r = 0; r < dim; ++r) {
        edges[static_cast<std::size_t>(r) * dim + r] = below;
    }
    Complex weight;
    const NodeRef ref = makeNode(static_cast<std::uint32_t>(site), std::move(edges),
                                 weight, Tolerance::kDefault);
    identitySuffix_[site] = DDEdge{ref, weight};
    return identitySuffix_[site];
}

DDEdge MatrixDD::buildProjector(std::size_t site, const Operation& op, double tol) {
    if (site == radix_.numQudits()) {
        return DDEdge{0, Complex{1.0, 0.0}};
    }
    const Dimension dim = radix_.dimensionAt(site);
    const Control* control = nullptr;
    for (const auto& ctrl : op.controls) {
        if (ctrl.qudit == site) {
            control = &ctrl;
            break;
        }
    }
    const DDEdge below = buildProjector(site + 1, op, tol);
    std::vector<DDEdge> edges(static_cast<std::size_t>(dim) * dim);
    for (Dimension r = 0; r < dim; ++r) {
        if (control == nullptr || control->level == r) {
            edges[static_cast<std::size_t>(r) * dim + r] = below;
        }
    }
    Complex weight;
    const NodeRef ref =
        makeNode(static_cast<std::uint32_t>(site), std::move(edges), weight, tol);
    return DDEdge{ref, weight};
}

DDEdge MatrixDD::buildOperation(std::size_t site, const Operation& op,
                                        const DenseMatrix& local, double tol) {
    if (site == radix_.numQudits()) {
        return DDEdge{0, Complex{1.0, 0.0}};
    }
    const Dimension dim = radix_.dimensionAt(site);
    std::vector<DDEdge> edges(static_cast<std::size_t>(dim) * dim);

    if (site == op.target) {
        // Below-target controls modulate the application:
        //   edge(r, c) = delta_rc * I_below + (U(r,c) - delta_rc) * P_below.
        // Without below controls P == I and this is U(r,c) * I_below.
        const DDEdge identityBelow = buildIdentity(site + 1);
        const DDEdge projectorBelow = buildProjector(site + 1, op, tol);
        for (Dimension r = 0; r < dim; ++r) {
            for (Dimension c = 0; c < dim; ++c) {
                const Complex u = local(r, c);
                const Complex delta = (r == c) ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
                DDEdge sum = addEdges(
                    DDEdge{identityBelow.node, identityBelow.weight * delta},
                    DDEdge{projectorBelow.node, projectorBelow.weight * (u - delta)}, tol);
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
        const DDEdge identityBelow = buildIdentity(site + 1);
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
    return DDEdge{ref, weight};
}

DDEdge MatrixDD::addEdges(DDEdge a, DDEdge b, double tol) {
    if (a.isZeroStub() || std::abs(a.weight) <= tol) {
        return b;
    }
    if (b.isZeroStub() || std::abs(b.weight) <= tol) {
        return a;
    }
    if (node(a.node).isTerminal()) {
        ensureThat(node(b.node).isTerminal(), "MatrixDD::addEdges: level mismatch");
        const Complex sum = a.weight + b.weight;
        if (std::abs(sum) <= tol) {
            return DDEdge{};
        }
        return DDEdge{0, sum};
    }
    ensureThat(node(a.node).site == node(b.node).site, "MatrixDD::addEdges: site mismatch");
    // Node addresses are stable (chunked pool), so holding references
    // across the allocating recursion below would be safe; per-edge
    // re-fetches through the NodeRefs are kept for uniformity.
    const std::uint32_t site = node(a.node).site;
    const std::size_t arity = node(a.node).edges.size();
    std::vector<DDEdge> edges(arity);
    for (std::size_t k = 0; k < arity; ++k) {
        const DDEdge ea{node(a.node).edges[k].node, a.weight * node(a.node).edges[k].weight};
        const DDEdge eb{node(b.node).edges[k].node, b.weight * node(b.node).edges[k].weight};
        edges[k] = addEdges(ea, eb, tol);
    }
    Complex weight;
    const NodeRef ref = makeNode(site, std::move(edges), weight, tol);
    return DDEdge{ref, weight};
}

MatrixDD MatrixDD::identity(const Dimensions& dims, std::shared_ptr<dd::DdNodeStore> store) {
    MatrixDD dd(std::move(store));
    dd.radix_ = MixedRadix(dims);
    dd.root_ = dd.buildIdentity(0);
    return dd;
}

MatrixDD MatrixDD::fromOperation(const Dimensions& dims, const Operation& op, double tol,
                                 std::shared_ptr<dd::DdNodeStore> store) {
    MatrixDD dd(std::move(store), tol);
    dd.radix_ = MixedRadix(dims);
    requireThat(op.target < dd.radix_.numQudits(),
                "MatrixDD::fromOperation: target out of range");
    const DenseMatrix local = op.localMatrix(dd.radix_.dimensionAt(op.target));
    dd.root_ = dd.buildOperation(0, op, local, tol);
    return dd;
}

MatrixDD MatrixDD::fromCircuit(const Circuit& circuit, double tol,
                               std::shared_ptr<dd::DdNodeStore> store) {
    // One store for the whole compilation: per-gate operators and every
    // running product hash-cons into the same table, so the identity
    // scaffolding and repeated gate structure are built exactly once —
    // whether the store is this call's own or a session-lived one.
    if (!store) {
        store = std::make_shared<dd::DdNodeStore>(tol);
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
    // fresh store bucketing at this call's tolerance.
    MatrixDD result(store_ == rhs.store_ ? store_ : nullptr, tol);
    result.radix_ = radix_;

    // product(aRef, bRef) of canonical (weight-1) nodes, memoized; weights
    // factor out linearly.
    std::unordered_map<std::uint64_t, DDEdge> memo;
    const std::function<DDEdge(NodeRef, NodeRef)> product = [&](NodeRef aRef,
                                                                NodeRef bRef) -> DDEdge {
        if (node(aRef).isTerminal()) {
            ensureThat(rhs.node(bRef).isTerminal(),
                       "MatrixDD::multiply: level mismatch");
            return DDEdge{0, Complex{1.0, 0.0}};
        }
        ensureThat(node(aRef).site == rhs.node(bRef).site,
                   "MatrixDD::multiply: site mismatch");
        const std::uint64_t key =
            (static_cast<std::uint64_t>(aRef) << 32U) | static_cast<std::uint64_t>(bRef);
        if (const auto it = memo.find(key); it != memo.end()) {
            return it->second;
        }
        // Both operands' edges stay put in their store's edge blocks
        // while the product/addEdges recursion allocates.
        const std::uint32_t siteA = node(aRef).site;
        const std::span<const DDEdge> aEdges = node(aRef).edges;
        const std::span<const DDEdge> bEdges = rhs.node(bRef).edges;
        const Dimension dim = radix_.dimensionAt(siteA);
        std::vector<DDEdge> edges(static_cast<std::size_t>(dim) * dim);
        for (Dimension r = 0; r < dim; ++r) {
            for (Dimension c = 0; c < dim; ++c) {
                DDEdge acc;
                for (Dimension k = 0; k < dim; ++k) {
                    const DDEdge& ea = aEdges[static_cast<std::size_t>(r) * dim + k];
                    const DDEdge& eb = bEdges[static_cast<std::size_t>(k) * dim + c];
                    if (ea.isZeroStub() || eb.isZeroStub()) {
                        continue;
                    }
                    const DDEdge sub = product(ea.node, eb.node);
                    if (sub.isZeroStub()) {
                        continue;
                    }
                    acc = result.addEdges(
                        acc, DDEdge{sub.node, sub.weight * ea.weight * eb.weight}, tol);
                }
                edges[static_cast<std::size_t>(r) * dim + c] = acc;
            }
        }
        Complex weight;
        const NodeRef ref = result.makeNode(siteA, std::move(edges), weight, tol);
        const DDEdge edge{ref, weight};
        memo.emplace(key, edge);
        return edge;
    };

    if (root_.isZeroStub() || rhs.root_.isZeroStub()) {
        result.root_ = DDEdge{};
        return result;
    }
    const DDEdge top = product(root_.node, rhs.root_.node);
    result.root_ = DDEdge{top.node, top.weight * root_.weight * rhs.root_.weight};
    return result;
}

DDEdge MatrixDD::importFrom(const MatrixDD& source, NodeRef ref,
                            std::unordered_map<NodeRef, DDEdge>& memo, bool conjugateTranspose,
                            double tol) {
    if (source.node(ref).isTerminal()) {
        return DDEdge{0, Complex{1.0, 0.0}};
    }
    if (const auto it = memo.find(ref); it != memo.end()) {
        return it->second;
    }
    // The source edges stay put in their store's edge blocks while the
    // recursion below allocates.
    const std::uint32_t site = source.node(ref).site;
    const std::span<const DDEdge> sourceEdges = source.node(ref).edges;
    const Dimension dim = radix_.dimensionAt(site);
    std::vector<DDEdge> edges(static_cast<std::size_t>(dim) * dim);
    for (Dimension r = 0; r < dim; ++r) {
        for (Dimension c = 0; c < dim; ++c) {
            const std::size_t from = conjugateTranspose
                                         ? static_cast<std::size_t>(c) * dim + r
                                         : static_cast<std::size_t>(r) * dim + c;
            const DDEdge& edge = sourceEdges[from];
            if (edge.isZeroStub()) {
                continue;
            }
            const DDEdge sub = importFrom(source, edge.node, memo, conjugateTranspose, tol);
            const Complex w = conjugateTranspose ? std::conj(edge.weight) : edge.weight;
            edges[static_cast<std::size_t>(r) * dim + c] = DDEdge{sub.node, sub.weight * w};
        }
    }
    Complex weight;
    const NodeRef newRef = makeNode(site, std::move(edges), weight, tol);
    const DDEdge result{newRef, weight};
    memo.emplace(ref, result);
    return result;
}

MatrixDD MatrixDD::adjoint() const {
    MatrixDD result(store_);
    result.radix_ = radix_;
    if (root_.isZeroStub()) {
        return result;
    }
    std::unordered_map<NodeRef, DDEdge> memo;
    const DDEdge top =
        result.importFrom(*this, root_.node, memo, /*conjugateTranspose=*/true,
                          Tolerance::kDefault);
    result.root_ = DDEdge{top.node, top.weight * std::conj(root_.weight)};
    return result;
}

Complex MatrixDD::hilbertSchmidtOverlap(const MatrixDD& other) const {
    requireThat(radix_ == other.radix_,
                "MatrixDD::hilbertSchmidtOverlap: registers differ");
    if (root_.isZeroStub() || other.root_.isZeroStub()) {
        return Complex{0.0, 0.0};
    }
    std::unordered_map<std::uint64_t, Complex> memo;
    const std::function<Complex(NodeRef, NodeRef)> visit = [&](NodeRef a,
                                                               NodeRef b) -> Complex {
        const DDNode& na = node(a);
        const DDNode& nb = other.node(b);
        if (na.isTerminal()) {
            ensureThat(nb.isTerminal(), "hilbertSchmidtOverlap: level mismatch");
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
            const DDEdge& ea = na.edges[k];
            const DDEdge& eb = nb.edges[k];
            if (ea.isZeroStub() || eb.isZeroStub()) {
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
    if (store_ == other.store_ && store_ != nullptr && !root_.isZeroStub() &&
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
    if (root_.isZeroStub()) {
        return Complex{0.0, 0.0};
    }
    Complex product = root_.weight;
    NodeRef current = root_.node;
    for (std::size_t site = 0; site < row.size(); ++site) {
        const DDNode& n = node(current);
        ensureThat(n.site == site, "MatrixDD::entry: malformed levels");
        const Dimension dim = radix_.dimensionAt(site);
        requireThat(row[site] < dim && col[site] < dim, "MatrixDD::entry: digit range");
        const DDEdge& edge =
            n.edges[static_cast<std::size_t>(row[site]) * dim + col[site]];
        if (edge.isZeroStub()) {
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
    return store_->reachable(std::span<const NodeRef>(&root_.node, 1)).size();
}

} // namespace mqsp
