#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <functional>
#include <unordered_map>

namespace mqsp {

Complex DecisionDiagram::amplitudeOf(const Digits& digits) const {
    requireThat(digits.size() == radix_.numQudits(),
                "DecisionDiagram::amplitudeOf: digit count mismatch");
    if (root_ == kNoNode) {
        return Complex{0.0, 0.0};
    }
    Complex product = rootWeight_;
    NodeRef current = root_;
    for (std::size_t site = 0; site < digits.size(); ++site) {
        const DDNode& n = node(current);
        ensureThat(!n.isTerminal() && n.site == site,
                   "DecisionDiagram::amplitudeOf: malformed level structure");
        requireThat(digits[site] < n.edges.size(),
                    "DecisionDiagram::amplitudeOf: digit exceeds node arity");
        const DDEdge& edge = n.edges[digits[site]];
        if (edge.isZeroStub()) {
            return Complex{0.0, 0.0};
        }
        product *= edge.weight;
        current = edge.node;
    }
    ensureThat(node(current).isTerminal(),
               "DecisionDiagram::amplitudeOf: path did not end at the terminal");
    return product;
}

namespace {

void fillAmplitudes(const DecisionDiagram& dd, NodeRef ref, Complex prefix, std::uint64_t base,
                    const MixedRadix& radix, std::vector<Complex>& out) {
    const DDNode& n = dd.node(ref);
    if (n.isTerminal()) {
        out[base] = prefix;
        return;
    }
    const auto stride = radix.strideAt(n.site);
    for (std::size_t k = 0; k < n.edges.size(); ++k) {
        const DDEdge& edge = n.edges[k];
        if (edge.isZeroStub()) {
            continue;
        }
        fillAmplitudes(dd, edge.node, prefix * edge.weight, base + k * stride, radix, out);
    }
}

} // namespace

StateVector DecisionDiagram::toStateVector() const {
    std::vector<Complex> amps(radix_.totalDimension(), Complex{0.0, 0.0});
    if (root_ != kNoNode) {
        fillAmplitudes(*this, root_, rootWeight_, 0, radix_, amps);
    }
    return StateVector{radix_.dimensions(), std::move(amps)};
}

double DecisionDiagram::fidelityWith(const StateVector& target) const {
    return target.fidelityWith(toStateVector());
}

Complex DecisionDiagram::innerProductWith(const DecisionDiagram& other) const {
    requireThat(radix_ == other.radix_,
                "DecisionDiagram::innerProductWith: registers differ");
    if (root_ == kNoNode || other.root_ == kNoNode) {
        return Complex{0.0, 0.0};
    }
    // <a|b> over node pairs, memoized: the contribution of a pair of
    // sub-trees is independent of the path that reached them. When both
    // diagrams live on one session store, ref equality is structural
    // equality of *canonical* (norm-1) sub-trees, so <x|x> collapses to 1
    // without descending — session verification of an exactly-reproduced
    // target is O(depth), not O(diagram^2) — and the remaining pairs go
    // through the session's operation cache, which persists across calls
    // (repeated verifications of the same states hit instead of re-walking).
    dd::ComputeCache* cache = sharesStoreWith(other) ? &store_->computeCache() : nullptr;
    const bool sharedCanonical = cache != nullptr;
    std::unordered_map<std::uint64_t, Complex> memo;
    const std::function<Complex(NodeRef, NodeRef)> visit = [&](NodeRef a,
                                                               NodeRef b) -> Complex {
        const DDNode& na = node(a);
        const DDNode& nb = other.node(b);
        if (na.isTerminal()) {
            ensureThat(nb.isTerminal(), "innerProductWith: level mismatch");
            return Complex{1.0, 0.0};
        }
        if (sharedCanonical && a == b) {
            return Complex{1.0, 0.0};
        }
        ensureThat(na.site == nb.site, "innerProductWith: site mismatch");
        const std::uint64_t key =
            (static_cast<std::uint64_t>(a) << 32U) | static_cast<std::uint64_t>(b);
        if (const auto it = memo.find(key); it != memo.end()) {
            return it->second;
        }
        if (cache != nullptr) {
            if (const auto hit =
                    cache->lookup(dd::ComputeCache::Op::InnerProduct, a, b, Complex{})) {
                memo.emplace(key, hit->value);
                return hit->value;
            }
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
        if (cache != nullptr) {
            cache->store(dd::ComputeCache::Op::InnerProduct, a, b, Complex{},
                         dd::ComputeCache::Result{kNoNode, sum});
        }
        return sum;
    };
    return std::conj(rootWeight_) * other.rootWeight_ * visit(root_, other.root_);
}

double DecisionDiagram::normSquared() const {
    if (root_ == kNoNode) {
        return 0.0;
    }
    // Sum of |amplitude|^2 over all paths, memoized per node (shared
    // sub-trees contribute once per incoming weight) — no dense expansion,
    // so this stays cheap on registers past the dense ceiling.
    std::unordered_map<NodeRef, double> memo;
    const std::function<double(NodeRef)> visit = [&](NodeRef ref) -> double {
        const DDNode& n = node(ref);
        if (n.isTerminal()) {
            return 1.0;
        }
        if (const auto it = memo.find(ref); it != memo.end()) {
            return it->second;
        }
        double sum = 0.0;
        for (const DDEdge& edge : n.edges) {
            if (!edge.isZeroStub()) {
                sum += squaredMagnitude(edge.weight) * visit(edge.node);
            }
        }
        memo.emplace(ref, sum);
        return sum;
    };
    return squaredMagnitude(rootWeight_) * visit(root_);
}

void DecisionDiagram::forEachNonZero(
    const std::function<bool(const Digits&, const Complex&)>& visitor) const {
    if (root_ == kNoNode) {
        return;
    }
    Digits digits(radix_.numQudits(), 0);
    // DFS over nonzero edges in digit order == flat mixed-radix index order,
    // the order a dense enumeration would visit. Returns false to stop.
    const std::function<bool(NodeRef, Complex)> visit = [&](NodeRef ref,
                                                            Complex prefix) -> bool {
        const DDNode& n = node(ref);
        if (n.isTerminal()) {
            return visitor(digits, prefix);
        }
        for (std::size_t k = 0; k < n.edges.size(); ++k) {
            const DDEdge& edge = n.edges[k];
            if (edge.isZeroStub()) {
                continue;
            }
            digits[n.site] = static_cast<Level>(k);
            if (!visit(edge.node, prefix * edge.weight)) {
                return false;
            }
        }
        digits[n.site] = 0;
        return true;
    };
    (void)visit(root_, rootWeight_);
}

} // namespace mqsp
