#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
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

/// The per-gate visit memo (node -> its rebuilt edge at in-weight 1): a
/// flat open-addressed table reused from gate to gate. `reset` starts a
/// gate in O(1) by bumping the epoch that marks a slot as taken, so a gate
/// never pays for the slots an earlier, larger gate grew. A table past
/// kKeepSlots that the previous gate filled to under 1/16 is released
/// instead, so a thread does not hold one large gate's memo for the rest
/// of its life.
class VisitMemo {
public:
    void reset() {
        if (slots_.size() > kKeepSlots && count_ * 16 < slots_.size()) {
            slots_ = std::vector<Slot>();
            shift_ = 64;
        }
        if (++epoch_ == 0) { // wrapped: stale stamps would read as taken
            for (Slot& slot : slots_) {
                slot.epoch = 0;
            }
            epoch_ = 1;
        }
        count_ = 0;
    }

    [[nodiscard]] const WeightedEdge* find(NodeRef ref) const noexcept {
        if (slots_.empty()) {
            return nullptr;
        }
        for (std::size_t i = indexOf(ref);; i = (i + 1) & (slots_.size() - 1)) {
            const Slot& slot = slots_[i];
            if (slot.epoch != epoch_) {
                return nullptr;
            }
            if (slot.ref == ref) {
                return &slot.edge;
            }
        }
    }

    void insert(NodeRef ref, const WeightedEdge& edge) {
        if ((count_ + 1) * 2 > slots_.size()) {
            grow();
        }
        place(ref, edge);
        ++count_;
    }

private:
    struct Slot {
        NodeRef ref = kNoNode;
        std::uint32_t epoch = 0;
        WeightedEdge edge;
    };

    static constexpr std::size_t kMinSlots = 64;
    static constexpr std::size_t kKeepSlots = std::size_t{1} << 15U; // 1 MiB of slots

    /// Fibonacci hashing: the top bits of ref * 2^64/phi.
    [[nodiscard]] std::size_t indexOf(NodeRef ref) const noexcept {
        return static_cast<std::size_t>((ref * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    void place(NodeRef ref, const WeightedEdge& edge) {
        std::size_t i = indexOf(ref);
        while (slots_[i].epoch == epoch_) {
            i = (i + 1) & (slots_.size() - 1);
        }
        slots_[i] = Slot{ref, epoch_, edge};
    }

    void grow() {
        const std::vector<Slot> previous =
            std::exchange(slots_, std::vector<Slot>(std::max(kMinSlots, slots_.size() * 2)));
        shift_ = 64U - static_cast<unsigned>(std::countr_zero(slots_.size()));
        for (const Slot& slot : previous) {
            if (slot.epoch == epoch_) {
                place(slot.ref, slot.edge);
            }
        }
    }

    std::vector<Slot> slots_;
    std::uint32_t epoch_ = 0;
    unsigned shift_ = 64;
    std::size_t count_ = 0;
};

/// The calling thread's gate-kernel scratch, reused across gates and
/// diagrams so that a gate allocates only the nodes it keeps.
struct KernelScratch {
    /// Edges of every node under construction, innermost last: a visit or
    /// an addition pushes its node's edges, fills them (recursing), interns
    /// them straight from the stack and pops them.
    std::vector<DDEdge> edges;
    VisitMemo memo;
    /// The local matrix of the current Hadamard or Shift gate.
    DenseMatrix mixing;
};
thread_local KernelScratch tlsKernelScratch;

} // namespace

DecisionDiagram DecisionDiagram::zeroState(const Dimensions& dims,
                                           const dd::DdSession* session) {
    // Built natively as a weight-1 chain (structured.cpp), NOT via a dense
    // round trip: this is the starting point of DD simulation, which must
    // work on registers whose total dimension exceeds memory.
    return basisState(dims, Digits(MixedRadix(dims).numQudits(), 0), session);
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
    // were computed under. The store's compute cache holds addition results
    // keyed on the *canonical* call (x's weight factored out); entries
    // persist across gates and diagrams of the store.
    const double tol = store_->tolerance();
    dd::ComputeCache& cache = store_->computeCache();
    // The gate's action on the target level: a two-level gate is the
    // identity outside its stack 2x2 block; Hadamard and Shift mix every
    // level through their dim x dim matrix, written into the thread's
    // scratch matrix.
    KernelScratch& scratch = tlsKernelScratch;
    const Dimension dim = radix_.dimensionAt(op.target);
    const std::optional<TwoLevelBlock> block = twoLevelBlock(op);
    requireThat(!block || (op.levelA < dim && op.levelB < dim && op.levelA != op.levelB),
                "applyOperation: gate levels out of range");
    if (!block) {
        mixingMatrixInto(op, dim, scratch.mixing);
    }

    // The gate kernel: a copy-on-write rebuild of the paths the gate
    // reaches (`visit`) that mixes the target level's out-edges through
    // normalized DD addition (`add`). Every rebuilt node is interned from
    // the scratch edge stack. Node addresses are stable (chunked pool), so
    // node references are held across the allocating recursion. A local
    // class of this member function, so it may allocate on the diagram's
    // store.
    struct Kernel {
        DecisionDiagram& diagram;
        const Operation& op;
        const std::optional<TwoLevelBlock>& block;
        const DenseMatrix& dense;
        double tol;
        dd::ComputeCache& cache;
        std::vector<DDEdge>& stack;
        VisitMemo& memo;

        [[nodiscard]] DDEdge edgeOf(const WeightedEdge& edge) const {
            return edge.isZero(tol) ? DDEdge{} : DDEdge{edge.node, edge.weight};
        }

        /// Normalize the edges above `base` on the stack (zero stubs are
        /// absent children), intern them as one node and pop them
        /// (DecisionDiagram::normalizedNode). Returns the node with its norm
        /// as the (real) weight, or the zero edge when no child survived.
        WeightedEdge internTop(std::uint32_t site, std::size_t base) {
            const DDEdge node = diagram.normalizedNode(
                site, std::span<DDEdge>(stack.data() + base, stack.size() - base));
            stack.resize(base);
            return {node.node, node.weight};
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
            const DDNode& xNode = diagram.node(x.node);
            const DDNode& yNode = diagram.node(y.node);
            if (xNode.isTerminal()) {
                ensureThat(yNode.isTerminal(), "applyOperation: level mismatch in addition");
                const Complex sum = x.weight + y.weight;
                if (approxZero(sum, tol)) {
                    return {};
                }
                return {/*terminal=*/0, sum};
            }
            ensureThat(xNode.site == yNode.site, "applyOperation: site mismatch in addition");
            // No operand reordering: addition commutes mathematically, but
            // NodeRef order is allocation order — scheduling-dependent in a
            // concurrent session — and swapping changes the floating-point
            // evaluation order, which would break bit-identical results
            // across thread counts. The cache simply keys (x, y) as called.
            const Complex scale = x.weight;
            const Complex ratio = y.weight / scale;
            if (const auto hit = cache.lookup(dd::ComputeCache::Op::Add, x.node, y.node, ratio)) {
                if (hit->node == kNoNode) {
                    return {};
                }
                return {hit->node, scale * hit->value};
            }
            const std::size_t base = stack.size();
            stack.resize(base + xNode.edges.size());
            for (std::size_t k = 0; k < xNode.edges.size(); ++k) {
                const DDEdge& ex = xNode.edges[k];
                const DDEdge& ey = yNode.edges[k];
                const WeightedEdge sum = add({ex.node, ex.weight}, {ey.node, ratio * ey.weight});
                stack[base + k] = edgeOf(sum);
            }
            const WeightedEdge sum = internTop(xNode.site, base);
            cache.store(dd::ComputeCache::Op::Add, x.node, y.node, ratio,
                        dd::ComputeCache::Result{sum.node, sum.weight});
            if (sum.node == kNoNode) {
                return {};
            }
            return {sum.node, scale * sum.weight};
        }

        /// Row r of the mixed target level, sum_c M(r, c) * edge_c, added
        /// over the non-zero coefficients in ascending column order.
        WeightedEdge mixRow(std::span<const DDEdge> source, std::size_t r) {
            WeightedEdge acc;
            const auto term = [&](std::size_t c, const Complex& coefficient) {
                if (coefficient == Complex{0.0, 0.0} || source[c].isZeroStub()) {
                    return;
                }
                acc = add(acc, {source[c].node, coefficient * source[c].weight});
            };
            const Level a = op.levelA;
            const Level b = op.levelB;
            if (!block) {
                for (std::size_t c = 0; c < source.size(); ++c) {
                    term(c, dense(r, c));
                }
            } else if (r != a && r != b) {
                term(r, Complex{1.0, 0.0});
            } else {
                const Complex& fromA = r == a ? block->aa : block->ba;
                const Complex& fromB = r == a ? block->ab : block->bb;
                if (a < b) {
                    term(a, fromA);
                    term(b, fromB);
                } else {
                    term(b, fromB);
                    term(a, fromA);
                }
            }
            return acc;
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
            if (const WeightedEdge* base = memo.find(ref)) {
                if (base->node == kNoNode) {
                    return {};
                }
                return {base->node, weight * base->weight};
            }
            const DDNode& node = diagram.node(ref);
            ensureThat(!node.isTerminal(), "applyOperation: traversal reached the terminal");
            const std::size_t base = stack.size();
            if (node.site == op.target) {
                // Mix the out-edges by the local matrix.
                stack.resize(base + node.edges.size());
                for (std::size_t r = 0; r < node.edges.size(); ++r) {
                    const WeightedEdge row = mixRow(node.edges, r);
                    stack[base + r] = edgeOf(row);
                }
            } else {
                // Above the target: a control on this site restricts the
                // rebuild to the edge of its level.
                const Control* control = nullptr;
                for (const auto& ctrl : op.controls) {
                    if (ctrl.qudit == node.site) {
                        control = &ctrl;
                        break;
                    }
                }
                stack.insert(stack.end(), node.edges.begin(), node.edges.end());
                for (std::size_t k = 0; k < node.edges.size(); ++k) {
                    const DDEdge edge = stack[base + k];
                    if (!edge.isZeroStub() && (control == nullptr || control->level == k)) {
                        const WeightedEdge rebuilt = visit(edge.node, edge.weight);
                        stack[base + k] = edgeOf(rebuilt);
                    }
                }
            }
            const WeightedEdge rebuilt = internTop(node.site, base);
            memo.insert(ref, rebuilt);
            if (rebuilt.node == kNoNode) {
                return {};
            }
            return {rebuilt.node, weight * rebuilt.weight.real()};
        }
    };

    // A kernel holds at most one visit or addition frame per site, so the
    // stack never outgrows the register's summed dimensions.
    scratch.edges.clear();
    std::size_t deepest = 0;
    for (const Dimension d : radix_.dimensions()) {
        deepest += d;
    }
    scratch.edges.reserve(deepest);
    scratch.memo.reset();
    Kernel kernel{*this, op, block, scratch.mixing, tol, cache, scratch.edges, scratch.memo};
    const WeightedEdge newRoot = kernel.visit(root_, rootWeight_);
    if (newRoot.isZero(tol)) {
        cutRoot();
        return;
    }
    root_ = newRoot.node;
    rootWeight_ = newRoot.weight;
}

} // namespace mqsp
