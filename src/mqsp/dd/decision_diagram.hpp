#pragma once

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/complexnum/complex.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/statevec/state_vector.hpp"
#include "mqsp/support/mixed_radix.hpp"
#include "mqsp/support/rng.hpp"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace mqsp {

struct ApproximationOptions;
struct ApproximationReport;

/// How reachable structure should be counted; see `nodeCount`.
enum class NodeCountMode {
    /// Internal decision nodes reachable from the root (terminal excluded).
    Internal,
    /// The paper's "Nodes" metric for *exact* synthesis: the size of the
    /// unreduced splitting tree including one leaf per amplitude — a pure
    /// function of the register dimensions (Table 1 reports 58/1135/8657/...
    /// for every state on the same register).
    DenseTree,
    /// Root plus every child slot (leaf, structural zero stub, or inner
    /// node) of reachable internal nodes, excluding slots emptied by
    /// pruning; equals 1 + sum of dim(v) over reachable internal v. On a
    /// reduced (shared) diagram each node is counted once — the memory
    /// footprint of the DAG.
    Slots,
    /// The paper's "Nodes" metric for the *approximated* column: like
    /// Slots, but with tree semantics — a shared node is counted once per
    /// incoming path, so the value is invariant under reduction (the
    /// paper's counts show no sharing discount; see DESIGN.md).
    TreeSlots,
};

/// Edge-weighted decision diagram with a variable number of successors per
/// level (§4.1 of the paper) — the representation of a mixed-dimensional
/// quantum state.
///
/// Invariants maintained by construction and all transforms:
///  * every internal node's out-edge weights satisfy sum |w|^2 == 1
///    (within tolerance), unless the node is unreachable garbage;
///  * the amplitude of basis state (k_{n-1},...,k_0) is the product of the
///    root weight and the edge weights along the path root -> terminal;
///  * zero-amplitude sub-spaces are represented by zero stubs, never nodes.
///
/// `fromStateVector` splits a dense vector the way §4.2 describes ("the
/// decision diagram forms a weighted tree") but interns every node as it
/// splits, so it returns the reduced diagram (§4.3's reduction rule):
/// structurally identical sub-trees are one node.
///
/// Node storage: a diagram holds a shared pointer to its store — a
/// session's, or the fresh one the call that built it made — and every
/// store interns, so every diagram is canonical (reduced) by construction.
/// No node is written after the call that allocated it, so copies alias
/// the store (O(1)).
class DecisionDiagram {
public:
    DecisionDiagram() = default;

    /// Split a dense state vector into a diagram, interning each node as it
    /// is split: on `session`'s store when one is given (its tolerance then
    /// governs), else on a fresh store at `tol`. Amplitudes with
    /// |a| <= tolerance (componentwise) are treated as exact zeros.
    [[nodiscard]] static DecisionDiagram fromStateVector(const StateVector& state,
                                                         double tol = Tolerance::kDefault,
                                                         const dd::DdSession* session = nullptr);

    /// Decompose WITHOUT zero-pruning, on a fresh store at the default
    /// tolerance: every path of the dense splitting tree is kept, zero
    /// sub-vectors included (their edges carry weight 0 and their nodes are
    /// unnormalized); identical and all-zero sub-trees share one node, as
    /// on every store. Synthesis walks the diagram per path, so this yields
    /// the dense multiplexed-rotation baseline — the exhaustive
    /// uniformly-controlled cascade classical qubit state preparation uses —
    /// against which the DD-aware synthesis of the paper is compared (the
    /// abstract's "performance directly linked to the size of the decision
    /// diagram"). checkInvariants() flags the all-zero nodes by design.
    [[nodiscard]] static DecisionDiagram fromStateVectorDense(const StateVector& state);

    /// Register geometry.
    [[nodiscard]] const MixedRadix& radix() const noexcept { return radix_; }
    [[nodiscard]] const Dimensions& dimensions() const noexcept { return radix_.dimensions(); }
    [[nodiscard]] std::size_t numQudits() const noexcept { return radix_.numQudits(); }

    /// Root edge. A diagram for the zero vector has rootNode() == kNoNode.
    [[nodiscard]] NodeRef rootNode() const noexcept { return root_; }
    [[nodiscard]] const Complex& rootWeight() const noexcept { return rootWeight_; }

    /// Node-pool access (sentinels excluded; callers use NodeRef handles).
    /// On a session-backed diagram the pool is the *session's* pool, so
    /// poolSize() counts every node the session has interned, not just the
    /// ones reachable from this diagram's root.
    [[nodiscard]] const DDNode& node(NodeRef ref) const;
    [[nodiscard]] std::size_t poolSize() const noexcept {
        return store_ ? store_->size() : 0;
    }

    /// True when both diagrams allocate from the same store — the
    /// precondition for NodeRef-identity shortcuts across diagrams.
    [[nodiscard]] bool sharesStoreWith(const DecisionDiagram& other) const noexcept {
        return store_ != nullptr && store_ == other.store_;
    }

    /// --- evaluation (evaluate.cpp) -------------------------------------

    /// Amplitude of one basis state: product of weights along the path.
    [[nodiscard]] Complex amplitudeOf(const Digits& digits) const;

    /// Reconstruct the dense state vector.
    [[nodiscard]] StateVector toStateVector() const;

    /// |<target|this>|^2 against a dense target.
    [[nodiscard]] double fidelityWith(const StateVector& target) const;

    /// <this|other> computed natively on the diagrams (no dense expansion),
    /// by the recursive pairwise traversal of DD packages (cf. the paper's
    /// reference [12] on mixed-dimensional DD simulation). Registers must
    /// match. Memoized per node pair: linear in the product of diagram
    /// sizes, independent of the Hilbert dimension.
    [[nodiscard]] Complex innerProductWith(const DecisionDiagram& other) const;

    /// Sum of squared amplitude magnitudes (1 for a normalized diagram),
    /// computed natively on the diagram (memoized per node, no dense
    /// expansion) — safe on registers far past the dense ceiling.
    [[nodiscard]] double normSquared() const;

    /// Visit every nonzero amplitude in flat mixed-radix (lexicographic
    /// digit) order without materializing the dense vector. The visitor
    /// receives the digit string and the amplitude; returning false stops
    /// the traversal early. Cost is linear in the number of nonzero
    /// amplitudes visited, independent of the Hilbert dimension.
    void forEachNonZero(
        const std::function<bool(const Digits&, const Complex&)>& visitor) const;

    /// --- metrics (metrics.cpp) -----------------------------------------

    /// Count nodes under the chosen convention (see NodeCountMode).
    [[nodiscard]] std::uint64_t nodeCount(NodeCountMode mode) const;

    /// Internal nodes reachable from the root, each once, in the store's
    /// depth-first order (dd::DdNodeStore::reachable).
    [[nodiscard]] std::vector<NodeRef> reachableNodes() const;

    /// The DenseTree count as a standalone function of dimensions.
    [[nodiscard]] static std::uint64_t denseTreeNodeCount(const Dimensions& dims);

    /// Number of distinct complex values among the root weight and all edge
    /// weights of reachable internal nodes (zero stubs contribute 0) — the
    /// paper's "DistinctC".
    [[nodiscard]] std::size_t distinctComplexCount(double tol = Tolerance::kDefault) const;

    /// Per-node fidelity contribution (§4.3): the probability mass of all
    /// basis states whose path crosses the node. Indexed by NodeRef; entries
    /// for unreachable pool slots are 0. On a DAG, mass is accumulated over
    /// every incoming path.
    [[nodiscard]] std::vector<double> nodeContributions() const;

    /// True when all nonzero out-edges of `ref` point to one shared child —
    /// the tensor-product pattern of §4.3 (only found on a reduced diagram).
    [[nodiscard]] bool isTensorProductNode(NodeRef ref) const;

    /// Structural invariant check (normalization, edge counts, acyclicity by
    /// level). Returns an empty string when healthy, else a description.
    [[nodiscard]] std::string checkInvariants(double tol = 1e-8) const;

    /// --- transforms (transform.cpp) ------------------------------------

    /// Zero out the root edge, making this the empty diagram.
    void cutRoot();

    /// --- gate application (apply.cpp) -------------------------------------

    /// Apply a (possibly controlled) operation to the represented state
    /// natively on the diagram (the DD-simulation substrate of the paper's
    /// reference [12]): edges at the target level are linearly combined via
    /// recursive normalized DD addition, and control conditions restrict the
    /// affected paths. Controls must sit on sites more significant than the
    /// target (always true for synthesized preparation circuits); an
    /// InvalidArgumentError is thrown otherwise. The diagram stays
    /// normalized (|rootWeight| is preserved up to rounding), and pruned at
    /// the store's tolerance. Every rebuilt node is interned on the
    /// diagram's own store, so the replay stays canonical. Replay circuits
    /// on a session store (DdBackend, or zeroState(dims, &session) plus this
    /// call) to share its caches.
    void applyOperation(const Operation& op);

    /// The |0...0> diagram on a register, on `session`'s store when one is
    /// given (like every builder below).
    [[nodiscard]] static DecisionDiagram zeroState(const Dimensions& dims,
                                                   const dd::DdSession* session = nullptr);

    /// --- structured-state construction (structured.cpp) -------------------
    ///
    /// DD-native builders for the paper's structured benchmark families (§5):
    /// the diagrams are assembled node-by-node in O(numQudits^2) time and
    /// space, without ever materializing the dense amplitude vector — the
    /// entry point for registers past the dense O(∏dims) ceiling. Each
    /// builder computes its weights in the splitter's order, from the dense
    /// amplitude `states::` uses, so on a session it returns bit for bit
    /// the diagram `fromStateVector` returns on the family's dense vector,
    /// and synthesis from either source emits the identical circuit.
    ///
    /// Every builder takes an optional session: with one the diagram is
    /// built on the session's shared store, and a repeated build is all
    /// table hits; without one it gets a fresh store at the default
    /// tolerance, so it equals its build on a fresh session. Either way it
    /// comes out hash-consed into the reduced (DAG) form.

    /// Mixed-dimensional GHZ state 1/sqrt(m) sum_k |k...k>, m = min(dims).
    [[nodiscard]] static DecisionDiagram ghzState(const Dimensions& dims,
                                                  const dd::DdSession* session = nullptr);

    /// Mixed-dimensional W state: equal superposition of every basis state
    /// with exactly one qudit in some nonzero level, all others |0>.
    [[nodiscard]] static DecisionDiagram wState(const Dimensions& dims,
                                                const dd::DdSession* session = nullptr);

    /// Embedded W state: the qubit W state in the qudit register — exactly
    /// one qudit in level |1>, all others |0>.
    [[nodiscard]] static DecisionDiagram embeddedWState(const Dimensions& dims,
                                                        const dd::DdSession* session = nullptr);

    /// A single basis state |digits> as a weight-1 chain.
    [[nodiscard]] static DecisionDiagram basisState(const Dimensions& dims, const Digits& digits,
                                                    const dd::DdSession* session = nullptr);

    /// The uniform superposition, returned *reduced* (one shared chain of
    /// numQudits nodes — the tree form would be the full dense tree, which
    /// is exactly what these builders exist to avoid). Synthesis handles the
    /// sharing via the §4.3 tensor-product control elision.
    [[nodiscard]] static DecisionDiagram uniformState(const Dimensions& dims,
                                                      const dd::DdSession* session = nullptr);

    /// Cyclic state (cf. states::cyclic): equal superposition of the
    /// distinct cyclic shifts of `start`, shift k adding k to every digit
    /// modulo its own dimension. Returned *reduced*: shifts that agree on a
    /// digit prefix share the node deciding it (memoized on the surviving
    /// shift set), so the diagram is O(#shifts * numQudits) worst case and
    /// usually far smaller.
    [[nodiscard]] static DecisionDiagram cyclicState(const Dimensions& dims,
                                                     const Digits& start, std::uint32_t count,
                                                     const dd::DdSession* session = nullptr);

    /// Generalized Dicke state (cf. states::dicke): equal superposition of
    /// every basis state whose digits sum to `weight`. Returned *reduced*,
    /// as the standard (site, remaining-weight) DAG of O(numQudits * weight)
    /// nodes — the tree form would hold one leaf per term, which is
    /// combinatorial. Throws when no basis state has the requested weight.
    [[nodiscard]] static DecisionDiagram dickeState(const Dimensions& dims,
                                                    std::uint64_t weight,
                                                    const dd::DdSession* session = nullptr);

    /// --- sampling (sample.cpp) ------------------------------------------

    /// Draw one measurement outcome in the computational basis directly from
    /// the diagram, without expanding the dense vector: descend from the
    /// root, at each node choosing edge k with probability |w_k|^2 (the
    /// out-edges are normalized, so the local weights are exactly the
    /// conditional distribution). O(depth) per sample.
    /// Requires a normalized diagram (|rootWeight| == 1 within 1e-6).
    [[nodiscard]] Digits sampleOutcome(Rng& rng) const;

    /// Draw `count` outcomes and return per-basis-state counts, keyed by
    /// flat mixed-radix index (only observed outcomes appear).
    [[nodiscard]] std::unordered_map<std::uint64_t, std::uint64_t>
    sampleHistogram(Rng& rng, std::uint64_t count) const;

    /// --- serialization (serialize.cpp) -----------------------------------

    /// Line-oriented text serialization of the diagram (register, root edge,
    /// one line per node): the canonical reachable copy, rebuilt on a fresh
    /// store at the diagram's tolerance, written in that store's pool order
    /// (children before parents). A tolerance other than
    /// Tolerance::kDefault is written as a `tolerance` line after the
    /// register, so the text round-trips through `deserialize` exactly at
    /// any tolerance it accepts (1e-15 and up): a parsed diagram serializes
    /// to the same bytes. The stream's flags and precision are restored
    /// afterwards.
    void serialize(std::ostream& out) const;

    /// Parse the format emitted by serialize() onto a fresh store at the
    /// tolerance the text names (its optional `tolerance` line, which must
    /// be finite and at least 1e-15, where the uniquing table's weight
    /// buckets still tell normalized weights apart; Tolerance::kDefault
    /// without one), interning
    /// each node line as it is read; an edge must name an earlier line.
    /// Throws InvalidArgumentError on malformed input, before allocating
    /// for any size the input declares; the result passes checkInvariants()
    /// whenever the serialized diagram did.
    [[nodiscard]] static DecisionDiagram deserialize(std::istream& in);

    /// --- export (dot.cpp) ----------------------------------------------

    /// Graphviz rendering for debugging and documentation.
    [[nodiscard]] std::string toDot() const;

private:
    friend class dd::DdSession;
    /// Builds its result on a fresh store (approx/approximation.cpp).
    friend ApproximationReport approximate(DecisionDiagram& dd,
                                           const ApproximationOptions& options);

    /// Empty diagram on `store`; the hook every builder and rebuiltOn
    /// funnel through.
    DecisionDiagram(std::shared_ptr<dd::DdNodeStore> store, const Dimensions& dims);

    /// The splitter's normalization, shared by fromStateVector, every
    /// structured builder and the gate kernel: sum |w|^2 over the non-stub
    /// `edges` in index order, divide each by the square root of the sum
    /// (in place; skipped when the sum is 0), and allocate them as a node at
    /// `site`. Returns the edge a parent stores — the node, with its norm as
    /// the (real) weight — or a zero stub when every edge is one.
    DDEdge normalizedNode(std::uint32_t site, std::span<DDEdge> edges);

    /// `state` split into a diagram on `store`, zeros pruned at `tol` unless
    /// `keepZeros`, by the recursive `split` (construct.cpp).
    [[nodiscard]] static DecisionDiagram splitOnto(std::shared_ptr<dd::DdNodeStore> store,
                                                   const StateVector& state, double tol,
                                                   bool keepZeros);
    DDEdge split(std::size_t site, const Complex* amps, std::uint64_t count, double tol,
                 bool keepZeros, std::vector<DDEdge>& staged);

    /// This diagram's reachable nodes rebuilt on `store`: children first, in
    /// edge order, each source node once. The one way a diagram moves onto
    /// a store — DdSession::intern and serialize call it.
    [[nodiscard]] DecisionDiagram rebuiltOn(std::shared_ptr<dd::DdNodeStore> store) const;

    /// The W and embedded-W builder (structured.cpp): excitation levels
    /// 1..d-1 per qudit, or level 1 only when `embedded`.
    [[nodiscard]] static DecisionDiagram wFamilyState(const Dimensions& dims, bool embedded,
                                                      const dd::DdSession* session);

    MixedRadix radix_;
    std::shared_ptr<dd::DdNodeStore> store_;
    NodeRef root_ = kNoNode;
    Complex rootWeight_{0.0, 0.0};
};

namespace dd {

/// Structural diff of two same-store diagrams, counted over the *reachable
/// node sets* of their roots (terminal excluded). Because session-backed
/// diagrams are hash-consed, NodeRef identity IS structural identity: a
/// node reachable from both roots is a subtree the two states share
/// verbatim, so `shared` measures exactly what an incremental re-verify
/// can reuse, `added` what the delta built, and `removed` what it
/// abandoned.
struct DiagramDiffStats {
    std::uint64_t nodesA = 0;   ///< nodes reachable from a's root
    std::uint64_t nodesB = 0;   ///< nodes reachable from b's root
    std::uint64_t shared = 0;   ///< reachable from both
    std::uint64_t added = 0;    ///< reachable from b only
    std::uint64_t removed = 0;  ///< reachable from a only
};

/// Diff two diagrams on the SAME store (throws InvalidArgumentError
/// otherwise — cross-store refs are not comparable). O(nodesA + nodesB)
/// time and space; empty diagrams diff as all-zero against themselves.
[[nodiscard]] DiagramDiffStats diffDiagrams(const DecisionDiagram& a, const DecisionDiagram& b);

} // namespace dd

} // namespace mqsp
