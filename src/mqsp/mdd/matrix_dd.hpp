#pragma once

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/circuit/matrix.hpp"
#include "mqsp/complexnum/complex.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/support/mixed_radix.hpp"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace mqsp {

/// Node pool + uniquing table for matrix decision diagrams — the
/// operator-side counterpart of dd::DdNodeStore. A store can back one
/// MatrixDD (the historical per-diagram pool) or be shared across every
/// operator a session touches (DdBackend's equivalence path): nodes are
/// append-only and immutable, all allocation goes through the same
/// open-addressed dd::UniqueTable as the vector-DD session store, and
/// copying a MatrixDD aliases the store in O(1). A store constructed
/// `Sharded` is safe for concurrent interning from batch items: the probe
/// and the pool append run under the key's shard mutex, and the chunked
/// pool keeps node addresses stable so readers never lock.
class MatrixDdStore {
public:
    using NodeRef = std::uint32_t;

    struct Edge {
        NodeRef node = 0xffffffffU;
        Complex weight{0.0, 0.0};
        [[nodiscard]] bool isZero() const noexcept { return node == 0xffffffffU; }
    };

    struct Node {
        std::uint32_t site = 0;
        std::vector<Edge> edges; // dim(site)^2, row-major
    };

    explicit MatrixDdStore(
        double tolerance = Tolerance::kDefault,
        dd::UniqueTable::Concurrency concurrency = dd::UniqueTable::Concurrency::Serial);

    MatrixDdStore(const MatrixDdStore&) = delete;
    MatrixDdStore& operator=(const MatrixDdStore&) = delete;

    [[nodiscard]] const Node& node(NodeRef ref) const;
    [[nodiscard]] std::size_t size() const noexcept { return pool_.size(); }
    [[nodiscard]] double tolerance() const noexcept { return table_.tolerance(); }

    /// Hash-consed allocation: the canonical ref of an existing structural
    /// twin, or a freshly appended node. On a Sharded store, exactly one
    /// node is created per distinct structural key however many threads
    /// race on it.
    NodeRef intern(std::uint32_t site, std::vector<Edge> edges);

    [[nodiscard]] dd::UniqueTableStats uniqueStats() const { return table_.stats(); }

private:
    dd::detail::ChunkedNodePool<Node> pool_;
    dd::UniqueTable table_;
};

/// Edge-weighted matrix decision diagram for operators on mixed-dimensional
/// registers — the operator-side companion of DecisionDiagram, in the
/// tradition of QMDDs (the paper's references [28], [31]) generalized to a
/// variable number of successors per level.
///
/// A node at site s has dim(s)^2 out-edges in row-major order; the operator
/// it represents is M = sum_{r,c} w_{rc} |r><c| (x) M_{rc}. Nodes are
/// normalized by their largest-magnitude weight (pushed into the in-edge)
/// and hash-consed through the store's uniquing table, so structurally
/// equal operators share sub-graphs and the zero operator is a null edge.
/// With one shared store (pass it to the factories, as DdBackend does for
/// its whole lifetime) the sharing crosses diagram boundaries: per-gate
/// operators, their products, and both sides of an equivalence check build
/// each sub-operator once.
///
/// Supported workflow:
///   MatrixDD::fromCircuit(c)                 — compile a circuit
///   a.multiply(b)                            — compose operators
///   a.adjoint()                              — dagger
///   hilbertSchmidtOverlap / equivalence      — DD-native circuit checking
///   toDenseMatrix / entry                    — small-register inspection
class MatrixDD {
public:
    using NodeRef = MatrixDdStore::NodeRef;
    static constexpr NodeRef kNull = 0xffffffffU;
    using Edge = MatrixDdStore::Edge;

    /// The identity operator on a register.
    [[nodiscard]] static MatrixDD identity(const Dimensions& dims,
                                           std::shared_ptr<MatrixDdStore> store = nullptr);

    /// One (possibly multi-controlled) operation as an operator. Controls
    /// may sit anywhere (above or below the target).
    [[nodiscard]] static MatrixDD fromOperation(const Dimensions& dims, const Operation& op,
                                                double tol = Tolerance::kDefault,
                                                std::shared_ptr<MatrixDdStore> store = nullptr);

    /// The whole circuit as an operator (ops composed in application order).
    /// Every intermediate (per-gate operators and running products) lives
    /// on one store — the given one, or a fresh private one.
    [[nodiscard]] static MatrixDD fromCircuit(const Circuit& circuit,
                                              double tol = Tolerance::kDefault,
                                              std::shared_ptr<MatrixDdStore> store = nullptr);

    /// Operator composition: (*this) after `rhs` — i.e. the matrix product
    /// this * rhs. Registers must match. The product lives on the shared
    /// store when the operands share one, else on a fresh private store.
    [[nodiscard]] MatrixDD multiply(const MatrixDD& rhs, double tol = Tolerance::kDefault) const;

    /// Conjugate transpose.
    [[nodiscard]] MatrixDD adjoint() const;

    /// Tr(this^dagger * other) — the Hilbert-Schmidt inner product, computed
    /// natively on the diagrams.
    [[nodiscard]] Complex hilbertSchmidtOverlap(const MatrixDD& other) const;

    /// True when the operators are equal up to a global phase within tol:
    /// |Tr(a^dagger b)| == sqrt(Tr(a^dagger a) Tr(b^dagger b)) and both
    /// norms match the full register dimension for unitaries. Two diagrams
    /// sharing a store that landed on the same canonical root node
    /// short-circuit to a weight comparison.
    [[nodiscard]] bool equivalentUpToGlobalPhase(const MatrixDD& other,
                                                 double tol = 1e-9) const;

    /// Matrix element <row| M |col>.
    [[nodiscard]] Complex entry(const Digits& row, const Digits& col) const;

    /// Dense export (register total dimension <= 512).
    [[nodiscard]] DenseMatrix toDenseMatrix() const;

    /// Distinct reachable internal nodes.
    [[nodiscard]] std::uint64_t nodeCount() const;

    [[nodiscard]] const MixedRadix& radix() const noexcept { return radix_; }
    [[nodiscard]] const Edge& root() const noexcept { return root_; }
    [[nodiscard]] const std::shared_ptr<MatrixDdStore>& store() const noexcept {
        return store_;
    }

private:
    using Node = MatrixDdStore::Node;

    MatrixDD() = default;
    explicit MatrixDD(std::shared_ptr<MatrixDdStore> store);

    [[nodiscard]] const Node& node(NodeRef ref) const;
    NodeRef makeNode(std::uint32_t site, std::vector<Edge> edges, Complex& weightOut,
                     double tol);

    Edge buildIdentity(std::size_t site);
    Edge buildOperation(std::size_t site, const Operation& op, const DenseMatrix& local,
                        double tol);
    Edge buildProjector(std::size_t site, const Operation& op, double tol);
    Edge addEdges(Edge a, Edge b, double tol);
    Edge importFrom(const MatrixDD& source, NodeRef ref,
                    std::unordered_map<NodeRef, Edge>& memo, bool conjugateTranspose,
                    double tol);

    MixedRadix radix_;
    std::shared_ptr<MatrixDdStore> store_;
    Edge root_;
    // Memo cache for identity suffixes (one per site; refs into store_).
    std::vector<Edge> identitySuffix_;
};

} // namespace mqsp
