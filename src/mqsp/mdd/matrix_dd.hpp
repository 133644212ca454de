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

/// Edge-weighted matrix decision diagram for operators on mixed-dimensional
/// registers — the operator-side companion of DecisionDiagram, in the
/// tradition of QMDDs (the paper's references [28], [31]) generalized to a
/// variable number of successors per level.
///
/// Nodes are the state diagrams' `DDNode`s: a node at site s has dim(s)^2
/// out-edges in row-major order (kNoNode for a zero edge), and the operator
/// it represents is M = sum_{r,c} w_{rc} |r><c| (x) M_{rc}. Nodes are
/// normalized by their largest-magnitude weight (pushed into the in-edge)
/// and allocated on an interning dd::DdNodeStore, so structurally equal
/// operators share sub-graphs and the zero operator is a null edge. With
/// one shared store (pass it to the factories, as DdBackend does for its
/// whole lifetime) the sharing crosses diagram boundaries: per-gate
/// operators, their products, and both sides of an equivalence check build
/// each sub-operator once. The store is safe for concurrent compiles (its
/// table is sharded, its pool address-stable). Keep operators off a
/// DdSession's store: its GC knows only state roots and would collect them.
///
/// Supported workflow:
///   MatrixDD::fromCircuit(c)                 — compile a circuit
///   a.multiply(b)                            — compose operators
///   a.adjoint()                              — dagger
///   hilbertSchmidtOverlap / equivalence      — DD-native circuit checking
///   toDenseMatrix / entry                    — small-register inspection
class MatrixDD {
public:
    /// The identity operator on a register.
    [[nodiscard]] static MatrixDD identity(const Dimensions& dims,
                                           std::shared_ptr<dd::DdNodeStore> store = nullptr);

    /// One (possibly multi-controlled) operation as an operator. Controls
    /// may sit anywhere (above or below the target).
    [[nodiscard]] static MatrixDD fromOperation(const Dimensions& dims, const Operation& op,
                                                double tol = Tolerance::kDefault,
                                                std::shared_ptr<dd::DdNodeStore> store = nullptr);

    /// The whole circuit as an operator (ops composed in application order).
    /// Every intermediate (per-gate operators and running products) lives
    /// on one interning store — the given one, or a fresh one of this
    /// call's own.
    [[nodiscard]] static MatrixDD fromCircuit(const Circuit& circuit,
                                              double tol = Tolerance::kDefault,
                                              std::shared_ptr<dd::DdNodeStore> store = nullptr);

    /// Operator composition: (*this) after `rhs` — i.e. the matrix product
    /// this * rhs. Registers must match. The product lives on the shared
    /// store when the operands share one, else on a fresh store.
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
    [[nodiscard]] const DDEdge& root() const noexcept { return root_; }
    [[nodiscard]] const std::shared_ptr<dd::DdNodeStore>& store() const noexcept { return store_; }

private:
    /// A diagram on `store` (nullptr -> a fresh interning store at `tol`).
    explicit MatrixDD(std::shared_ptr<dd::DdNodeStore> store, double tol = Tolerance::kDefault);

    [[nodiscard]] const DDNode& node(NodeRef ref) const;
    NodeRef makeNode(std::uint32_t site, std::vector<DDEdge> edges, Complex& weightOut,
                     double tol);

    DDEdge buildIdentity(std::size_t site);
    DDEdge buildOperation(std::size_t site, const Operation& op, const DenseMatrix& local,
                          double tol);
    DDEdge buildProjector(std::size_t site, const Operation& op, double tol);
    DDEdge addEdges(DDEdge a, DDEdge b, double tol);
    DDEdge importFrom(const MatrixDD& source, NodeRef ref,
                      std::unordered_map<NodeRef, DDEdge>& memo, bool conjugateTranspose,
                      double tol);

    MixedRadix radix_;
    std::shared_ptr<dd::DdNodeStore> store_;
    DDEdge root_;
    // Memo cache for identity suffixes (one per site; refs into store_).
    std::vector<DDEdge> identitySuffix_;
};

} // namespace mqsp
