#pragma once

#include "mqsp/circuit/matrix.hpp"
#include "mqsp/support/mixed_radix.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace mqsp {

/// A control condition: the operation fires only on the subspace where
/// qudit `qudit` is in level `level`. This matches the paper's circuit
/// notation where the control level is written inside the control circle
/// (Figure 1).
struct Control {
    std::size_t qudit = 0;
    Level level = 0;

    friend bool operator==(const Control&, const Control&) = default;
    friend auto operator<=>(const Control&, const Control&) = default;
};

/// The gate alphabet of the synthesizer and simulator.
enum class GateKind {
    /// Two-level Givens rotation R_{i,j}(theta, phi) — the paper's Eq. in
    /// §4.2: exp(-i theta/2 (cos(phi) sigma_x^{ij} + sin(phi) sigma_y^{ij})).
    GivensRotation,
    /// Two-level phase rotation Z_{i,j}(theta) = diag(..., e^{+i theta/2} at
    /// level i, ..., e^{-i theta/2} at level j, ...). The sign convention
    /// makes the paper's §4.2 identity hold verbatim:
    /// Z(t) = R(-pi/2,0) R(t,pi/2) R(pi/2,0).
    PhaseRotation,
    /// Generalized d-level Hadamard (discrete Fourier transform), as in the
    /// paper's Example 2.
    Hadamard,
    /// Cyclic level shift X^{+k}: |m> -> |(m+k) mod d>, the "+1"/"+2"
    /// increments of Figure 1.
    Shift,
    /// Exact two-level transposition |i> <-> |j> (no phases, unlike the
    /// Givens rotation at theta = pi). Self-inverse; used by the hardware
    /// router's SWAP synthesis and by level-relabeling passes.
    LevelSwap,
};

/// One (possibly multi-controlled) operation on a mixed-dimensional register.
///
/// `levelA`/`levelB` select the two-dimensional subspace for GivensRotation
/// and PhaseRotation; `shiftAmount` is used by Shift; Hadamard uses neither.
struct Operation {
    GateKind kind = GateKind::GivensRotation;
    std::size_t target = 0;
    Level levelA = 0;
    Level levelB = 1;
    double theta = 0.0;
    double phi = 0.0;
    Level shiftAmount = 0;
    std::vector<Control> controls;

    /// Factory helpers ---------------------------------------------------

    [[nodiscard]] static Operation givens(std::size_t target, Level levelA, Level levelB,
                                          double theta, double phi,
                                          std::vector<Control> controls = {});

    [[nodiscard]] static Operation phase(std::size_t target, Level levelA, Level levelB,
                                         double theta, std::vector<Control> controls = {});

    [[nodiscard]] static Operation hadamard(std::size_t target,
                                            std::vector<Control> controls = {});

    [[nodiscard]] static Operation shift(std::size_t target, Level amount,
                                         std::vector<Control> controls = {});

    [[nodiscard]] static Operation levelSwap(std::size_t target, Level levelA, Level levelB,
                                             std::vector<Control> controls = {});

    /// Number of controls attached to this operation.
    [[nodiscard]] std::size_t numControls() const noexcept { return controls.size(); }

    /// The dense single-qudit matrix of this operation on a qudit of
    /// dimension `dim` (controls excluded). Throws if the levels are out of
    /// range for `dim`.
    [[nodiscard]] DenseMatrix localMatrix(Dimension dim) const;

    /// True when the local matrix is the identity within `tol` — used by the
    /// identity-elision synthesis mode.
    [[nodiscard]] bool isIdentity(double tol = 1e-12) const;

    /// Inverse operation (same kind where possible).
    [[nodiscard]] Operation inverse() const;

    /// Human-readable rendering, e.g. "R(1,2| th=1.9106, ph=-1.5708) @ q1 ctrl[q2=1]".
    [[nodiscard]] std::string toString() const;
};

/// The 2x2 block of a two-level gate (GivensRotation, PhaseRotation,
/// LevelSwap) in the (levelA, levelB) basis: `aa` maps levelA to levelA,
/// `ab` levelB to levelA, and so on. The gate is the identity on every other
/// level, so the simulator and the DD gate kernel read a two-level gate
/// from this stack block instead of a dim x dim matrix; the embedded
/// matrices below are built from the same block.
struct TwoLevelBlock {
    Complex aa;
    Complex ab;
    Complex ba;
    Complex bb;
};

/// The block of a two-level operation; nullopt for Hadamard and Shift,
/// which mix every level.
[[nodiscard]] std::optional<TwoLevelBlock> twoLevelBlock(const Operation& op);

/// The local matrix of a Hadamard or Shift operation (the gates that mix
/// every level) on a level of dimension `dim`, written into `out` with its
/// storage reused; hadamardMatrix and shiftMatrix are built the same way.
/// Throws for a two-level operation.
void mixingMatrixInto(const Operation& op, Dimension dim, DenseMatrix& out);

/// The generalized Hadamard (DFT) matrix of dimension d:
/// H[r][c] = omega^{r c} / sqrt(d), omega = exp(2 pi i / d).
[[nodiscard]] DenseMatrix hadamardMatrix(Dimension dim);

/// The cyclic shift matrix X^{+k} of dimension d.
[[nodiscard]] DenseMatrix shiftMatrix(Dimension dim, Level amount);

/// The two-level Givens rotation matrix embedded in dimension d.
[[nodiscard]] DenseMatrix givensMatrix(Dimension dim, Level levelA, Level levelB, double theta,
                                       double phi);

/// The two-level phase rotation matrix embedded in dimension d.
[[nodiscard]] DenseMatrix phaseMatrix(Dimension dim, Level levelA, Level levelB, double theta);

/// The exact two-level transposition matrix embedded in dimension d.
[[nodiscard]] DenseMatrix levelSwapMatrix(Dimension dim, Level levelA, Level levelB);

} // namespace mqsp
