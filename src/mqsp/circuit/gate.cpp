#include "mqsp/circuit/gate.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

namespace mqsp {

namespace {
constexpr double kPi = std::numbers::pi;

// exp(-i t/2 (cos(phi) sx + sin(phi) sy)) restricted to {a, b}:
//   [ cos(t/2)                  , -i e^{-i phi} sin(t/2) ]
//   [ -i e^{+i phi} sin(t/2)    ,  cos(t/2)              ]
[[nodiscard]] TwoLevelBlock givensBlock(double theta, double phi) {
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return {Complex{c, 0.0}, Complex{0.0, -1.0} * Complex{std::cos(-phi), std::sin(-phi)} * s,
            Complex{0.0, -1.0} * Complex{std::cos(phi), std::sin(phi)} * s, Complex{c, 0.0}};
}

// Sign convention chosen so the paper's decomposition identity holds
// verbatim: Z(t) = R(-pi/2, 0) * R(t, pi/2) * R(pi/2, 0).
[[nodiscard]] TwoLevelBlock phaseBlock(double theta) {
    return {Complex{std::cos(theta / 2.0), std::sin(theta / 2.0)}, Complex{0.0, 0.0},
            Complex{0.0, 0.0}, Complex{std::cos(theta / 2.0), -std::sin(theta / 2.0)}};
}

[[nodiscard]] TwoLevelBlock levelSwapBlock() {
    return {Complex{0.0, 0.0}, Complex{1.0, 0.0}, Complex{1.0, 0.0}, Complex{0.0, 0.0}};
}

void writeHadamard(Dimension dim, DenseMatrix& m) {
    requireThat(dim >= 2, "hadamardMatrix: dimension must be >= 2");
    m.setZero(dim);
    const double invSqrt = 1.0 / std::sqrt(static_cast<double>(dim));
    for (Dimension r = 0; r < dim; ++r) {
        for (Dimension c = 0; c < dim; ++c) {
            const double angle = 2.0 * kPi * static_cast<double>(r) * static_cast<double>(c) /
                                 static_cast<double>(dim);
            m(r, c) = invSqrt * Complex{std::cos(angle), std::sin(angle)};
        }
    }
}

void writeShift(Dimension dim, Level amount, DenseMatrix& m) {
    requireThat(dim >= 2, "shiftMatrix: dimension must be >= 2");
    m.setZero(dim);
    for (Dimension c = 0; c < dim; ++c) {
        m((c + amount) % dim, c) = Complex{1.0, 0.0};
    }
}

/// The identity of dimension `dim` with `block` on levels a, b.
[[nodiscard]] DenseMatrix embedBlock(Dimension dim, Level a, Level b, const TwoLevelBlock& block) {
    DenseMatrix m = DenseMatrix::identity(dim);
    m(a, a) = block.aa;
    m(a, b) = block.ab;
    m(b, a) = block.ba;
    m(b, b) = block.bb;
    return m;
}
} // namespace

Operation Operation::givens(std::size_t target, Level levelA, Level levelB, double theta,
                            double phi, std::vector<Control> controls) {
    requireThat(levelA != levelB, "Operation::givens: levels must differ");
    Operation op;
    op.kind = GateKind::GivensRotation;
    op.target = target;
    op.levelA = levelA;
    op.levelB = levelB;
    op.theta = theta;
    op.phi = phi;
    op.controls = std::move(controls);
    return op;
}

Operation Operation::phase(std::size_t target, Level levelA, Level levelB, double theta,
                           std::vector<Control> controls) {
    requireThat(levelA != levelB, "Operation::phase: levels must differ");
    Operation op;
    op.kind = GateKind::PhaseRotation;
    op.target = target;
    op.levelA = levelA;
    op.levelB = levelB;
    op.theta = theta;
    op.controls = std::move(controls);
    return op;
}

Operation Operation::hadamard(std::size_t target, std::vector<Control> controls) {
    Operation op;
    op.kind = GateKind::Hadamard;
    op.target = target;
    op.controls = std::move(controls);
    return op;
}

Operation Operation::shift(std::size_t target, Level amount, std::vector<Control> controls) {
    Operation op;
    op.kind = GateKind::Shift;
    op.target = target;
    op.shiftAmount = amount;
    op.controls = std::move(controls);
    return op;
}

Operation Operation::levelSwap(std::size_t target, Level levelA, Level levelB,
                               std::vector<Control> controls) {
    requireThat(levelA != levelB, "Operation::levelSwap: levels must differ");
    Operation op;
    op.kind = GateKind::LevelSwap;
    op.target = target;
    op.levelA = levelA;
    op.levelB = levelB;
    op.controls = std::move(controls);
    return op;
}

DenseMatrix Operation::localMatrix(Dimension dim) const {
    switch (kind) {
    case GateKind::GivensRotation:
        return givensMatrix(dim, levelA, levelB, theta, phi);
    case GateKind::PhaseRotation:
        return phaseMatrix(dim, levelA, levelB, theta);
    case GateKind::Hadamard:
        return hadamardMatrix(dim);
    case GateKind::Shift:
        return shiftMatrix(dim, shiftAmount);
    case GateKind::LevelSwap:
        return levelSwapMatrix(dim, levelA, levelB);
    }
    detail::throwInternal("Operation::localMatrix: unknown gate kind");
}

bool Operation::isIdentity(double tol) const {
    switch (kind) {
    case GateKind::GivensRotation: {
        // R is identity iff theta == 0 (mod 4 pi); practically theta ~ 0.
        return std::abs(std::sin(theta / 2.0)) <= tol && std::cos(theta / 2.0) >= 1.0 - tol;
    }
    case GateKind::PhaseRotation:
        return std::abs(std::sin(theta / 2.0)) <= tol && std::cos(theta / 2.0) >= 1.0 - tol;
    case GateKind::Hadamard:
        return false;
    case GateKind::Shift:
        return shiftAmount == 0;
    case GateKind::LevelSwap:
        return false; // levels always differ
    }
    detail::throwInternal("Operation::isIdentity: unknown gate kind");
}

Operation Operation::inverse() const {
    Operation inv = *this;
    switch (kind) {
    case GateKind::GivensRotation:
    case GateKind::PhaseRotation:
        inv.theta = -theta;
        return inv;
    case GateKind::Hadamard:
        detail::throwInvalidArgument(
            "Operation::inverse: Hadamard inverse is not in the gate alphabet; "
            "decompose it into rotations first");
    case GateKind::Shift:
        // The inverse shift amount depends on the target dimension, which the
        // operation does not know; callers must handle Shift themselves.
        detail::throwInvalidArgument(
            "Operation::inverse: Shift inverse requires the qudit dimension");
    case GateKind::LevelSwap:
        return inv; // self-inverse
    }
    detail::throwInternal("Operation::inverse: unknown gate kind");
}

std::string Operation::toString() const {
    std::ostringstream out;
    switch (kind) {
    case GateKind::GivensRotation:
        out << "R(" << levelA << ',' << levelB << "| th=" << theta << ", ph=" << phi << ")";
        break;
    case GateKind::PhaseRotation:
        out << "Z(" << levelA << ',' << levelB << "| th=" << theta << ")";
        break;
    case GateKind::Hadamard:
        out << "H";
        break;
    case GateKind::Shift:
        out << "X+" << shiftAmount;
        break;
    case GateKind::LevelSwap:
        out << "X(" << levelA << ',' << levelB << ")";
        break;
    }
    out << " @ q" << target;
    if (!controls.empty()) {
        out << " ctrl[";
        for (std::size_t i = 0; i < controls.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            out << 'q' << controls[i].qudit << '=' << controls[i].level;
        }
        out << ']';
    }
    return out.str();
}

DenseMatrix hadamardMatrix(Dimension dim) {
    DenseMatrix m;
    writeHadamard(dim, m);
    return m;
}

DenseMatrix shiftMatrix(Dimension dim, Level amount) {
    DenseMatrix m;
    writeShift(dim, amount, m);
    return m;
}

void mixingMatrixInto(const Operation& op, Dimension dim, DenseMatrix& out) {
    switch (op.kind) {
    case GateKind::Hadamard:
        writeHadamard(dim, out);
        return;
    case GateKind::Shift:
        writeShift(dim, op.shiftAmount, out);
        return;
    case GateKind::GivensRotation:
    case GateKind::PhaseRotation:
    case GateKind::LevelSwap:
        break;
    }
    detail::throwInvalidArgument("mixingMatrixInto: not a Hadamard or Shift operation");
}

DenseMatrix givensMatrix(Dimension dim, Level levelA, Level levelB, double theta, double phi) {
    requireThat(levelA < dim && levelB < dim, "givensMatrix: level out of range");
    requireThat(levelA != levelB, "givensMatrix: levels must differ");
    return embedBlock(dim, levelA, levelB, givensBlock(theta, phi));
}

DenseMatrix levelSwapMatrix(Dimension dim, Level levelA, Level levelB) {
    requireThat(levelA < dim && levelB < dim, "levelSwapMatrix: level out of range");
    requireThat(levelA != levelB, "levelSwapMatrix: levels must differ");
    return embedBlock(dim, levelA, levelB, levelSwapBlock());
}

DenseMatrix phaseMatrix(Dimension dim, Level levelA, Level levelB, double theta) {
    requireThat(levelA < dim && levelB < dim, "phaseMatrix: level out of range");
    requireThat(levelA != levelB, "phaseMatrix: levels must differ");
    return embedBlock(dim, levelA, levelB, phaseBlock(theta));
}

std::optional<TwoLevelBlock> twoLevelBlock(const Operation& op) {
    switch (op.kind) {
    case GateKind::GivensRotation:
        return givensBlock(op.theta, op.phi);
    case GateKind::PhaseRotation:
        return phaseBlock(op.theta);
    case GateKind::LevelSwap:
        return levelSwapBlock();
    case GateKind::Hadamard:
    case GateKind::Shift:
        break;
    }
    return std::nullopt;
}

} // namespace mqsp
