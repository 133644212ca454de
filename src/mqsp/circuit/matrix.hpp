#pragma once

#include "mqsp/complexnum/complex.hpp"

#include <cstddef>
#include <vector>

namespace mqsp {

/// Small dense complex square matrix. Used for single-qudit gate matrices
/// (dimension = qudit dimension, so at most a few dozen rows) and for
/// equivalence checks in tests and the transpiler. Not intended for
/// register-sized operators — the simulator applies gates without ever
/// materializing those.
class DenseMatrix {
public:
    DenseMatrix() = default;

    /// Zero matrix of size n x n.
    explicit DenseMatrix(std::size_t n);

    /// Identity matrix of size n x n.
    [[nodiscard]] static DenseMatrix identity(std::size_t n);

    [[nodiscard]] std::size_t size() const noexcept { return n_; }

    /// Make this the zero matrix of size n x n, reusing its storage.
    void setZero(std::size_t n);

    [[nodiscard]] const Complex& operator()(std::size_t row, std::size_t col) const;
    [[nodiscard]] Complex& operator()(std::size_t row, std::size_t col);

    /// Matrix product this * rhs.
    [[nodiscard]] DenseMatrix multiply(const DenseMatrix& rhs) const;

    /// Conjugate transpose.
    [[nodiscard]] DenseMatrix adjoint() const;

    /// Matrix-vector product this * v.
    [[nodiscard]] std::vector<Complex> apply(const std::vector<Complex>& v) const;

    /// True when U U^dagger == I within tol (max componentwise deviation).
    [[nodiscard]] bool isUnitary(double tol = 1e-9) const;

    /// True when all entries match within tol.
    [[nodiscard]] bool approxEquals(const DenseMatrix& other, double tol = 1e-9) const;

    /// Max componentwise |a - b| against another matrix of the same size.
    [[nodiscard]] double maxDeviation(const DenseMatrix& other) const;

private:
    std::size_t n_ = 0;
    std::vector<Complex> data_;
};

} // namespace mqsp
