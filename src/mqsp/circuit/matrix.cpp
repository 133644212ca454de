#include "mqsp/circuit/matrix.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>

namespace mqsp {

DenseMatrix::DenseMatrix(std::size_t n) : n_(n), data_(n * n, Complex{0.0, 0.0}) {}

void DenseMatrix::setZero(std::size_t n) {
    n_ = n;
    data_.assign(n * n, Complex{0.0, 0.0});
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
    DenseMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = Complex{1.0, 0.0};
    }
    return m;
}

const Complex& DenseMatrix::operator()(std::size_t row, std::size_t col) const {
    requireThat(row < n_ && col < n_, "DenseMatrix: index out of range");
    return data_[row * n_ + col];
}

Complex& DenseMatrix::operator()(std::size_t row, std::size_t col) {
    requireThat(row < n_ && col < n_, "DenseMatrix: index out of range");
    return data_[row * n_ + col];
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& rhs) const {
    requireThat(n_ == rhs.n_, "DenseMatrix::multiply: size mismatch");
    DenseMatrix out(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t k = 0; k < n_; ++k) {
            const Complex aik = data_[i * n_ + k];
            if (aik == Complex{0.0, 0.0}) {
                continue;
            }
            for (std::size_t j = 0; j < n_; ++j) {
                out.data_[i * n_ + j] += aik * rhs.data_[k * n_ + j];
            }
        }
    }
    return out;
}

DenseMatrix DenseMatrix::adjoint() const {
    DenseMatrix out(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j < n_; ++j) {
            out.data_[j * n_ + i] = std::conj(data_[i * n_ + j]);
        }
    }
    return out;
}

std::vector<Complex> DenseMatrix::apply(const std::vector<Complex>& v) const {
    requireThat(v.size() == n_, "DenseMatrix::apply: vector size mismatch");
    std::vector<Complex> out(n_, Complex{0.0, 0.0});
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j < n_; ++j) {
            out[i] += data_[i * n_ + j] * v[j];
        }
    }
    return out;
}

bool DenseMatrix::isUnitary(double tol) const {
    const DenseMatrix product = multiply(adjoint());
    return product.maxDeviation(identity(n_)) <= tol;
}

bool DenseMatrix::approxEquals(const DenseMatrix& other, double tol) const {
    return n_ == other.n_ && maxDeviation(other) <= tol;
}

double DenseMatrix::maxDeviation(const DenseMatrix& other) const {
    requireThat(n_ == other.n_, "DenseMatrix::maxDeviation: size mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
    }
    return worst;
}

} // namespace mqsp
