#include "numeric/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pim {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::set_zero() { data_.assign(data_.size(), 0.0); }

Matrix Matrix::identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::multiply(const Vector& x) const {
  require(x.size() == cols_, "Matrix::multiply: dimension mismatch");
  Vector y(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& other) const {
  require(other.rows_ == cols_, "Matrix::multiply: dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  }
  return out;
}

double norm2(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

Vector subtract(const Vector& a, const Vector& b) {
  require(a.size() == b.size(), "subtract: dimension mismatch");
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

double dot(const Vector& a, const Vector& b) {
  require(a.size() == b.size(), "dot: dimension mismatch");
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace pim
