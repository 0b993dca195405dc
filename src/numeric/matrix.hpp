// Dense row-major matrix.
//
// The simulator and the regression code only need modest sizes (up to a
// few thousand rows), so a plain dense container with explicit loops keeps
// the numerics transparent and dependency-free.
#pragma once

#include <cstddef>
#include <vector>

namespace pim {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Sets every entry to zero, keeping the shape.
  void set_zero();

  /// Raw row-major storage; entry (r, c) lives at r * cols() + c. The
  /// batched transient engine stamps through precomputed slots of this
  /// layout (see spice/plan.hpp).
  std::vector<double>& storage() { return data_; }
  const std::vector<double>& storage() const { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pim
