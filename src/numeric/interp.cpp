#include "numeric/interp.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pim {
namespace {
// Index i such that axis[i] <= x < axis[i+1], clamped to valid segments so
// out-of-range x extrapolates from the first/last segment.
size_t segment_index(const Vector& axis, double x) {
  if (x <= axis.front()) return 0;
  if (x >= axis[axis.size() - 2]) return axis.size() - 2;
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  return static_cast<size_t>(it - axis.begin()) - 1;
}

void check_axis(const Vector& axis, const char* name) {
  require(axis.size() >= 2, std::string(name) + ": need at least two samples",
          ErrorCode::bad_input);
  for (size_t i = 1; i < axis.size(); ++i)
    require(axis[i] > axis[i - 1], std::string(name) + ": axis must be strictly increasing",
            ErrorCode::bad_input);
  // Strictly-increasing also rules out NaN axis entries, so only the ends
  // need an explicit finiteness check.
  require(std::isfinite(axis.front()) && std::isfinite(axis.back()),
          std::string(name) + ": axis must be finite", ErrorCode::bad_input);
}
}  // namespace

Grid2D::Grid2D(Vector rows, Vector cols, Matrix values)
    : rows_(std::move(rows)), cols_(std::move(cols)), values_(std::move(values)) {
  check_axis(rows_, "Grid2D rows");
  check_axis(cols_, "Grid2D cols");
  require(values_.rows() == rows_.size() && values_.cols() == cols_.size(),
          "Grid2D: value shape does not match axes");
}

double Grid2D::eval(double r, double c) const {
  require(std::isfinite(r) && std::isfinite(c), "Grid2D::eval: query must be finite",
          ErrorCode::bad_input);
  const size_t i = segment_index(rows_, r);
  const size_t j = segment_index(cols_, c);
  const double tr = (r - rows_[i]) / (rows_[i + 1] - rows_[i]);
  const double tc = (c - cols_[j]) / (cols_[j + 1] - cols_[j]);
  const double v00 = values_(i, j);
  const double v01 = values_(i, j + 1);
  const double v10 = values_(i + 1, j);
  const double v11 = values_(i + 1, j + 1);
  const double top = v00 + tc * (v01 - v00);
  const double bottom = v10 + tc * (v11 - v10);
  return top + tr * (bottom - top);
}

}  // namespace pim
