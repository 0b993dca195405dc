// Piecewise-linear interpolation on rectangular grids.
//
// NLDM-style cell tables (delay/slew indexed by input slew x load) are
// evaluated by bilinear interpolation with linear extrapolation at the
// edges — the same convention Liberty-consuming timers use.
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace pim {

/// Rectangular-grid bilinear interpolator with edge extrapolation.
class Grid2D {
 public:
  /// `values(i, j)` corresponds to (rows[i], cols[j]). Both axes must be
  /// strictly increasing with >= 2 entries.
  Grid2D(Vector rows, Vector cols, Matrix values);

  /// Bilinear interpolation at (r, c), extrapolating at the boundary.
  double eval(double r, double c) const;

  const Matrix& values() const { return values_; }

 private:
  Vector rows_;
  Vector cols_;
  Matrix values_;
};

}  // namespace pim
