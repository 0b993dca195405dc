// Banded matrix storage and LU solvers.
//
// MNA matrices of buffered interconnects are spatially one-dimensional:
// when circuit nodes are numbered along the wire, every stamp touches
// nodes within a small index distance, so the matrix has a narrow band.
// A banded LU (O(n * bandwidth^2)) makes full-line transistor-level
// simulation of 15 mm buffered interconnects with explicit aggressors
// tractable where dense LU (O(n^3)) is not.
//
// Band rows are stored row-major: entry (r, c) of a matrix with `lower`
// sub-diagonals and `upper` super-diagonals lives at band_slot(r, c),
// so a row's in-band entries are contiguous and the elimination's inner
// loops walk memory in order.
//
// The factorization does not pivot. Transient MNA matrices assembled by
// pim::spice are strongly diagonally dominant (every node carries a
// capacitor companion conductance), so this is safe in practice; a
// vanishing pivot is reported as singular_matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace pim {

/// Row-major band slot of entry (r, c): r * (lower + upper + 1) + lower
/// + c - r. Only meaningful when (r, c) lies inside the band.
inline size_t band_slot(size_t r, size_t c, size_t lower, size_t upper) {
  return r * (lower + upper + 1) + lower + c - r;
}

/// Square banded matrix with `lower` sub-diagonals and `upper`
/// super-diagonals, stored as row-major band rows (band_slot).
class BandedMatrix {
 public:
  BandedMatrix(size_t n, size_t lower, size_t upper);

  size_t size() const { return n_; }
  size_t lower() const { return lower_; }
  size_t upper() const { return upper_; }

  /// Adds `value` at (r, c); throws when outside the band.
  void add(size_t r, size_t c, double value);

  /// Reads the entry at (r, c); zero outside the band.
  double at(size_t r, size_t c) const;

  /// Sets every entry to zero, keeping shape and band widths.
  void set_zero();

 private:
  friend class BandedLu;
  bool in_band(size_t r, size_t c) const {
    return (c <= r ? r - c <= lower_ : c - r <= upper_);
  }

  size_t n_;
  size_t lower_;
  size_t upper_;
  std::vector<double> band_;
};

/// LU factorization of one banded matrix without pivoting. This is the
/// scalar reference: run_transient_reference solves through it, and the
/// BandedCohort tests check the interleaved kernel against it bit for bit.
class BandedLu {
 public:
  /// Factors `a` in place; throws pim::Error(singular_matrix) on a
  /// (near-)zero pivot.
  explicit BandedLu(BandedMatrix a);

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

 private:
  BandedMatrix lu_;
};

/// A cohort of same-shape banded systems stored lane-interleaved, slot-major
/// with lanes minor: band slot s (band_slot order) of lane l lives at
/// s * lanes() + l, and row r of lane l's right-hand side at r * lanes() + l.
/// value() and rhs() are the only way in, so no caller spells the layout.
///
/// factor() and solve() run every active lane in one pass over the slots,
/// two lanes at a time as SSE2 pairs with a one-lane tail. Per lane the
/// arithmetic, the zero-factor and zero-entry skips and the order of every
/// operation are those of BandedLu, so each lane's solution is bit-identical
/// to BandedLu(a).solve(b) on that lane alone. Lanes never read each other's
/// values; an inactive lane that shares a pair with an active one is
/// computed alongside and its results are garbage the caller ignores.
class BandedCohort {
 public:
  BandedCohort(size_t n, size_t lower, size_t upper);

  /// Sets the lane count. Values and right-hand sides are unspecified
  /// afterwards; storage is reused when it is large enough.
  void set_lanes(size_t lanes);

  size_t lanes() const { return lanes_; }

  /// Band slot `slot` (band_slot order) of lane `lane`'s matrix.
  double& value(size_t slot, size_t lane) { return values_[slot * lanes_ + lane]; }
  /// Row `row` of lane `lane`'s right-hand side; its solution after solve().
  double& rhs(size_t row, size_t lane) { return rhs_[row * lanes_ + lane]; }

  /// Factors the matrices in place for every lane with active[l] != 0. Per
  /// active lane, in lane order, counts one numeric.banded.factorizations
  /// and draws the lu.singular fault once, as BandedLu does. A lane whose
  /// pivot vanishes (or whose draw fires) is singular: its active[l] is
  /// cleared and numeric.lu.error counted, and no other lane is affected.
  void factor(std::vector<unsigned char>& active);

  /// Solves the right-hand sides in place for every lane with active[l] != 0, using the
  /// factors of the last factor() call.
  void solve(const std::vector<unsigned char>& active);

 private:
  size_t n_;
  size_t lower_;
  size_t upper_;
  size_t lanes_ = 0;
  std::vector<double> values_;
  std::vector<double> rhs_;
  std::vector<unsigned char> inject_, singular_;
};

}  // namespace pim
