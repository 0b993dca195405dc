// Banded matrix storage and LU solver.
//
// MNA matrices of buffered interconnects are spatially one-dimensional:
// when circuit nodes are numbered along the wire, every stamp touches
// nodes within a small index distance, so the matrix has a narrow band.
// A banded LU (O(n * bandwidth^2)) makes full-line transistor-level
// simulation of 15 mm buffered interconnects with explicit aggressors
// tractable where dense LU (O(n^3)) is not.
//
// The factorization does not pivot. Transient MNA matrices assembled by
// pim::spice are strongly diagonally dominant (every node carries a
// capacitor companion conductance), so this is safe in practice; a
// vanishing pivot throws and callers may fall back to the dense path.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"
#include "util/expected.hpp"

namespace pim {

/// Square banded matrix with `lower` sub-diagonals and `upper`
/// super-diagonals, stored column-compressed LAPACK-style:
/// entry (r, c) lives at band_[(upper + r - c) * n + c] when
/// |r - c| is inside the band.
class BandedMatrix {
 public:
  BandedMatrix(size_t n, size_t lower, size_t upper);

  size_t size() const { return n_; }
  size_t lower() const { return lower_; }
  size_t upper() const { return upper_; }

  /// True when (r, c) lies inside the band.
  bool in_band(size_t r, size_t c) const {
    return (c <= r ? r - c <= lower_ : c - r <= upper_);
  }

  /// Adds `value` at (r, c); throws when outside the band.
  void add(size_t r, size_t c, double value);

  /// Reads the entry at (r, c); zero outside the band.
  double at(size_t r, size_t c) const;

  /// Sets every entry to zero, keeping shape and band widths.
  void set_zero();

  /// y = A x.
  Vector multiply(const Vector& x) const;

  /// Raw column-compressed storage; entry (r, c) lives at
  /// (upper + r - c) * n + c. The batched transient engine stamps through
  /// precomputed slots of this layout (see spice/plan.hpp).
  std::vector<double>& storage() { return band_; }
  const std::vector<double>& storage() const { return band_; }

 private:
  friend class BandedLu;
  size_t n_;
  size_t lower_;
  size_t upper_;
  std::vector<double> band_;
};

/// LU factorization of a banded matrix without pivoting.
///
/// Because the elimination never pivots, the fill pattern depends only on
/// (n, lower, upper) — the symbolic analysis is the shape itself. The
/// symbolic constructor allocates factor storage once for a topology;
/// refactor() then re-runs the numeric elimination in place for each new
/// set of values (Newton iterations, timesteps) without reallocating.
class BandedLu {
 public:
  /// Factors `a` in place; throws pim::Error on a (near-)zero pivot.
  explicit BandedLu(BandedMatrix a);

  /// Symbolic-only constructor: allocates factor storage for matrices of
  /// this shape without factoring. Call refactor() before solving.
  BandedLu(size_t n, size_t lower, size_t upper);

  /// Numeric refactor: copies `a`'s values into the preallocated storage
  /// and re-runs the elimination. Identical arithmetic (and identical
  /// metric/fault behavior) to constructing a fresh BandedLu, but with no
  /// allocation. Returns singular_matrix instead of throwing.
  Expected<void> refactor(const BandedMatrix& a);

  /// The factor's raw column-compressed storage, laid out exactly like
  /// BandedMatrix::storage(). Callers on a hot path may assemble matrix
  /// values directly here and call refactor() with no arguments, skipping
  /// the copy that refactor(const BandedMatrix&) performs.
  std::vector<double>& values() { return lu_.band_; }

  /// In-place numeric refactor: eliminates whatever values() currently
  /// holds. Same arithmetic and metric/fault behavior as the copying
  /// overload.
  Expected<void> refactor() { return eliminate(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A x = b in place: `x` holds b on entry, the solution on exit.
  /// Same arithmetic as solve(), without the allocation.
  void solve_in_place(Vector& x) const;

  bool factored() const { return factored_; }

 private:
  /// Shared elimination loop; both the throwing constructor and
  /// refactor() run exactly this code.
  Expected<void> eliminate();

  BandedMatrix lu_;
  bool factored_ = false;
};

}  // namespace pim
