// Dense LU factorization with partial pivoting.
//
// Used as the general-purpose linear solver for small MNA systems and as
// the fallback when the banded path is not applicable.
//
// Robustness: a singular pivot does not immediately fail. The factor step
// retries once on a column-equilibrated copy (each column scaled by its
// max magnitude), which rescues systems that are merely badly scaled; a
// genuine rank deficiency still surfaces as ErrorCode::singular_matrix
// carrying the pivot column and a condition estimate. The recoverable
// entry point is create(); the throwing constructor keeps the historical
// fail-fast contract for call sites that want it.
#pragma once

#include "numeric/matrix.hpp"
#include "util/expected.hpp"

namespace pim {

/// LU decomposition (Doolittle with partial pivoting) of a square matrix.
/// Factor once, solve many right-hand sides.
class LuDecomposition {
 public:
  /// Factors `a`; throws pim::Error(singular_matrix) if the matrix is
  /// singular to working precision even after the equilibrated retry.
  explicit LuDecomposition(Matrix a);

  /// Recoverable factorization: returns the decomposition or the
  /// singular_matrix error (with pivot index and condition estimate)
  /// without throwing.
  static Expected<LuDecomposition> create(Matrix a);

  /// Solves A x = b for the factored A.
  Vector solve(const Vector& b) const;

  size_t size() const { return lu_.rows(); }

  /// True when the factorization only succeeded on the column-equilibrated
  /// retry.
  bool equilibrated() const { return equilibrated_; }

 private:
  LuDecomposition() = default;

  /// One in-place factorization attempt over lu_/perm_.
  Expected<void> factor();

  Matrix lu_;
  std::vector<size_t> perm_;
  Vector col_scale_;  ///< empty unless equilibrated: x = scale .* y
  bool equilibrated_ = false;
};

/// Recoverable one-shot solve.
Expected<Vector> try_solve_dense(Matrix a, const Vector& b);

}  // namespace pim
