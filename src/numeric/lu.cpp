#include "numeric/lu.hpp"

#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"

namespace pim {

Expected<void> LuDecomposition::factor() {
  PIM_COUNT("numeric.lu.factorizations");
  const size_t n = lu_.rows();
  perm_.resize(n);
  for (size_t i = 0; i < n; ++i) perm_[i] = i;

  const bool inject = fault::should_fire(fault::kLuSingular);
  double diag_max = 0.0;
  double diag_min = 0.0;
  for (size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    size_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (inject && k == n - 1) best = 0.0;
    if (!(best > 0.0)) {
      const std::string cond =
          diag_max > 0.0 && diag_min > 0.0 ? format_sig(diag_max / diag_min, 3) : "inf";
      return Error("LuDecomposition: singular matrix (zero pivot at column " +
                       std::to_string(k) + " of " + std::to_string(n) +
                       ", condition estimate >= " + cond + ")" +
                       (inject ? " [injected]" : ""),
                   ErrorCode::singular_matrix);
    }
    diag_max = k == 0 ? best : std::max(diag_max, best);
    diag_min = k == 0 ? best : std::min(diag_min, best);
    if (pivot != k) {
      for (size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
    }
    const double inv = 1.0 / lu_(k, k);
    for (size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
  return {};
}

Expected<LuDecomposition> LuDecomposition::create(Matrix a) {
  require(a.rows() == a.cols(), "LuDecomposition: matrix must be square",
          ErrorCode::bad_input);
  const size_t n = a.rows();

  LuDecomposition d;
  d.lu_ = a;  // keep `a` intact for the equilibrated retry
  Expected<void> first = d.factor();
  if (first.ok()) return d;

  // Guardrail: re-factor a column-equilibrated copy. This rescues systems
  // whose columns live at wildly different magnitudes (conductances vs
  // capacitor companions), where the plain pivot search underflows to an
  // exact zero even though the matrix has full rank.
  PIM_COUNT("numeric.lu.error");
  PIM_COUNT("numeric.lu.equilibrate.retries");
  LuDecomposition eq;
  eq.col_scale_.assign(n, 1.0);
  for (size_t c = 0; c < n; ++c) {
    double mag = 0.0;
    for (size_t r = 0; r < n; ++r) mag = std::max(mag, std::fabs(a(r, c)));
    if (mag > 0.0) eq.col_scale_[c] = 1.0 / mag;
    for (size_t r = 0; r < n; ++r) a(r, c) *= eq.col_scale_[c];
  }
  eq.lu_ = std::move(a);
  eq.equilibrated_ = true;
  Expected<void> second = eq.factor();
  if (!second.ok())
    return second.error().with_context(
        "retrying the factorization with column equilibration");
  PIM_COUNT("numeric.lu.recovered");
  return eq;
}

LuDecomposition::LuDecomposition(Matrix a) : LuDecomposition(create(std::move(a)).take()) {}

Vector LuDecomposition::solve(const Vector& b) const {
  const size_t n = lu_.rows();
  require(b.size() == n, "LuDecomposition::solve: dimension mismatch",
          ErrorCode::bad_input);
  Vector x(n);
  // Forward substitution with the permuted right-hand side.
  for (size_t r = 0; r < n; ++r) {
    double acc = b[perm_[r]];
    for (size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Back substitution.
  for (size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
  // Undo column scaling: the factored system was A*diag(s), so the true
  // solution is s .* y.
  if (!col_scale_.empty())
    for (size_t i = 0; i < n; ++i) x[i] *= col_scale_[i];
  return x;
}

Expected<Vector> try_solve_dense(Matrix a, const Vector& b) {
  Expected<LuDecomposition> d = LuDecomposition::create(std::move(a));
  if (!d.ok()) return d.error();
  if (b.size() != d.value().size())
    return Error("try_solve_dense: dimension mismatch", ErrorCode::bad_input);
  return d.value().solve(b);
}

}  // namespace pim
