#include "numeric/banded.hpp"

#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace pim {

BandedMatrix::BandedMatrix(size_t n, size_t lower, size_t upper)
    : n_(n), lower_(lower), upper_(upper),
      band_((lower + upper + 1) * n, 0.0) {
  require(n > 0, "BandedMatrix: size must be positive");
}

void BandedMatrix::add(size_t r, size_t c, double value) {
  require(r < n_ && c < n_, "BandedMatrix::add: index out of range");
  require(in_band(r, c), "BandedMatrix::add: entry outside band");
  band_[(upper_ + r - c) * n_ + c] += value;
}

double BandedMatrix::at(size_t r, size_t c) const {
  if (r >= n_ || c >= n_ || !in_band(r, c)) return 0.0;
  return band_[(upper_ + r - c) * n_ + c];
}

void BandedMatrix::set_zero() { band_.assign(band_.size(), 0.0); }

Vector BandedMatrix::multiply(const Vector& x) const {
  require(x.size() == n_, "BandedMatrix::multiply: dimension mismatch");
  Vector y(n_, 0.0);
  for (size_t r = 0; r < n_; ++r) {
    const size_t c_lo = r > lower_ ? r - lower_ : 0;
    const size_t c_hi = std::min(n_ - 1, r + upper_);
    double acc = 0.0;
    for (size_t c = c_lo; c <= c_hi; ++c) acc += at(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

BandedLu::BandedLu(BandedMatrix a) : lu_(std::move(a)) {
  Expected<void> done = eliminate();
  if (!done.ok()) throw done.error();
}

BandedLu::BandedLu(size_t n, size_t lower, size_t upper)
    : lu_(n, lower, upper) {}

Expected<void> BandedLu::refactor(const BandedMatrix& a) {
  // Not require(): this runs per Newton iteration, and require's message
  // argument would build a heap std::string on every call.
  if (a.n_ != lu_.n_ || a.lower_ != lu_.lower_ || a.upper_ != lu_.upper_)
    fail("BandedLu::refactor: shape mismatch with symbolic analysis",
         ErrorCode::bad_input);
  lu_.band_ = a.band_;  // value copy into preallocated storage
  return eliminate();
}

Expected<void> BandedLu::eliminate() {
  PIM_COUNT("numeric.banded.factorizations");
  factored_ = false;
  const size_t n = lu_.n_;
  const size_t kl = lu_.lower_;
  const size_t ku = lu_.upper_;
  auto entry = [&](size_t r, size_t c) -> double& {
    return lu_.band_[(ku + r - c) * n + c];
  };
  // Fault site: pretend the final pivot vanished, as a genuinely singular
  // (or pivoting-starved) system would. Callers with a retry path — the
  // transient solver halves its timestep, which rebuilds the companion
  // conductances — get to exercise their recovery deterministically.
  const bool inject = fault::should_fire(fault::kLuSingular);
  for (size_t k = 0; k < n; ++k) {
    double pivot = entry(k, k);
    if (inject && k == n - 1) pivot = 0.0;
    if (!(std::fabs(pivot) > 1e-300)) {
      PIM_COUNT("numeric.lu.error");
      return Error("BandedLu: zero pivot at column " + std::to_string(k) +
                       " of " + std::to_string(n) +
                       " (matrix singular or needs pivoting)" +
                       (inject ? " [injected]" : ""),
                   ErrorCode::singular_matrix);
    }
    const double inv = 1.0 / pivot;
    const size_t r_hi = std::min(n - 1, k + kl);
    const size_t c_hi = std::min(n - 1, k + ku);
    for (size_t r = k + 1; r <= r_hi; ++r) {
      const double factor = entry(r, k) * inv;
      entry(r, k) = factor;
      if (factor == 0.0) continue;
      for (size_t c = k + 1; c <= c_hi; ++c) entry(r, c) -= factor * entry(k, c);
    }
  }
  factored_ = true;
  return {};
}

Vector BandedLu::solve(const Vector& b) const {
  require(b.size() == lu_.n_, "BandedLu::solve: dimension mismatch");
  Vector x = b;
  solve_in_place(x);
  return x;
}

void BandedLu::solve_in_place(Vector& x) const {
  const size_t n = lu_.n_;
  // Lazy-built messages: this is the per-iteration hot path.
  if (x.size() != n) fail("BandedLu::solve: dimension mismatch");
  if (!factored_)
    fail("BandedLu::solve: factorization missing (call refactor)",
         ErrorCode::internal);
  const size_t kl = lu_.lower_;
  const size_t ku = lu_.upper_;
  // Forward substitution (unit-lower factor).
  for (size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const size_t r_hi = std::min(n - 1, k + kl);
    for (size_t r = k + 1; r <= r_hi; ++r) x[r] -= lu_.at(r, k) * xk;
  }
  // Back substitution (upper factor).
  for (size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    const size_t c_hi = std::min(n - 1, ri + ku);
    for (size_t c = ri + 1; c <= c_hi; ++c) acc -= lu_.at(ri, c) * x[c];
    x[ri] = acc / lu_.at(ri, ri);
  }
}

}  // namespace pim
