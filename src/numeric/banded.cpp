#include "numeric/banded.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
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
  band_[band_slot(r, c, lower_, upper_)] += value;
}

double BandedMatrix::at(size_t r, size_t c) const {
  if (r >= n_ || c >= n_ || !in_band(r, c)) return 0.0;
  return band_[band_slot(r, c, lower_, upper_)];
}

void BandedMatrix::set_zero() { band_.assign(band_.size(), 0.0); }

BandedLu::BandedLu(BandedMatrix a) : lu_(std::move(a)) {
  PIM_COUNT("numeric.banded.factorizations");
  const size_t n = lu_.n_;
  const size_t kl = lu_.lower_;
  const size_t ku = lu_.upper_;
  auto entry = [&](size_t r, size_t c) -> double& {
    return lu_.band_[band_slot(r, c, kl, ku)];
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
      throw Error("BandedLu: zero pivot at column " + std::to_string(k) + " of " +
                      std::to_string(n) + " (matrix singular or needs pivoting)" +
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
}

Vector BandedLu::solve(const Vector& b) const {
  const size_t n = lu_.n_;
  require(b.size() == n, "BandedLu::solve: dimension mismatch");
  const size_t kl = lu_.lower_;
  const size_t ku = lu_.upper_;
  auto entry = [&](size_t r, size_t c) { return lu_.band_[band_slot(r, c, kl, ku)]; };
  Vector x = b;
  // Forward substitution (unit-lower factor).
  for (size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const size_t r_hi = std::min(n - 1, k + kl);
    for (size_t r = k + 1; r <= r_hi; ++r) x[r] -= entry(r, k) * xk;
  }
  // Back substitution (upper factor).
  for (size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    const size_t c_hi = std::min(n - 1, ri + ku);
    for (size_t c = ri + 1; c <= c_hi; ++c) acc -= entry(ri, c) * x[c];
    x[ri] = acc / entry(ri, ri);
  }
  return x;
}

namespace {

typedef double Pair __attribute__((vector_size(16)));
// The same pair at double alignment: lane l0 of a slot need not sit on a
// 16-byte boundary. GCC lets a vector lvalue access its element type, so
// unlike a memcpy this does not make every store alias the loop's indices.
typedef Pair PairU __attribute__((aligned(8)));

// Lane groups of the cohort kernel. Two runs lanes l0 and l0 + 1 as one
// SSE2 pair; One runs a single lane on plain doubles. BandedLu's
// `continue` on a zero factor or a zero solution entry becomes a select
// (`keep ? old : updated`) per lane: an unconditional `old - 0 * y` could
// flip the sign of a zero or turn an inf into a NaN.
struct One {
  using V = double;
  static constexpr size_t kWidth = 1;
  static V load(const double* p) { return *p; }
  static void store(double* p, V v) { *p = v; }
  static double lane(V v, size_t) { return v; }
  static bool all(bool m) { return m; }
};

struct Two {
  using V = Pair;
  static constexpr size_t kWidth = 2;
  static V load(const double* p) { return *reinterpret_cast<const PairU*>(p); }
  static void store(double* p, V v) { *reinterpret_cast<PairU*>(p) = v; }
  static double lane(V v, size_t i) { return v[i]; }
  template <class M>
  static bool all(M m) {
    return m[0] && m[1];
  }
};

// One lane group of an interleaved band store: band widths, the store's
// lane stride and the group's first lane.
template <class T>
struct Group {
  using V = typename T::V;
  size_t kl, ku, lanes, l0;

  // Row r of the group: entry (r, c) is at row(a, r) + c * lanes, since
  // band_slot(r, c) = r * (kl + ku) + kl + c.
  template <class P>
  P* row(P* a, size_t r) const {
    return a + (r * (kl + ku) + kl) * lanes + l0;
  }

  // Eliminates the group's lanes in place. singular[i] is set for a lane
  // whose pivot vanishes, or whose inject[i] asks for the injected
  // final-pivot failure; the lane's values are garbage from then on.
  void factor(double* a, size_t n, const unsigned char* inject,
              unsigned char* singular) const {
    for (size_t k = 0; k < n; ++k) {
      const double* rk = row(a, k);
      const V pivot = T::load(rk + k * lanes);
      for (size_t i = 0; i < T::kWidth; ++i) {
        const double p = inject[i] && k == n - 1 ? 0.0 : T::lane(pivot, i);
        if (!(std::fabs(p) > 1e-300)) singular[i] = 1;
      }
      const V inv = 1.0 / pivot;
      const size_t r_hi = std::min(n - 1, k + kl);
      const size_t c_hi = std::min(n - 1, k + ku);
      for (size_t r = k + 1; r <= r_hi; ++r) {
        double* rr = row(a, r);
        const V factor = T::load(rr + k * lanes) * inv;
        T::store(rr + k * lanes, factor);
        const auto keep = factor == 0.0;
        if (T::all(keep)) continue;
        for (size_t c = k + 1; c <= c_hi; ++c) {
          const V old = T::load(rr + c * lanes);
          const V updated = old - factor * T::load(rk + c * lanes);
          T::store(rr + c * lanes, keep ? old : updated);
        }
      }
    }
  }

  // Forward and back substitution for the group's lanes.
  void solve(const double* a, double* x, size_t n) const {
    double* xl = x + l0;
    for (size_t k = 0; k < n; ++k) {
      const V xk = T::load(xl + k * lanes);
      const auto keep = xk == 0.0;
      if (T::all(keep)) continue;
      const size_t r_hi = std::min(n - 1, k + kl);
      for (size_t r = k + 1; r <= r_hi; ++r) {
        const V old = T::load(xl + r * lanes);
        const V updated = old - T::load(row(a, r) + k * lanes) * xk;
        T::store(xl + r * lanes, keep ? old : updated);
      }
    }
    for (size_t ri = n; ri-- > 0;) {
      const double* rr = row(a, ri);
      V acc = T::load(xl + ri * lanes);
      const size_t c_hi = std::min(n - 1, ri + ku);
      for (size_t c = ri + 1; c <= c_hi; ++c)
        acc -= T::load(rr + c * lanes) * T::load(xl + c * lanes);
      T::store(xl + ri * lanes, acc / T::load(rr + ri * lanes));
    }
  }
};

}  // namespace

BandedCohort::BandedCohort(size_t n, size_t lower, size_t upper)
    : n_(n), lower_(lower), upper_(upper) {
  require(n > 0, "BandedCohort: size must be positive");
}

void BandedCohort::set_lanes(size_t lanes) {
  lanes_ = lanes;
  values_.resize(n_ * (lower_ + upper_ + 1) * lanes);
  rhs_.resize(n_ * lanes);
  inject_.resize(lanes);
  singular_.resize(lanes);
}

void BandedCohort::factor(std::vector<unsigned char>& active) {
  // The kernel draws nowhere else, so drawing up front in lane order
  // gives each lane the draw a per-lane BandedLu would have made.
  int64_t factored = 0;
  for (size_t l = 0; l < lanes_; ++l) {
    singular_[l] = 0;
    inject_[l] = active[l] && fault::should_fire(fault::kLuSingular);
    factored += active[l] != 0;
  }
  PIM_COUNT_N("numeric.banded.factorizations", factored);
  size_t l0 = 0;
  for (; l0 + 2 <= lanes_; l0 += 2)
    if (active[l0] || active[l0 + 1])
      Group<Two>{lower_, upper_, lanes_, l0}.factor(values_.data(), n_, &inject_[l0],
                                                     &singular_[l0]);
  if (l0 < lanes_ && active[l0])
    Group<One>{lower_, upper_, lanes_, l0}.factor(values_.data(), n_, &inject_[l0],
                                                   &singular_[l0]);
  for (size_t l = 0; l < lanes_; ++l) {
    if (!active[l] || !singular_[l]) continue;
    active[l] = 0;
    PIM_COUNT("numeric.lu.error");
  }
}

void BandedCohort::solve(const std::vector<unsigned char>& active) {
  size_t l0 = 0;
  for (; l0 + 2 <= lanes_; l0 += 2)
    if (active[l0] || active[l0 + 1])
      Group<Two>{lower_, upper_, lanes_, l0}.solve(values_.data(), rhs_.data(), n_);
  if (l0 < lanes_ && active[l0])
    Group<One>{lower_, upper_, lanes_, l0}.solve(values_.data(), rhs_.data(), n_);
}

}  // namespace pim
