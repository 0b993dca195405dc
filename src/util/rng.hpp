// Deterministic pseudo-random generator (SplitMix64) used by tests and the
// NoC testcase generators. Determinism matters: every bench re-generates
// the same workloads on every run, so paper-style tables are reproducible.
#pragma once

#include <cmath>
#include <cstdint>

namespace pim {

/// SplitMix64's state increment (the golden-ratio gamma).
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 finalizer: full-avalanche 64-bit mix.
inline uint64_t mix_u64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One SplitMix64 step: advances `state` by the gamma and mixes the new
/// state into the output.
inline uint64_t splitmix_next(uint64_t& state) { return mix_u64(state += kSplitMixGamma); }

/// The top 53 bits of `bits` as a uniform double in [0, 1).
inline double unit_double(uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1.0p-53; }

/// SplitMix64: tiny, fast, full-period 64-bit generator; adequate for
/// workload synthesis and Monte-Carlo-style sweeps (not cryptographic).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t next_u64() { return splitmix_next(state_); }

  /// Uniform double in [0, 1).
  double next_double() { return unit_double(next_u64()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [0, n).
  uint64_t next_below(uint64_t n) { return n ? next_u64() % n : 0; }

  /// Standard normal deviate (Box-Muller; one value per call, the spare
  /// is cached).
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = next_double();
    while (u1 <= 1e-300) u1 = next_double();
    const double u2 = next_double();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586;
    spare_ = mag * std::sin(two_pi * u2);
    have_spare_ = true;
    return mag * std::cos(two_pi * u2);
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

 private:
  uint64_t state_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// Seed for the `index`-th substream of `base`: decorrelated streams for
/// per-item RNGs in parallel sweeps (exec engine, fault injection). The
/// mapping is a pure function of (base, index), so a given item draws the
/// same stream at any thread count or execution order.
inline uint64_t derive_stream_seed(uint64_t base, uint64_t index) {
  return mix_u64(base + kSplitMixGamma * (index + 1));
}

}  // namespace pim
