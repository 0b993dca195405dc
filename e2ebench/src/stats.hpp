// Sample statistics for the end-to-end benchmark.
//
// Timings are reported as a median plus the highest percentile the sample
// supports: a percentile p is reported only when at least ten samples lie
// beyond it, i.e. n * (100 - p) / 100 >= 10. Anything thinner is a guess
// about the tail, not a measurement of it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace e2e {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr size_t kMinBeyond = 10;

/// Quantile q in [0, 1] of an ascending sample, linearly interpolated
/// between the two closest ranks (NumPy's default, R type 7). 0 for an
/// empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// True when a sample of n leaves at least kMinBeyond samples beyond the
/// integer percentile `pct` (1..99). Integer arithmetic on purpose:
/// (1 - 0.9) * 100 is 9.999... in floating point.
inline bool percentile_supported(size_t n, int pct) {
  return pct > 0 && pct < 100 && n * static_cast<size_t>(100 - pct) >= kMinBeyond * 100;
}

/// Percentile `pct` of `values`, or nullopt when the sample is too small
/// to support it.
inline std::optional<double> supported_percentile(const std::vector<double>& values, int pct) {
  if (!percentile_supported(values.size(), pct)) return std::nullopt;
  return quantile(values, pct / 100.0);
}

}  // namespace e2e
