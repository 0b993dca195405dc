// Source waveforms: piecewise-linear voltage vs. time.
//
// Grounded voltage sources in pim::spice are driven by these; the two
// shapes the library needs are DC rails and saturated-ramp edges with a
// controlled transition time (the "input slew" knob of the paper's
// characterization methodology).
#pragma once

#include <vector>

namespace pim {

/// Piecewise-linear waveform. Before the first breakpoint the value is
/// the first level; after the last it is the last level.
class Waveform {
 public:
  /// Constant level for all time.
  static Waveform dc(double level);

  /// Ramp from `v0` to `v1` starting at `t_start`, linear over
  /// `transition`; constant before and after. `transition` is the full
  /// 0-100 % ramp time.
  static Waveform ramp(double v0, double v1, double t_start, double transition);

  /// General PWL from (time, value) breakpoints; times must be strictly
  /// increasing and non-empty.
  static Waveform pwl(std::vector<double> times, std::vector<double> values);

  /// Value at time `t`.
  double value(double t) const;

  /// Breakpoint accessors (deck serialization, diagnostics).
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

 private:
  Waveform() = default;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace pim
