#include "spice/measure.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace pim {

std::vector<Crossing> timing_crossings(NodeId in, EdgeKind in_edge, NodeId out,
                                       EdgeKind out_edge, double swing) {
  // The level expressions of delay_50 and measure_slew, so each level is
  // the same double the measurement scans for.
  return {{in, 0.5 * swing, in_edge},
          {out, 0.5 * swing, out_edge},
          {out, 0.2 * swing, out_edge},
          {out, 0.8 * swing, out_edge}};
}

CrossingWatch::CrossingWatch(std::vector<Crossing> crossings)
    : pending_(std::move(crossings)), prev_(pending_.size()) {}

bool CrossingWatch::observe(const std::vector<double>& v_node) {
  if (pending_.empty()) return false;
  size_t kept = 0;
  for (size_t k = 0; k < pending_.size(); ++k) {
    const double b = v_node[static_cast<size_t>(pending_[k].node)];
    if (primed_ && crosses(prev_[k], b, pending_[k].level, pending_[k].edge)) continue;
    pending_[kept] = pending_[k];
    prev_[kept] = b;
    ++kept;
  }
  primed_ = true;
  pending_.resize(kept);
  prev_.resize(kept);
  return kept == 0;
}

double crossing_time(const std::vector<double>& time, const std::vector<double>& values,
                     double level, EdgeKind edge) {
  require(time.size() == values.size(), "crossing_time: size mismatch",
          ErrorCode::bad_input);
  require(time.size() >= 2, "crossing_time: need at least two samples",
          ErrorCode::bad_input);
  require(std::isfinite(level), "crossing_time: level must be finite",
          ErrorCode::bad_input);
  // NaN guard at the stage boundary: a non-finite sample means the solver
  // upstream diverged; surface it as a typed error instead of letting the
  // NaN propagate silently into downstream fits (NaN comparisons are all
  // false, so the scan below would report "never crosses").
  require(std::isfinite(values[0]), "crossing_time: non-finite sample at index 0",
          ErrorCode::bad_input);
  for (size_t i = 1; i < values.size(); ++i) {
    const double a = values[i - 1];
    const double b = values[i];
    if (!std::isfinite(b))
      fail("crossing_time: non-finite sample at index " + std::to_string(i),
           ErrorCode::bad_input);
    if (!crosses(a, b, level, edge)) continue;
    const double f = (level - a) / (b - a);
    return time[i - 1] + f * (time[i] - time[i - 1]);
  }
  fail("crossing_time: waveform never crosses the level", ErrorCode::no_convergence);
}

double delay_50(const std::vector<double>& time, const std::vector<double>& input,
                EdgeKind input_edge, const std::vector<double>& output,
                EdgeKind output_edge, double swing) {
  require(swing > 0.0 && std::isfinite(swing), "delay_50: swing must be positive and finite",
          ErrorCode::bad_input);
  const double t_in = crossing_time(time, input, 0.5 * swing, input_edge);
  const double t_out = crossing_time(time, output, 0.5 * swing, output_edge);
  return t_out - t_in;
}

double measure_slew(const std::vector<double>& time, const std::vector<double>& values,
                    EdgeKind edge, double swing) {
  require(swing > 0.0 && std::isfinite(swing),
          "measure_slew: swing must be positive and finite", ErrorCode::bad_input);
  const double lo = 0.2 * swing;
  const double hi = 0.8 * swing;
  double t_lo, t_hi;
  if (edge == EdgeKind::Rising) {
    t_lo = crossing_time(time, values, lo, EdgeKind::Rising);
    t_hi = crossing_time(time, values, hi, EdgeKind::Rising);
  } else {
    t_hi = crossing_time(time, values, hi, EdgeKind::Falling);
    t_lo = crossing_time(time, values, lo, EdgeKind::Falling);
  }
  return std::fabs(t_hi - t_lo) / 0.6;
}

}  // namespace pim
