// Waveform measurements: threshold crossings, 50 % delay, slew.
//
// Conventions (used consistently by characterization, models, and
// sign-off): delay is measured between 50 %-of-swing crossings, and slew
// is the 20 %-80 % crossing interval scaled by 1/0.6 to a full-swing
// equivalent ramp time — the same convention used to *drive* inputs, so a
// measured slew can be fed back in as an input slew.
//
// Every measurement reads only the *first* crossing of each level, so a
// transient run that is given the crossings its caller measures (its
// `stop_after` list, spice/transient.hpp) may end at the first sample
// where all of them have happened. CrossingWatch applies the same
// crosses() rule as crossing_time(), so the stop and the measurement
// never disagree.
#pragma once

#include <vector>

#include "spice/circuit.hpp"

namespace pim {

/// Edge direction of interest.
enum class EdgeKind { Rising, Falling };

/// Whether the step from sample value `a` to the next sample value `b`
/// crosses `level` in the direction `edge`. The one crossing rule of
/// crossing_time() and of a transient run's early exit.
inline bool crosses(double a, double b, double level, EdgeKind edge) {
  return edge == EdgeKind::Rising ? (a < level && b >= level) : (a > level && b <= level);
}

/// One threshold crossing a caller measures on a node's waveform.
struct Crossing {
  NodeId node = 0;
  double level = 0.0;
  EdgeKind edge = EdgeKind::Rising;
};

/// The four crossings delay_50() and measure_slew() read for an arc from
/// `in` to `out`: in 50 %, out 50 %, out 20 % and out 80 % of `swing`.
std::vector<Crossing> timing_crossings(NodeId in, EdgeKind in_edge, NodeId out,
                                       EdgeKind out_edge, double swing);

/// Follows a run's recorded samples and reports the first one at which
/// every crossing of its list has happened. A watch over an empty list
/// never reports.
class CrossingWatch {
 public:
  CrossingWatch() = default;
  explicit CrossingWatch(std::vector<Crossing> crossings);

  /// Feeds the node voltages of the next recorded sample (indexed by
  /// NodeId); true exactly when it is the first sample at which every
  /// crossing has happened.
  bool observe(const std::vector<double>& v_node);

 private:
  std::vector<Crossing> pending_;  // not yet crossed
  std::vector<double> prev_;       // pending_[k]'s node at the last sample
  bool primed_ = false;            // a first sample was seen
};

/// First time `values` crosses `level` in the direction `edge`, linearly
/// interpolated between samples. Throws pim::Error if it never crosses.
double crossing_time(const std::vector<double>& time, const std::vector<double>& values,
                     double level, EdgeKind edge);

/// 50 %-to-50 % delay from an input edge to an output edge (edges may have
/// opposite polarity, as through an inverter). `swing` is the full voltage
/// swing (vdd).
double delay_50(const std::vector<double>& time, const std::vector<double>& input,
                EdgeKind input_edge, const std::vector<double>& output,
                EdgeKind output_edge, double swing);

/// Full-swing-equivalent transition time of the edge: (t80 - t20) / 0.6.
double measure_slew(const std::vector<double>& time, const std::vector<double>& values,
                    EdgeKind edge, double swing);

}  // namespace pim
