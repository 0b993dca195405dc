// Moment matching / AWE-style reduced-order analysis of RC trees
// (paper §II cites AWE [21] and post-AWE methods as the mainstream
// detailed interconnect analyses that need full parasitics).
//
// Implements exact first and second moments of grounded-capacitor RC
// trees (m1 = Elmore) and a two-pole Pade approximation of the step
// response, from which threshold-crossing delays are solved in closed
// form plus a short bisection. Used as a mid-fidelity timer (between the
// closed-form models and the transistor-level golden) and to validate
// the golden simulator on linear networks.
#pragma once

#include <vector>

namespace pim {

/// A grounded-capacitor RC tree. Node 0 is the root (driven through
/// `root_resistance` from an ideal step source); every other node hangs
/// off its parent through a resistor.
class RcTree {
 public:
  /// Creates the root with its grounded capacitance.
  explicit RcTree(double root_cap);

  /// Adds a node connected to `parent` through `resistance`, with
  /// `capacitance` to ground. Returns the node index.
  int add_node(int parent, double resistance, double capacitance);

  int node_count() const { return static_cast<int>(parent_.size()); }

  /// First two moments (m1, m2) of the transfer function to `node`; m1
  /// is the Elmore delay.
  /// Sign conventions: H(s) = 1 - m1 s + m2 s^2 - ... with m1, m2 > 0
  /// for RC circuits.
  struct Moments {
    double m1 = 0.0;
    double m2 = 0.0;
  };
  Moments moments(int node, double root_resistance) const;

 private:
  std::vector<int> parent_;
  std::vector<double> res_;  // resistance to parent (root: unused)
  std::vector<double> cap_;
};

/// Threshold-crossing time of the two-pole step response matched to
/// (m1, m2): v(t) = 1 - (p2 e^{-p1 t} - p1 e^{-p2 t})/(p2 - p1) for real
/// poles, with the critically-damped/complex cases handled by falling
/// back to a single-pole fit. `threshold` in (0, 1), e.g. 0.5.
double two_pole_delay(double m1, double m2, double threshold);

}  // namespace pim
