// Composition calibration (the final "calibrated against SPICE" step of
// the modeling methodology).
//
// The paper composes the repeater and wire delays as
//   d_stage = i(s) + rd(s, w) * c_l + r_w (0.4 c_g + (xi/2) c_c + 0.7 c_i).
// Our regressed rd maps a *lumped* load to a full 50 % delay, so applying
// it to the whole wire capacitance and then adding the distributed wire
// term double-counts: the driver really sees a reduced effective wire
// capacitance (resistive shielding). This pass runs a small set of
// single-stage golden simulations spanning the Rw/Rd regime and fits the
// two composition weights (kappa_c, kappa_w) of TechnologyFit by linear
// least squares:
//   d_golden - i - rd c_i  ~=  kappa_c * rd * c_wire  +  kappa_w * d_pamunuwa.
#pragma once

#include "charlib/fit.hpp"
#include "sta/signoff.hpp"

namespace pim {

/// Training-set axes for the calibration. The weights are fitted
/// separately for the coupled style class (trained on SingleSpacing) and
/// the shielded class, because the Miller transient and static grounded
/// coupling compose differently.
struct CompositionOptions {
  std::vector<int> drives = {8, 20};
  std::vector<double> segment_lengths = {0.25e-3, 0.5e-3, 1.0e-3, 1.8e-3};  // [m]
  std::vector<double> input_slews = {50e-12, 300e-12};             // [s]
  /// Repeater counts of the training chains: multi-stage chains teach
  /// the weights the waveform-shape penalty of real driven wires.
  std::vector<int> chain_lengths = {1, 4};
  WireLayer layer = WireLayer::Global;
  SignoffOptions signoff;


  bool operator==(const CompositionOptions&) const = default;
};

/// Returns `fit` with comp_coupled / comp_shielded filled in from golden
/// chain simulations of `tech`. The golden simulations of both classes
/// run as one pim::exec region; the weights are bit-identical at any
/// thread count.
TechnologyFit calibrate_composition(const Technology& tech, TechnologyFit fit,
                                    const CompositionOptions& options = {});

}  // namespace pim
