// Buffered-link problem statement, design point, and estimate — the
// vocabulary shared by all interconnect models (proposed and baselines),
// the buffering optimizer, the sign-off analyzer, and the NoC synthesizer.
//
// A "link" is one bit-line of a global interconnect: a wire of a given
// length on a given layer/design style, divided into equal segments by
// repeaters of one kind and size.
#pragma once

#include "cache/key.hpp"
#include "liberty/cell.hpp"
#include "tech/wire.hpp"

namespace pim {

/// Worst-case Miller switching factor of Pamunuwa et al. (neighbors
/// switching in opposition).
inline constexpr double kWorstCaseMiller = 1.51;

/// The problem: where the wire runs and how it is exercised.
struct LinkContext {
  WireLayer layer = WireLayer::Global;
  DesignStyle style = DesignStyle::SingleSpacing;
  double length = 0.0;       ///< end-to-end wire length [m]
  double input_slew = 100e-12;  ///< slew of the edge entering the first repeater [s]
  double activity = 0.15;    ///< switching activity factor for dynamic power
  double frequency = 1e9;    ///< clock frequency for dynamic power [Hz]
  WireModelOptions wire_options;  ///< resistivity-effect toggles (ablations)
};

/// Hashes every LinkContext field into a result-cache key as
/// "ctx.<field>" (the buffering and yield keys share it).
inline void key_link_context(cache::KeyBuilder& kb, const LinkContext& ctx) {
  kb.field("ctx.layer", static_cast<int>(ctx.layer));
  kb.field("ctx.style", static_cast<int>(ctx.style));
  kb.field("ctx.length", ctx.length);
  kb.field("ctx.input_slew", ctx.input_slew);
  kb.field("ctx.activity", ctx.activity);
  kb.field("ctx.frequency", ctx.frequency);
  kb.field("ctx.wire.scattering", ctx.wire_options.scattering);
  kb.field("ctx.wire.barrier", ctx.wire_options.barrier);
  kb.field("ctx.wire.res_scale", ctx.wire_options.res_scale);
  kb.field("ctx.wire.cap_scale", ctx.wire_options.cap_scale);
}

/// The solution candidate: repeater kind/size/count and the cross-talk
/// assumption (miller_factor = kWorstCaseMiller for simultaneous opposing
/// neighbors, 0 for staggered insertion, paper §III-D).
struct LinkDesign {
  CellKind kind = CellKind::Inverter;
  int drive = 8;
  int num_repeaters = 1;
  double miller_factor = kWorstCaseMiller;
};

/// What a model predicts for one (context, design) pair.
struct LinkEstimate {
  double delay = 0.0;          ///< worst-case 50 % input-to-output delay [s]
  double output_slew = 0.0;    ///< slew at the far end [s]
  double switched_cap = 0.0;   ///< total capacitance switched per transition [F]
  double dynamic_power = 0.0;  ///< alpha * C * vdd^2 * f [W]
  double leakage_power = 0.0;  ///< state-averaged repeater leakage [W]
  double repeater_area = 0.0;  ///< [m^2]
  double wire_area = 0.0;      ///< routed track area [m^2]

  double total_power() const { return dynamic_power + leakage_power; }
  double total_area() const { return repeater_area + wire_area; }
};

/// Per-segment parasitics a model needs repeatedly; derived once from the
/// context by LinkGeometry.
struct LinkGeometry {
  WireRc rc;                ///< per-meter parasitics
  double segment_length = 0.0;
  double seg_res = 0.0;     ///< wire resistance of one segment [ohm]
  double seg_cap_ground = 0.0;
  double seg_cap_couple_total = 0.0;  ///< both neighbors combined [F]

  /// Checks the arguments (require_valid_link), extracts the wire, then
  /// forms the segment products.
  LinkGeometry(const Technology& tech, const LinkContext& ctx, const LinkDesign& design);
  /// The segment products of an extracted wire, `length` split into
  /// `num_repeaters` equal segments; the arguments are not checked.
  LinkGeometry(const WireRc& rc, double length, int num_repeaters);
};

/// The argument checks every link evaluation starts with: a positive
/// length, at least one repeater and a drive of at least 1.
void require_valid_link(const LinkContext& ctx, const LinkDesign& design);

}  // namespace pim
