#include "sta/elmore.hpp"

#include <algorithm>

#include "charlib/characterize.hpp"
#include "models/baseline.hpp"

namespace pim {

double elmore_buffered_line(const Technology& tech, const LinkContext& ctx,
                            const LinkDesign& design) {
  const LinkGeometry g(tech, ctx, design);
  const RepeaterSizing sz = repeater_sizing(tech, design.kind, design.drive);
  const double rd = std::max(
      first_principles_resistance(tech.nmos, tech.vdd, sz.wn_out),
      first_principles_resistance(tech.pmos, tech.vdd, sz.wp_out));
  const double win_n = design.kind == CellKind::Inverter ? sz.wn_out : sz.wn_in;
  const double win_p = design.kind == CellKind::Inverter ? sz.wp_out : sz.wp_in;
  const double ci = win_n * tech.nmos.c_gate + win_p * tech.pmos.c_gate;
  const double c_seg = g.seg_cap_ground + design.miller_factor * g.seg_cap_couple_total;
  const double per_stage = rd * (c_seg + ci) + g.seg_res * (0.5 * c_seg + ci);
  return design.num_repeaters * per_stage;
}

}  // namespace pim
