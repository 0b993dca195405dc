#include "models/link.hpp"

#include "util/error.hpp"

namespace pim {

void require_valid_link(const LinkContext& ctx, const LinkDesign& design) {
  require(ctx.length > 0.0, "LinkGeometry: length must be positive");
  require(design.num_repeaters >= 1, "LinkGeometry: need at least one repeater");
  require(design.drive >= 1, "LinkGeometry: drive must be >= 1");
}

namespace {
WireRc checked_wire(const Technology& tech, const LinkContext& ctx,
                    const LinkDesign& design) {
  require_valid_link(ctx, design);
  return extract_wire(tech, ctx.layer, ctx.style, ctx.wire_options);
}
}  // namespace

LinkGeometry::LinkGeometry(const Technology& tech, const LinkContext& ctx,
                           const LinkDesign& design)
    : LinkGeometry(checked_wire(tech, ctx, design), ctx.length, design.num_repeaters) {}

LinkGeometry::LinkGeometry(const WireRc& wire, double length, int num_repeaters)
    : rc(wire),
      segment_length(length / num_repeaters),
      seg_res(rc.res_per_m * segment_length),
      seg_cap_ground(rc.cap_ground_per_m * segment_length),
      seg_cap_couple_total(2.0 * rc.cap_couple_per_m * segment_length) {}

}  // namespace pim
