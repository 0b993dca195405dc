// Link explorer: sweep repeater count and size for a global link and
// print the delay/power/area landscape — the view a system-level designer
// uses to pick an operating point. Also contrasts design styles and
// staggered insertion.
//
// Usage:   ./examples/link_explorer [tech] [length_mm]
// e.g.     ./examples/link_explorer 45nm 7.5
#include <cstdio>
#include <string>

#include "buffering/optimize.hpp"
#include "models/proposed.hpp"
#include "sta/calibrated.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pim;
using namespace pim::unit;

int main(int argc, char** argv) {
  const TechNode node = argc > 1 ? tech_node_from_name(argv[1]) : TechNode::N65;
  const double length_mm = argc > 2 ? parse_double(argv[2]) : 5.0;

  const Technology& tech = technology(node);
  const TechnologyFit fit =
      calibrated_fit(tech, Corner{}, "pim_coeffs_" + tech.name + ".pimfit");
  const ProposedModel model(tech, fit);

  LinkContext ctx;
  ctx.length = length_mm * mm;
  ctx.input_slew = 100 * ps;
  ctx.frequency = tech.clock_frequency;

  printf("Link explorer — %.1f mm global link at %s (worst-case coupling)\n\n",
         length_mm, tech.name.c_str());

  // Landscape: delay over (N, drive).
  const std::vector<int> drives = {4, 8, 16, 32, 64};
  std::vector<std::string> header = {"N \\ drive"};
  for (int d : drives) header.push_back(format("D%d (ps)", d));
  Table landscape(header);
  for (int n : {1, 2, 4, 6, 8, 12, 16, 24}) {
    std::vector<std::string> row = {format("%d", n)};
    for (int drive : drives) {
      LinkDesign d;
      d.drive = drive;
      d.num_repeaters = n;
      row.push_back(format("%.0f", model.evaluate(ctx, d).delay / ps));
    }
    landscape.add_row(row);
  }
  printf("%s\n", landscape.to_string().c_str());

  // Best points per objective.
  Table best({"objective", "N", "drive", "delay (ps)", "power (mW/bit)", "area (um2/bit)"});
  for (const auto& [label, weight] :
       std::vector<std::pair<std::string, double>>{{"min delay", 1.0},
                                                   {"balanced", 0.5},
                                                   {"min power", 0.0}}) {
    BufferingOptions opt;
    opt.weight = weight;
    opt.kinds = {CellKind::Inverter};
    if (weight == 0.0) opt.max_delay = 2.0 / tech.clock_frequency;  // keep it sane
    const BufferingResult r = optimize_buffering(model, ctx, opt);
    best.add_row({label, format("%d", r.design.num_repeaters), format("D%d", r.design.drive),
                  format("%.1f", r.estimate.delay / ps),
                  format("%.4f", r.estimate.total_power() / mW),
                  format("%.1f", r.estimate.repeater_area / um2)});
  }
  printf("%s\n", best.to_string().c_str());

  // Design styles at the balanced point.
  Table styles({"style", "delay (ps)", "power (mW/bit)", "track area (um2/bit)"});
  for (DesignStyle style :
       {DesignStyle::SingleSpacing, DesignStyle::DoubleSpacing, DesignStyle::Shielded}) {
    LinkContext sctx = ctx;
    sctx.style = style;
    BufferingOptions opt;
    opt.weight = 0.5;
    const BufferingResult r = optimize_buffering(model, sctx, opt);
    styles.add_row({design_style_name(style), format("%.1f", r.estimate.delay / ps),
                    format("%.4f", r.estimate.total_power() / mW),
                    format("%.1f", r.estimate.wire_area / um2)});
  }
  printf("%s", styles.to_string().c_str());
  printf("(SS = min pitch worst-case coupling, DS = double spacing, SH = shielded)\n");
  return 0;
}
