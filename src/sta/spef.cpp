#include "sta/spef.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pim {

std::string write_spef(const Technology& tech, const LinkContext& ctx,
                       const LinkDesign& design, const SpefOptions& opt) {
  require(opt.sections_per_segment >= 1, "write_spef: need at least one section");
  const LinkGeometry g(tech, ctx, design);
  const int npi = opt.sections_per_segment;
  const bool coupled = ctx.style != DesignStyle::Shielded;

  std::ostringstream os;
  os << "*SPEF \"IEEE 1481\"\n";
  os << "*DESIGN \"" << opt.design_name << "\"\n";
  os << "*T_UNIT 1 NS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 HENRY\n";
  os << "*DIVIDER /\n*DELIMITER :\n\n";

  const double r_step = g.seg_res / npi;
  const double cg_step = g.seg_cap_ground / npi;
  const double cc_step_side = (0.5 * g.seg_cap_couple_total) / npi;

  for (int seg = 0; seg < design.num_repeaters; ++seg) {
    const std::string net = "victim_" + std::to_string(seg);
    const double total_cap = g.seg_cap_ground + g.seg_cap_couple_total;
    os << "*D_NET " << net << ' ' << format_sig(total_cap / 1e-15, 9) << "\n";
    os << "*CONN\n";
    os << "*I rep" << seg << ":Z O\n";
    os << "*I rep" << seg + 1 << ":A I\n";
    os << "*CAP\n";
    int cap_id = 0;
    for (int k = 0; k <= npi; ++k) {
      const double scale = (k == 0 || k == npi) ? 0.5 : 1.0;
      os << ++cap_id << ' ' << net << ':' << k << ' '
         << format_sig(scale * cg_step / 1e-15, 9) << "\n";
      if (coupled) {
        os << ++cap_id << ' ' << net << ':' << k << " agg_l_" << seg << ':' << k << ' '
           << format_sig(scale * cc_step_side / 1e-15, 9) << "\n";
        os << ++cap_id << ' ' << net << ':' << k << " agg_r_" << seg << ':' << k << ' '
           << format_sig(scale * cc_step_side / 1e-15, 9) << "\n";
      }
    }
    os << "*RES\n";
    for (int k = 0; k < npi; ++k) {
      os << k + 1 << ' ' << net << ':' << k << ' ' << net << ':' << k + 1 << ' '
         << format_sig(r_step, 9) << "\n";
    }
    os << "*END\n\n";
  }
  return os.str();
}

}  // namespace pim
