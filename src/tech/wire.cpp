#include "tech/wire.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {

std::string design_style_name(DesignStyle style) {
  switch (style) {
    case DesignStyle::SingleSpacing: return "SS";
    case DesignStyle::DoubleSpacing: return "DS";
    case DesignStyle::Shielded: return "SH";
  }
  fail("design_style_name: unknown style");
}

double effective_resistivity(const InterconnectTech& tech, double w_cond,
                             const WireModelOptions& options) {
  require(w_cond > 0.0, "effective_resistivity: conductor width must be positive");
  double rho = tech.rho_bulk;
  if (options.scattering)
    rho *= 1.0 + tech.scattering_coeff * constant::copper_mean_free_path / w_cond;
  return rho;
}

namespace {
const WireLayerGeometry& layer_geometry(const Technology& tech, WireLayer layer) {
  return layer == WireLayer::Global ? tech.interconnect.global
                                    : tech.interconnect.intermediate;
}

// Sakurai–Tamaru ground capacitance of a line of width w, thickness t,
// height h over a plane, per unit length.
double sakurai_cg(double w, double t, double h, double k) {
  return constant::eps0 * k * (1.15 * (w / h) + 2.80 * std::pow(t / h, 0.222));
}

// Sakurai–Tamaru coupling capacitance to one parallel neighbor at spacing s.
double sakurai_cc(double w, double t, double h, double s, double k) {
  const double term = 0.03 * (w / h) + 0.83 * (t / h) - 0.07 * std::pow(t / h, 0.222);
  return constant::eps0 * k * term * std::pow(s / h, -1.34);
}
}  // namespace

WireRcBasis wire_rc_basis(const Technology& tech, WireLayer layer, DesignStyle style,
                          const WireModelOptions& options) {
  const WireLayerGeometry& g = layer_geometry(tech, layer);
  const double tb = options.barrier ? tech.interconnect.barrier_thickness : 0.0;
  const double w_cond = g.width - 2.0 * tb;
  const double t_cond = g.thickness - tb;
  require(w_cond > 0.0 && t_cond > 0.0,
          "wire_rc_basis: barrier consumes the whole conductor");
  WireRcBasis basis;
  basis.style = style;
  basis.rho = effective_resistivity(tech.interconnect, w_cond, options);
  basis.area = w_cond * t_cond;

  const double spacing = style == DesignStyle::DoubleSpacing ? 2.0 * g.spacing : g.spacing;
  basis.cap_ground = sakurai_cg(g.width, g.thickness, g.ild_height, g.k_dielectric);
  basis.cap_couple =
      sakurai_cc(g.width, g.thickness, g.ild_height, spacing, g.k_dielectric);
  // Signal pitch: one wire plus one spacing. A shielded signal pays for
  // its own track plus a shield track.
  basis.pitch = style == DesignStyle::Shielded ? 2.0 * (g.width + g.spacing)
                                               : g.width + spacing;
  return basis;
}

WireRc WireRcBasis::scaled(double res_scale, double cap_scale) const {
  require(res_scale > 0.0 && cap_scale > 0.0,
          "wire model: perturbation scales must be positive");
  WireRc rc;
  rc.res_per_m = res_scale * rho / area;
  const double cg = cap_scale * cap_ground;
  const double cc = cap_scale * cap_couple;
  if (style == DesignStyle::Shielded) {
    // Neighbors are grounded shields: all coupling terminates on ground
    // and no Miller amplification occurs.
    rc.cap_ground_per_m = cg + 2.0 * cc;
    rc.cap_couple_per_m = 0.0;
  } else {
    rc.cap_ground_per_m = cg;
    rc.cap_couple_per_m = cc;
  }
  rc.pitch = pitch;
  return rc;
}

WireRc extract_wire(const Technology& tech, WireLayer layer, DesignStyle style,
                    const WireModelOptions& options) {
  return wire_rc_basis(tech, layer, style, options)
      .scaled(options.res_scale, options.cap_scale);
}

}  // namespace pim
