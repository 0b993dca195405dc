// Wire parasitic extraction: per-unit-length RC of a signal wire with its
// neighborhood, per design style.
//
// Resistance model (paper §III-B): bulk copper resistivity enhanced by
//   1) electron scattering — the Shi–Pan-style closed form
//      rho_eff(w) = rho_bulk * (1 + C * lambda_mfp / w_conductor), and
//   2) barrier/liner thickness — the liner eats the conducting
//      cross-section: A = (w - 2 t_b) * (t - t_b).
//
// Capacitance model: Sakurai–Tamaru closed forms for ground and coupling
// capacitance of parallel lines over a plane.
//
// Design styles:
//   SingleSpacing — minimum width/spacing, both neighbors are switching
//                   signals (worst-case Miller factor applies downstream);
//   DoubleSpacing — 2x spacing, neighbors still switch;
//   Shielded      — grounded shields between signals: coupling terms land
//                   on ground, no Miller amplification, 2x routing pitch.
#pragma once

#include "tech/technology.hpp"

namespace pim {

enum class WireLayer { Global, Intermediate };

enum class DesignStyle { SingleSpacing, DoubleSpacing, Shielded };

/// Human-readable style tag ("SS", "DS", "SH") used in tables.
std::string design_style_name(DesignStyle style);

/// Feature toggles for ablation studies; both default on.
struct WireModelOptions {
  bool scattering = true;
  bool barrier = true;
  /// Multiplicative perturbations of the extracted parasitics, used by
  /// the process-variation extension (pim::variation) and for what-if
  /// studies. 1.0 = nominal.
  double res_scale = 1.0;
  double cap_scale = 1.0;
};

/// Per-unit-length parasitics of one victim wire.
struct WireRc {
  double res_per_m = 0.0;         ///< [ohm/m]
  double cap_ground_per_m = 0.0;  ///< to ground planes / shields [F/m]
  double cap_couple_per_m = 0.0;  ///< to EACH switching neighbor [F/m]
  double pitch = 0.0;             ///< width + effective spacing, for area [m]

  /// Total load capacitance per meter if neighbors were quiet (Miller = 1).
  double cap_total_per_m() const { return cap_ground_per_m + 2.0 * cap_couple_per_m; }
};

/// The scale-free part of an extraction: everything extract_wire derives
/// before it applies res_scale/cap_scale. A Monte-Carlo run builds it once
/// and scales it per sample.
struct WireRcBasis {
  DesignStyle style = DesignStyle::SingleSpacing;
  double rho = 0.0;         ///< effective resistivity [ohm*m]
  double area = 0.0;        ///< conducting cross-section, barrier removed [m^2]
  double cap_ground = 0.0;  ///< unscaled Sakurai–Tamaru ground cap [F/m]
  double cap_couple = 0.0;  ///< unscaled coupling cap to one neighbor [F/m]
  double pitch = 0.0;       ///< [m]

  /// The parasitics at the given scales: res_scale * rho / area, and the
  /// capacitances scaled before a shielded style folds its coupling onto
  /// ground.
  WireRc scaled(double res_scale, double cap_scale) const;
};

/// Effective resistivity at conductor width `w_cond` [ohm*m].
double effective_resistivity(const InterconnectTech& tech, double w_cond,
                             const WireModelOptions& options);

/// The scale-free basis of a wire on `layer` under `style`; the scales in
/// `options` are not read.
WireRcBasis wire_rc_basis(const Technology& tech, WireLayer layer, DesignStyle style,
                          const WireModelOptions& options = {});

/// Full RC extraction of a wire on `layer` under `style`: the basis
/// scaled by options.res_scale and options.cap_scale.
WireRc extract_wire(const Technology& tech, WireLayer layer, DesignStyle style,
                    const WireModelOptions& options = {});

}  // namespace pim
