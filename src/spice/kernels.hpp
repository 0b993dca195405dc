// Shared alpha-power device-evaluation kernels.
//
// The scalar model entry point (eval_alpha_power in mosfet.cpp) and the
// batched SoA transient engine (plan.cpp / batch.cpp) must produce
// bit-identical currents and derivatives — the determinism contract keys
// the result cache on them. Both therefore compile exactly the inline
// functions below; there is no second copy of the model math anywhere.
//
// The "folded" parameter forms precompute two products that the model
// only ever uses together, in the same association order the original
// expressions evaluate them:
//   ksw = k_sat * w              (i0   = (k_sat * w) * pow(...))
//   nvt = n_sub * v_thermal_300k (subthreshold swing)
// so folding changes no floating-point result.
//
// The build uses strict IEEE semantics (no -ffast-math, no FMA
// contraction), so scalar and batch produce the same bits;
// scripts/check_kernels.sh enforces this end to end.
#pragma once

#include <cmath>
#include <cstddef>

#include "spice/mosfet.hpp"
#include "util/units.hpp"

namespace pim::kernels {

/// Softplus-smoothed gate overdrive and its derivative w.r.t. vgs.
/// veff -> vgt for strong inversion, -> n*vT*exp(vgt/(n*vT)) in
/// subthreshold, giving an emergent exponential subthreshold slope of
/// ln(10)*n*vT/alpha volts per decade.
struct Overdrive {
  double veff;
  double dveff;  // d veff / d vgs
};

inline Overdrive smooth_overdrive(double vgt, double nvt) {
  const double z = vgt / nvt;
  if (z > 40.0) return {vgt, 1.0};
  if (z < -40.0) {
    const double e = std::exp(z);
    return {nvt * e, e};
  }
  const double e = std::exp(z);
  return {nvt * std::log1p(e), e / (1.0 + e)};
}

/// Forward-conduction evaluation (vds >= 0) with folded parameters.
inline MosEval eval_forward_folded(double ksw, double vth, double alpha,
                                   double k_vdsat, double lambda, double nvt,
                                   double vgs, double vds) {
  const auto [veff, dveff] = smooth_overdrive(vgs - vth, nvt);

  const double i0 = ksw * std::pow(veff, alpha);
  const double di0 = ksw * alpha * std::pow(veff, alpha - 1.0) * dveff;
  const double vdsat = k_vdsat * std::pow(veff, 0.5 * alpha);
  const double clm = 1.0 + lambda * vds;

  MosEval out;
  if (vdsat < 1e-12 || vds >= vdsat) {
    // Saturation.
    out.ids = i0 * clm;
    out.g_ds = i0 * lambda;
    out.g_m = di0 * clm;
  } else {
    // Triode; the quadratic (2 - x)x matches the saturation current and
    // its vds-derivative at x = 1.
    const double x = vds / vdsat;
    const double f = (2.0 - x) * x;
    const double dvdsat = k_vdsat * 0.5 * alpha * std::pow(veff, 0.5 * alpha - 1.0) * dveff;
    const double dx_dvgs = -vds / (vdsat * vdsat) * dvdsat;
    out.ids = i0 * clm * f;
    out.g_ds = i0 * (lambda * f + clm * (2.0 - 2.0 * x) / vdsat);
    out.g_m = di0 * clm * f + i0 * clm * (2.0 - 2.0 * x) * dx_dvgs;
  }
  return out;
}

/// eval_alpha_power with folded parameters: negative vds is handled by
/// the source/drain-swap symmetry (I = -I', g_ds = g_m' + g_ds').
inline MosEval eval_alpha_power_folded(double ksw, double vth, double alpha,
                                       double k_vdsat, double lambda, double nvt,
                                       double vgs, double vds) {
  if (vds >= 0.0)
    return eval_forward_folded(ksw, vth, alpha, k_vdsat, lambda, nvt, vgs, vds);
  const MosEval r =
      eval_forward_folded(ksw, vth, alpha, k_vdsat, lambda, nvt, vgs - vds, -vds);
  MosEval out;
  out.ids = -r.ids;
  out.g_m = -r.g_m;
  out.g_ds = r.g_m + r.g_ds;
  return out;
}

/// Per-terminal linearization of one device's drain-branch current with
/// the transient engine's sign convention: `sign` is +1 for NMOS, -1 for
/// PMOS, and sign*(vg - vs) reproduces the polarity-negated terminal
/// voltages exactly (IEEE negation is exact). The Jacobian entries are
/// polarity-independent (the chain rule collapses — see mosfet.cpp).
inline void eval_branch_folded(double sign, double ksw, double vth, double alpha,
                               double k_vdsat, double lambda, double nvt,
                               double vg, double vd, double vs, double& i_d,
                               double& di_dvg, double& di_dvd, double& di_dvs) {
  const MosEval e = eval_alpha_power_folded(ksw, vth, alpha, k_vdsat, lambda, nvt,
                                            sign * (vg - vs), sign * (vd - vs));
  i_d = sign * e.ids;
  di_dvg = e.g_m;
  di_dvd = e.g_ds;
  di_dvs = -(e.g_m + e.g_ds);
}

/// Structure-of-arrays pass: evaluates `count` devices in one contiguous
/// sweep. All pointers address `count` doubles; the parameter arrays are
/// the folded per-device forms above (per-lane widths enter through ksw).
/// Polarity is handled branch-free through the sign array; the remaining
/// operating-region branches are value-dependent and required for
/// bit-identity with the scalar path.
void eval_alpha_power_batch(size_t count, const double* sign, const double* ksw,
                            const double* vth, const double* alpha,
                            const double* k_vdsat, const double* lambda,
                            const double* nvt, const double* vg, const double* vd,
                            const double* vs, double* i_d, double* di_dvg,
                            double* di_dvd, double* di_dvs);

}  // namespace pim::kernels
