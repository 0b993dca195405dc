// Shared alpha-power device-evaluation kernels.
//
// The scalar model entry point (eval_alpha_power in mosfet.cpp) and the
// batched SoA transient engine (plan.cpp / batch.cpp) must produce
// bit-identical currents and derivatives — the determinism contract keys
// the result cache on them. Both therefore compile exactly the inline
// functions below; there is no second copy of the model math anywhere.
//
// A forward evaluation is split in two halves: overdrive_terms(), which
// depends only on vgt = vgs - vth and the device's constants and holds
// every transcendental call, and forward_region(), which finishes the
// saturation or triode region for one vds. The scalar path runs both
// halves back to back; the batched engine keeps each device's last
// overdrive terms in a per-lane OverdriveMemo keyed on the exact bits of
// vgt and re-runs only forward_region while those bits repeat (the
// zero-tolerance device bypass, docs/kernels.md). Both halves keep the
// original expressions and association order, so a memoized evaluation
// returns the same bits as a memo-free one.
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
#include <cstdint>
#include <cstring>

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

/// The vds-independent half of a forward-conduction evaluation: every
/// term that depends only on the overdrive vgt and the device constants.
struct OverdriveTerms {
  double veff = 0.0, dveff = 0.0;
  double i0 = 0.0, di0 = 0.0, vdsat = 0.0;
  // pow(veff, 0.5 * alpha - 1), which only the triode branch needs:
  // filled by the first forward_region call that takes that branch.
  double pow_triode = 0.0;
  bool has_pow_triode = false;
};

inline OverdriveTerms overdrive_terms(double ksw, double alpha, double k_vdsat,
                                      double nvt, double vgt) {
  const auto [veff, dveff] = smooth_overdrive(vgt, nvt);
  OverdriveTerms t;
  t.veff = veff;
  t.dveff = dveff;
  t.i0 = ksw * std::pow(veff, alpha);
  t.di0 = ksw * alpha * std::pow(veff, alpha - 1.0) * dveff;
  t.vdsat = k_vdsat * std::pow(veff, 0.5 * alpha);
  return t;
}

/// The vds-dependent half (vds >= 0): saturation or triode.
inline MosEval forward_region(OverdriveTerms& t, double alpha, double k_vdsat,
                              double lambda, double vds) {
  const double clm = 1.0 + lambda * vds;
  MosEval out;
  if (t.vdsat < 1e-12 || vds >= t.vdsat) {
    // Saturation.
    out.ids = t.i0 * clm;
    out.g_ds = t.i0 * lambda;
    out.g_m = t.di0 * clm;
  } else {
    // Triode; the quadratic (2 - x)x matches the saturation current and
    // its vds-derivative at x = 1.
    const double x = vds / t.vdsat;
    const double f = (2.0 - x) * x;
    if (!t.has_pow_triode) {
      t.pow_triode = std::pow(t.veff, 0.5 * alpha - 1.0);
      t.has_pow_triode = true;
    }
    const double dvdsat = k_vdsat * 0.5 * alpha * t.pow_triode * t.dveff;
    const double dx_dvgs = -vds / (t.vdsat * t.vdsat) * dvdsat;
    out.ids = t.i0 * clm * f;
    out.g_ds = t.i0 * (lambda * f + clm * (2.0 - 2.0 * x) / t.vdsat);
    out.g_m = t.di0 * clm * f + t.i0 * clm * (2.0 - 2.0 * x) * dx_dvgs;
  }
  return out;
}

/// eval_alpha_power over a source of overdrive terms: `terms_of(vgt)`
/// returns the OverdriveTerms& of a forward-conduction overdrive vgt.
/// Negative vds is handled by the source/drain-swap symmetry
/// (I = -I', g_ds = g_m' + g_ds'), which evaluates the swapped vgt.
template <class TermsOf>
inline MosEval eval_alpha_power_with(TermsOf&& terms_of, double vth, double alpha,
                                     double k_vdsat, double lambda, double vgs,
                                     double vds) {
  if (vds >= 0.0)
    return forward_region(terms_of(vgs - vth), alpha, k_vdsat, lambda, vds);
  const MosEval r =
      forward_region(terms_of((vgs - vds) - vth), alpha, k_vdsat, lambda, -vds);
  MosEval out;
  out.ids = -r.ids;
  out.g_m = -r.g_m;
  out.g_ds = r.g_m + r.g_ds;
  return out;
}

/// eval_alpha_power with folded parameters, memo-free: every call runs
/// the full transcendental chain.
inline MosEval eval_alpha_power_folded(double ksw, double vth, double alpha,
                                       double k_vdsat, double lambda, double nvt,
                                       double vgs, double vds) {
  OverdriveTerms t;
  return eval_alpha_power_with(
      [&](double vgt) -> OverdriveTerms& {
        t = overdrive_terms(ksw, alpha, k_vdsat, nvt, vgt);
        return t;
      },
      vth, alpha, k_vdsat, lambda, vgs, vds);
}

/// One device's bypass memo: the overdrive terms of the last vgt it was
/// evaluated at, keyed on that vgt's exact bits (so -0.0 and +0.0 are
/// different keys). A memo belongs to one (lane, device): the device
/// constants and the lane's ksw are fixed for its lifetime.
struct OverdriveMemo {
  uint64_t vgt_bits = 0;
  bool valid = false;
  OverdriveTerms terms;
};

/// eval_alpha_power_folded through `memo`. Sets `bypassed` when the
/// overdrive terms came from the memo. Returns the same bits as the
/// memo-free form for any call sequence.
inline MosEval eval_alpha_power_memo(OverdriveMemo& memo, bool& bypassed, double ksw,
                                     double vth, double alpha, double k_vdsat,
                                     double lambda, double nvt, double vgs,
                                     double vds) {
  return eval_alpha_power_with(
      [&](double vgt) -> OverdriveTerms& {
        uint64_t bits;
        std::memcpy(&bits, &vgt, sizeof bits);
        bypassed = memo.valid && memo.vgt_bits == bits;
        if (!bypassed) {
          memo.terms = overdrive_terms(ksw, alpha, k_vdsat, nvt, vgt);
          memo.vgt_bits = bits;
          memo.valid = true;
        }
        return memo.terms;
      },
      vth, alpha, k_vdsat, lambda, vgs, vds);
}

/// Per-terminal linearization of one device's drain-branch current with
/// the transient engine's sign convention, through the device's memo:
/// `sign` is +1 for NMOS, -1 for PMOS, and sign*(vg - vs) reproduces the
/// polarity-negated terminal voltages exactly (IEEE negation is exact).
/// The Jacobian entries are polarity-independent (the chain rule
/// collapses — see mosfet.cpp). Returns true on a bypass.
inline bool eval_branch_memo(OverdriveMemo& memo, double sign, double ksw, double vth,
                             double alpha, double k_vdsat, double lambda, double nvt,
                             double vg, double vd, double vs, double& i_d,
                             double& di_dvg, double& di_dvd, double& di_dvs) {
  bool bypassed = false;
  const MosEval e = eval_alpha_power_memo(memo, bypassed, ksw, vth, alpha, k_vdsat,
                                          lambda, nvt, sign * (vg - vs),
                                          sign * (vd - vs));
  i_d = sign * e.ids;
  di_dvg = e.g_m;
  di_dvd = e.g_ds;
  di_dvs = -(e.g_m + e.g_ds);
  return bypassed;
}

/// Structure-of-arrays pass: evaluates `count` devices of one lane in one
/// contiguous sweep through that lane's `memo` (one entry per device).
/// All other pointers address `count` doubles; the parameter arrays are
/// the folded per-device forms above (per-lane widths enter through ksw).
/// Polarity is handled branch-free through the sign array; the remaining
/// operating-region branches are value-dependent and required for
/// bit-identity with the scalar path. Returns the number of bypasses.
size_t eval_alpha_power_batch(size_t count, OverdriveMemo* memo, const double* sign,
                              const double* ksw, const double* vth,
                              const double* alpha, const double* k_vdsat,
                              const double* lambda, const double* nvt,
                              const double* vg, const double* vd, const double* vs,
                              double* i_d, double* di_dvg, double* di_dvd,
                              double* di_dvs);

}  // namespace pim::kernels
