#include "spice/kernels.hpp"

namespace pim::kernels {

// The SoA sweep, one device after another: the value-dependent
// operating-region branches, the memo lookups and the strict-IEEE
// pow/exp/log1p calls of a memo miss keep it from vectorizing, so the
// saving comes from the calls a bypass skips (docs/kernels.md).
size_t eval_alpha_power_batch(size_t count, OverdriveMemo* memo, const double* sign,
                              const double* ksw, const double* vth,
                              const double* alpha, const double* k_vdsat,
                              const double* lambda, const double* nvt,
                              const double* vg, const double* vd, const double* vs,
                              double* i_d, double* di_dvg, double* di_dvd,
                              double* di_dvs) {
  size_t bypassed = 0;
  for (size_t i = 0; i < count; ++i) {
    bypassed += eval_branch_memo(memo[i], sign[i], ksw[i], vth[i], alpha[i], k_vdsat[i],
                                 lambda[i], nvt[i], vg[i], vd[i], vs[i], i_d[i],
                                 di_dvg[i], di_dvd[i], di_dvs[i]);
  }
  return bypassed;
}

}  // namespace pim::kernels
