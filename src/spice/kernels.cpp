#include "spice/kernels.hpp"

namespace pim::kernels {

// The SoA sweep. It stays scalar: the value-dependent operating-region
// branches and the strict-IEEE pow/exp/log1p calls keep the compiler from
// vectorizing it, so the per-device evaluations run in order.
void eval_alpha_power_batch(size_t count, const double* sign, const double* ksw,
                            const double* vth, const double* alpha,
                            const double* k_vdsat, const double* lambda,
                            const double* nvt, const double* vg, const double* vd,
                            const double* vs, double* i_d, double* di_dvg,
                            double* di_dvd, double* di_dvs) {
  for (size_t i = 0; i < count; ++i) {
    eval_branch_folded(sign[i], ksw[i], vth[i], alpha[i], k_vdsat[i], lambda[i],
                       nvt[i], vg[i], vd[i], vs[i], i_d[i], di_dvg[i], di_dvd[i],
                       di_dvs[i]);
  }
}

}  // namespace pim::kernels
