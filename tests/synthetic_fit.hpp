// A hand-written calibrated fit: plausible coefficients for `tech`, no
// simulation. Suites that exercise the coefficient-file and resident
// tiers save it as a .pimfit so a warm request never characterizes.
#pragma once

#include "charlib/fit.hpp"
#include "tech/technology.hpp"

namespace pim {

inline TechnologyFit synthetic_fit(const Technology& tech) {
  TechnologyFit fit;
  fit.node = tech.node;
  fit.vdd = tech.vdd;
  RepeaterEdgeFit e;
  e.a0 = 5e-12;
  e.a1 = 0.05;
  e.rho0 = 2e-3;
  e.rho1 = 1e6;
  e.b0 = 2e-12;
  e.b1 = 0.3;
  e.b2 = 5e-4;
  fit.inv_rise = fit.inv_fall = fit.buf_rise = fit.buf_fall = e;
  fit.gamma = 7e-10;
  fit.leakage.n0 = fit.leakage.p0 = 1e-9;
  fit.leakage.n1 = fit.leakage.p1 = 1e-2;
  fit.area0 = 1e-12;
  fit.area1 = 1e-6;
  return fit;
}

}  // namespace pim
