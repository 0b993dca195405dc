#include "charlib/fit.hpp"
#include <algorithm>

#include "numeric/regression.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pim {

const RepeaterEdgeFit& TechnologyFit::edge_fit(CellKind kind, bool rising) const {
  if (kind == CellKind::Inverter) return rising ? inv_rise : inv_fall;
  return rising ? buf_rise : buf_fall;
}

RepeaterEdgeFit fit_repeater_edge(const std::vector<const RepeaterCell*>& cells,
                                  bool rising) {
  require(cells.size() >= 3, "fit_repeater_edge: need at least three cell sizes");
  RepeaterEdgeFit fit;

  // Per-cell intermediate quantities.
  Vector inv_wr;           // 1 / wr per cell
  Vector rd0_cells;        // slew-intercept of rd per cell
  Vector rd1_cells;        // slew-slope of rd per cell
  Vector so_c1_cells;      // slew coefficient of output slew per cell
  Vector so_c0_cells;      // intercept of output slew per cell
  Vector so_c2_cells;      // load coefficient of output slew per cell
  Vector intrinsic_slews;  // pooled (slew, intercept) samples across cells
  Vector intrinsic_values;

  double r2_rd_worst = 1.0;

  for (const RepeaterCell* cell : cells) {
    const TimingTable& table = rising ? cell->rise : cell->fall;
    require(table.valid(), "fit_repeater_edge: cell '" + cell->name + "' lacks tables");
    // wr is the device that drives this edge: PMOS for rise, NMOS for fall.
    const double wr = rising ? cell->wp : cell->wn;

    // Step 1: per input slew, delay is linear in load: intercept is the
    // intrinsic delay sample, slope is the drive resistance sample.
    Vector rd_samples(table.slew_axis.size());
    for (size_t i = 0; i < table.slew_axis.size(); ++i) {
      Vector d(table.load_axis.size());
      for (size_t j = 0; j < table.load_axis.size(); ++j) d[j] = table.delay(i, j);
      const LinearFit line = fit_linear(table.load_axis, d);
      intrinsic_slews.push_back(table.slew_axis[i]);
      intrinsic_values.push_back(line.intercept);
      rd_samples[i] = line.slope;
    }

    // Step 2: drive resistance is linear in slew for this cell.
    const LinearFit rd_line = fit_linear(table.slew_axis, rd_samples);
    inv_wr.push_back(1.0 / wr);
    rd0_cells.push_back(rd_line.intercept);
    rd1_cells.push_back(rd_line.slope);
    r2_rd_worst = std::min(r2_rd_worst, rd_line.r_squared);

    // Step 3: output slew is multilinear in (slew, load) for this cell.
    std::vector<Vector> predictors(2);
    Vector so;
    for (size_t i = 0; i < table.slew_axis.size(); ++i) {
      for (size_t j = 0; j < table.load_axis.size(); ++j) {
        predictors[0].push_back(table.slew_axis[i]);
        predictors[1].push_back(table.load_axis[j]);
        so.push_back(table.out_slew(i, j));
      }
    }
    const MultiLinearFit so_fit = fit_multilinear(predictors, so);
    so_c0_cells.push_back(so_fit.coeff[0]);
    so_c1_cells.push_back(so_fit.coeff[1]);
    so_c2_cells.push_back(so_fit.coeff[2]);
  }

  // Intrinsic delay: quadratic in slew, pooled across sizes (paper Fig. 1:
  // size-independent).
  const PolynomialFit intrinsic = fit_polynomial(intrinsic_slews, intrinsic_values, 2);
  fit.a0 = intrinsic.coeff[0];
  fit.a1 = intrinsic.coeff[1];
  fit.a2 = intrinsic.coeff[2];
  fit.r2_intrinsic = intrinsic.r_squared;

  // Drive resistance ~ 1/size: zero-intercept regressions on 1/wr.
  fit.rho0 = fit_linear_zero_intercept(inv_wr, rd0_cells).slope;
  fit.rho1 = fit_linear_zero_intercept(inv_wr, rd1_cells).slope;
  fit.r2_drive_res = r2_rd_worst;

  // Output slew: intercept and slew coefficient are size-independent
  // (averages); the load coefficient scales as 1/size (zero-intercept
  // regression) — see the header for the documented deviation from the
  // paper's coefficient placement.
  fit.b0 = mean(so_c0_cells);
  fit.b1 = mean(so_c1_cells);
  fit.b2 = fit_linear_zero_intercept(inv_wr, so_c2_cells).slope;

  return fit;
}

TechnologyFit fit_technology(const Technology& tech, const CellLibrary& library) {
  PIM_OBS_SPAN("charlib.fit_technology");
  TechnologyFit fit;
  fit.node = tech.node;
  fit.vdd = library.vdd();

  const auto inverters = library.cells_of_kind(CellKind::Inverter);
  require(inverters.size() >= 3, "fit_technology: need at least three inverter drives");
  fit.inv_rise = fit_repeater_edge(inverters, true);
  fit.inv_fall = fit_repeater_edge(inverters, false);

  const auto buffers = library.cells_of_kind(CellKind::Buffer);
  if (buffers.size() >= 3) {
    fit.buf_rise = fit_repeater_edge(buffers, true);
    fit.buf_fall = fit_repeater_edge(buffers, false);
  }

  // Input capacitance: ci = gamma (wp + wn), zero intercept, inverters
  // (their input pin is the output-stage devices themselves).
  {
    Vector widths, caps;
    for (const RepeaterCell* c : inverters) {
      widths.push_back(c->wn + c->wp);
      caps.push_back(c->input_cap);
    }
    fit.gamma = fit_linear_zero_intercept(widths, caps).slope;
  }

  // Leakage: linear in device width per polarity.
  {
    Vector wn, psn, wp, psp;
    for (const RepeaterCell* c : inverters) {
      wn.push_back(c->wn);
      psn.push_back(c->leakage_nmos);
      wp.push_back(c->wp);
      psp.push_back(c->leakage_pmos);
    }
    const LinearFit n = fit_linear(wn, psn);
    const LinearFit p = fit_linear(wp, psp);
    fit.leakage.n0 = n.intercept;
    fit.leakage.n1 = n.slope;
    fit.leakage.p0 = p.intercept;
    fit.leakage.p1 = p.slope;
  }

  // Area: linear in NMOS width (paper §III-C, "existing technologies").
  {
    Vector wn, area;
    for (const RepeaterCell* c : inverters) {
      wn.push_back(c->wn);
      area.push_back(c->area);
    }
    const LinearFit a = fit_linear(wn, area);
    fit.area0 = a.intercept;
    fit.area1 = a.slope;
  }

  return fit;
}

}  // namespace pim
