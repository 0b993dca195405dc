#include "models/proposed.hpp"

#include <algorithm>

#include "cache/sha256.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "models/area.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pim {

ProposedModel::ProposedModel(const Technology& tech, TechnologyFit fit,
                             std::vector<cache::CacheKey> provenance)
    : tech_(&tech), fit_(std::move(fit)), provenance_(std::move(provenance)) {
  require(fit_.node == tech.node, "ProposedModel: fit/technology node mismatch");
  signature_ = "proposed/" + tech.name + "/" + cache::sha256_hex(write_fit(fit_));
}

LinkEstimate evaluate_link(const Technology& tech, const TechnologyFit& fit,
                           const LinkContext& ctx, const LinkDesign& design) {
  PIM_COUNT("model.link.evaluations");
  const LinkGeometry g(tech, ctx, design);
  const RepeaterSizing sz = repeater_sizing(tech, design.kind, design.drive);

  // Input-pin widths (the stage the wire actually drives): the output
  // stage for inverters, the quarter-size first stage for buffers.
  const double win_n = design.kind == CellKind::Inverter ? sz.wn_out : sz.wn_in;
  const double win_p = design.kind == CellKind::Inverter ? sz.wp_out : sz.wp_in;
  const double ci = fit.gamma * (win_n + win_p);

  const double mf = design.miller_factor;
  const CompositionWeights& comp = fit.composition(ctx.style);
  // Miller-weighted wire capacitance of one segment, and the effective
  // loads the calibrated composition applies to the two parts of the
  // drive resistance (see CompositionWeights).
  const double c_wire = g.seg_cap_ground + mf * g.seg_cap_couple_total;
  const double cl_rho0 = comp.kappa_c * c_wire + ci;
  const double cl_rho1 = comp.kappa_c1 * c_wire + ci;
  const double cl_slew = comp.kappa_c * c_wire + ci;  // load for the slew chain
  // Pamunuwa-form distributed wire delay for one segment, deweighted by
  // the calibrated composition factor.
  const double d_wire =
      comp.kappa_w * g.seg_res *
      (0.4 * g.seg_cap_ground + 0.5 * mf * g.seg_cap_couple_total + 0.7 * ci);

  LinkEstimate est;

  // Delay and slew, worst over the two launch polarities.
  double worst_delay = 0.0;
  double worst_out_slew = 0.0;
  for (const bool launch_rising : {true, false}) {
    double slew = ctx.input_slew;
    double total = 0.0;
    bool edge_rising = launch_rising;
    for (int k = 0; k < design.num_repeaters; ++k) {
      const bool out_rising =
          design.kind == CellKind::Inverter ? !edge_rising : edge_rising;
      const RepeaterEdgeFit& f = fit.edge_fit(design.kind, out_rising);
      const double wr = out_rising ? sz.wp_out : sz.wn_out;
      const double intrinsic = f.a0 + f.a1 * slew + f.a2 * slew * slew;
      const double d_repeater =
          intrinsic + (f.rho0 * cl_rho0 + f.rho1 * slew * cl_rho1) / wr;
      total += d_repeater + d_wire;
      slew = f.eval_out_slew(slew, cl_slew, wr);
      edge_rising = out_rising;
    }
    if (total > worst_delay) {
      worst_delay = total;
      worst_out_slew = slew;
    }
  }
  est.delay = worst_delay;
  est.output_slew = worst_out_slew;

  // Power (§III-C): every stage switches its input pin and its wire
  // segment; coupling counts fully (no Miller factor for energy).
  est.switched_cap = design.num_repeaters * ci +
                     ctx.length * (g.rc.cap_ground_per_m + 2.0 * g.rc.cap_couple_per_m);
  est.dynamic_power =
      ctx.activity * est.switched_cap * tech.vdd * tech.vdd * ctx.frequency;

  double leak_per_repeater = fit.leakage.eval_avg(sz.wn_out, sz.wp_out);
  if (design.kind == CellKind::Buffer)
    leak_per_repeater += fit.leakage.eval_avg(sz.wn_in, sz.wp_in);
  est.leakage_power = design.num_repeaters * leak_per_repeater;

  // Area (§III-C): regressed repeater area (per stage; buffers pay for
  // their first stage too) plus routed track area.
  double area_per_repeater = fit.area0 + fit.area1 * sz.wn_out;
  if (design.kind == CellKind::Buffer)
    area_per_repeater += fit.area0 + fit.area1 * sz.wn_in;
  est.repeater_area = design.num_repeaters * area_per_repeater;
  est.wire_area = bus_wire_area(tech, ctx.layer, ctx.style, 1, ctx.length);
  return est;
}

LinkEstimate ProposedModel::evaluate(const LinkContext& ctx,
                                     const LinkDesign& design) const {
  return evaluate_link(*tech_, fit_, ctx, design);
}

}  // namespace pim
