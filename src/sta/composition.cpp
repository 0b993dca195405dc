#include "sta/composition.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "charlib/characterize.hpp"
#include "exec/engine.hpp"
#include "numeric/leastsq.hpp"
#include "numeric/regression.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pim {
namespace {

// One training configuration with its golden measurement.
struct Sample {
  LinkContext ctx;
  LinkDesign design;
  double golden = 0.0;
  double ci = 0.0;
  double c_wire = 0.0;  // Miller-weighted wire capacitance of one segment
  double d_pam = 0.0;   // Pamunuwa wire term of one segment
  double wr = 0.0;      // NMOS width (fall-edge symmetric device)
};

// Appends the training configurations of one style class to `samples`,
// golden delays still unset.
void add_training_set(const Technology& tech, const TechnologyFit& fit, DesignStyle style,
                      const CompositionOptions& options, std::vector<Sample>& samples) {
  for (int drive : options.drives) {
    const RepeaterSizing sz = repeater_sizing(tech, CellKind::Inverter, drive);
    for (double seg : options.segment_lengths) {
      for (double slew : options.input_slews) {
        for (int n : options.chain_lengths) {
          Sample s;
          s.ctx.layer = options.layer;
          s.ctx.style = style;
          s.ctx.length = seg * n;
          s.ctx.input_slew = slew;
          s.design.kind = CellKind::Inverter;
          s.design.drive = drive;
          s.design.num_repeaters = n;

          const LinkGeometry g(tech, s.ctx, s.design);
          s.ci = fit.gamma * (sz.wn_out + sz.wp_out);
          s.c_wire = g.seg_cap_ground + s.design.miller_factor * g.seg_cap_couple_total;
          s.d_pam = g.seg_res *
                    (0.4 * g.seg_cap_ground +
                     0.5 * s.design.miller_factor * g.seg_cap_couple_total + 0.7 * s.ci);
          s.wr = sz.wn_out;
          samples.push_back(s);
        }
      }
    }
  }
}

// Fits the two weights of one style class against its golden chains. The
// model's inter-stage slew depends on kappa_c (through the stage load),
// so the linear least squares is wrapped in a short fixed-point
// iteration: compute the slew chain with the current weights, refit,
// repeat. Training on multi-stage chains (not just single stages) lets
// the weights absorb the waveform-shape error an NLDM-style slew metric
// cannot see (the long RC tail a real driven wire hands the next stage).
CompositionWeights fit_style_class(const TechnologyFit& fit,
                                   std::span<const Sample> samples) {
  const RepeaterEdgeFit& f = fit.edge_fit(CellKind::Inverter, false);
  require(samples.size() >= 3, "calibrate_composition: training set too small");

  CompositionWeights w;  // start from the paper's raw composition (1, 1, 1)
  Vector predicted(samples.size());
  Vector y(samples.size());
  for (int iteration = 0; iteration < 3; ++iteration) {
    Matrix a(samples.size(), 3);
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      // Rows are scaled by 1/golden so the regression minimizes RELATIVE
      // error: short and long configurations count equally.
      const double scale = 1.0 / s.golden;
      // Slew chain under the current kappa_c.
      double slew = s.ctx.input_slew;
      double sum_i = 0.0;
      double sum_rd_ci = 0.0;
      double sum_rho0_cw = 0.0;  // slew-independent driver-wire interaction
      double sum_rho1_cw = 0.0;  // slew-dependent driver-wire interaction
      for (int k = 0; k < s.design.num_repeaters; ++k) {
        const double rd = f.drive_resistance(slew, s.wr);
        sum_i += f.a0 + f.a1 * slew + f.a2 * slew * slew;
        sum_rd_ci += rd * s.ci;
        sum_rho0_cw += f.rho0 / s.wr * s.c_wire;
        sum_rho1_cw += f.rho1 * slew / s.wr * s.c_wire;
        slew = f.eval_out_slew(slew, w.kappa_c * s.c_wire + s.ci, s.wr);
      }
      a(i, 0) = scale * sum_rho0_cw;
      a(i, 1) = scale * sum_rho1_cw;
      a(i, 2) = scale * s.design.num_repeaters * s.d_pam;
      y[i] = scale * (s.golden - sum_i - sum_rd_ci);
    }
    // Ridge-regularized toward the paper's raw composition (all weights
    // 1): the three predictors are strongly collinear across realistic
    // training sets, and an unregularized solve produces weight triples
    // that fit the training chains but extrapolate poorly to the design
    // points an optimizer later visits.
    const double lambda = 0.2;
    Matrix a_ridge(samples.size() + 3, 3);
    Vector y_ridge(samples.size() + 3);
    // Column scales so the ridge penalty is dimensionless.
    double col_scale[3] = {0.0, 0.0, 0.0};
    for (size_t i = 0; i < samples.size(); ++i)
      for (int c = 0; c < 3; ++c) col_scale[c] += a(i, c) * a(i, c);
    for (int c = 0; c < 3; ++c)
      col_scale[c] = std::sqrt(col_scale[c] / samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      for (int c = 0; c < 3; ++c) a_ridge(i, c) = a(i, c);
      y_ridge[i] = y[i];
    }
    for (int c = 0; c < 3; ++c) {
      a_ridge(samples.size() + c, static_cast<size_t>(c)) = lambda * col_scale[c];
      y_ridge[samples.size() + c] = lambda * col_scale[c] * 1.0;  // prior: weight 1
    }
    const Vector k = least_squares(a_ridge, y_ridge);
    // Physical bounds: every weight is a correction around the paper's
    // raw composition, so values far from 1 signal a degenerate solve
    // (collinear training set), not physics.
    auto bound = [](double v) { return std::clamp(v, 0.2, 2.0); };
    w.kappa_c = bound(k[0]);
    w.kappa_c1 = bound(k[1]);
    w.kappa_w = bound(k[2]);
    for (size_t i = 0; i < samples.size(); ++i)
      predicted[i] =
          w.kappa_c * a(i, 0) + w.kappa_c1 * a(i, 1) + w.kappa_w * a(i, 2);
  }
  // Residuals of the 1/golden-scaled rows ARE relative delay errors of
  // the whole chain, so the worst one is the directly meaningful quality
  // metric.
  double worst = 0.0;
  for (size_t i = 0; i < samples.size(); ++i)
    worst = std::max(worst, std::fabs(predicted[i] - y[i]));
  w.worst_rel_error = worst;
  return w;
}

}  // namespace

TechnologyFit calibrate_composition(const Technology& tech, TechnologyFit fit,
                                    const CompositionOptions& options) {
  PIM_OBS_SPAN("sta.composition.calibrate");
  std::vector<Sample> samples;
  add_training_set(tech, fit, DesignStyle::SingleSpacing, options, samples);
  const size_t coupled = samples.size();
  add_training_set(tech, fit, DesignStyle::Shielded, options, samples);

  // Every golden simulation of both classes is one parallel region. The
  // coupled five-line bundles come first: they cost up to ten times a
  // shielded line, and the engine hands out ascending blocks, so the
  // cheap shielded jobs fill in behind them. Each configuration is
  // index-pure, so the goldens are bit-identical at any thread count.
  const std::vector<double> golden = exec::parallel_map<double>(samples.size(), [&](size_t i) {
    PIM_COUNT("sta.composition.golden");
    return signoff_link(tech, samples[i].ctx, samples[i].design, options.signoff).delay;
  });
  for (size_t i = 0; i < samples.size(); ++i) samples[i].golden = golden[i];

  const std::span<const Sample> all(samples);
  fit.comp_coupled = fit_style_class(fit, all.first(coupled));
  fit.comp_shielded = fit_style_class(fit, all.subspan(coupled));
  return fit;
}

}  // namespace pim
