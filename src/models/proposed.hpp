// The paper's proposed predictive model (§III), assembled from the
// regression-fitted coefficients of pim::charlib:
//
//   stage delay  = i(s) + rd(s, w_r) * c_l            (repeater, §III-A)
//                + r_w (0.4 c_g + (xi/2) c_c + 0.7 c_i)  (wire, §III-B)
//   slew chains through s_o = b0 + b1 s + b2 c_l / w_r,
//   wire resistance includes scattering + barrier corrections,
//   power = leakage (linear-in-width fits) + alpha C V^2 f with
//   C = c_i + c_g + c_c (§III-C),
//   area = regressed repeater area + bus track area (§III-C).
//
// The chain is evaluated for both launch polarities (an inverter chain
// alternates rise/fall) and the worst case is reported, matching how a
// sign-off timer would be queried.
#pragma once

#include "charlib/characterize.hpp"
#include "charlib/fit.hpp"
#include "models/model.hpp"

namespace pim {

/// The sample-independent half of the paper's closed-form link
/// evaluation, for one (technology, context, design): the argument checks,
/// the scale-free wire basis, the repeater sizing and the routed track
/// area. A Monte-Carlo run builds one before its sample loop; each sample
/// then pays only for the step (evaluate_link over the frame).
struct LinkFrame {
  LinkFrame(const Technology& tech, const LinkContext& context, const LinkDesign& design);

  /// The segment parasitics at the context's wire scales times
  /// `res_mult` and `cap_mult`.
  LinkGeometry geometry(double res_mult = 1.0, double cap_mult = 1.0) const;

  double vdd = 0.0;
  LinkContext context;
  LinkDesign design;
  WireRcBasis wire;
  RepeaterSizing sizing;
  double wire_area = 0.0;  ///< bus_wire_area of one bit [m^2]
};

/// What every stage of one step sees: the input-pin capacitance the wire
/// drives, the effective loads of the two drive-resistance terms and of
/// the slew chain (CompositionWeights), and the distributed delay of one
/// wire segment.
struct StageLoads {
  StageLoads(const TechnologyFit& fit, const LinkFrame& frame, const LinkGeometry& g);

  double ci = 0.0;
  double cl_rho0 = 0.0;
  double cl_rho1 = 0.0;
  double cl_slew = 0.0;
  double d_wire = 0.0;
};

/// The per-sample step: scales the frame's wire by `res_mult`/`cap_mult`
/// on top of the context's scales, then runs the chain on `fit`.
/// Monte-Carlo sampling calls it on perturbed fit copies, so the hot loop
/// also skips model construction — a ProposedModel hashes its serialized
/// fit (SHA-256) into a cache signature, which costs orders of magnitude
/// more than one evaluation.
LinkEstimate evaluate_link(const TechnologyFit& fit, const LinkFrame& frame,
                           double res_mult = 1.0, double cap_mult = 1.0);

/// The paper's closed-form link evaluation as a free function over raw
/// (technology, fit) coefficients: a frame, then one step.
/// ProposedModel::evaluate forwards here.
LinkEstimate evaluate_link(const Technology& tech, const TechnologyFit& fit,
                           const LinkContext& context, const LinkDesign& design);

class ProposedModel final : public InterconnectModel {
 public:
  /// Binds the model to a technology and its fitted coefficients (the
  /// fit must have been produced for the same node). `provenance` holds
  /// the keys of the cached fit artifacts the coefficients came from
  /// (empty for a hand-built or file-loaded fit with no cache identity).
  ProposedModel(const Technology& tech, TechnologyFit fit,
                std::vector<cache::CacheKey> provenance = {});

  const std::string& name() const override { return name_; }
  const Technology& tech() const override { return *tech_; }
  const TechnologyFit& fit() const { return fit_; }

  LinkEstimate evaluate(const LinkContext& context,
                        const LinkDesign& design) const override;

  /// "proposed/<tech>/<sha256 of the serialized fit>" — two instances
  /// share cached results exactly when their coefficients are
  /// bit-identical.
  std::string cache_signature() const override { return signature_; }

  std::vector<cache::CacheKey> provenance() const override { return provenance_; }

 private:
  const Technology* tech_;
  TechnologyFit fit_;
  std::vector<cache::CacheKey> provenance_;
  std::string name_ = "proposed";
  std::string signature_;
};

}  // namespace pim
