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

#include "charlib/fit.hpp"
#include "models/model.hpp"

namespace pim {

/// The paper's closed-form link evaluation as a free function over raw
/// (technology, fit) coefficients. ProposedModel::evaluate forwards
/// here; Monte-Carlo sampling calls it directly on perturbed fit copies
/// so the hot loop skips per-sample model construction — a ProposedModel
/// hashes its serialized fit (SHA-256) into a cache signature on
/// construction, which costs orders of magnitude more than one
/// evaluation.
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
