// Corner-indexed models: the scenario layer's face inside pim::models.
//
// A CornerModelSet binds one ProposedModel per corner, each against the
// registry-stable derated technology (tech::corner_technology), so every
// downstream consumer written for the InterconnectModel interface can be
// pointed at a specific corner. WorstCornerModel folds a whole set back
// into that same interface by reporting the per-metric worst case, which
// is what predictable synthesis sizes against: a link that closes under
// WorstCornerModel closes at every corner of the set.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "charlib/fit.hpp"
#include "models/proposed.hpp"

namespace pim {

/// One corner's calibrated model, shared with the resident tier
/// (sta/calibrated.hpp's resident_model).
struct CornerModel {
  Corner corner;
  std::shared_ptr<const ProposedModel> model;
};

/// A corner-indexed model set, each model bound to
/// corner_technology(base, corner) (sta/corners.hpp's corner_models
/// builds one). Order follows the input; by convention the first entry
/// is the reference (nominal) corner.
class CornerModelSet {
 public:
  explicit CornerModelSet(std::vector<CornerModel> models);

  const std::vector<CornerModel>& models() const { return models_; }
  size_t size() const { return models_.size(); }

 private:
  std::vector<CornerModel> models_;
};

/// Per-metric worst case over a corner set, presented as a plain
/// InterconnectModel. Delay, slew, and the power/capacitance terms each
/// take their maximum over the corners (deliberately pessimistic — the
/// slow corner dominates delay while the fast corner dominates leakage);
/// area comes from the reference corner, since layout does not vary with
/// process. tech() reports the reference corner's descriptor.
class WorstCornerModel final : public InterconnectModel {
 public:
  explicit WorstCornerModel(CornerModelSet set);

  const std::string& name() const override { return name_; }
  const Technology& tech() const override { return set_.models().front().model->tech(); }
  const CornerModelSet& corners() const { return set_; }

  LinkEstimate evaluate(const LinkContext& context,
                        const LinkDesign& design) const override;

  /// "worst(<corner>=<sig>,...)" over the member signatures, so two sets
  /// share cached results exactly when every per-corner model does.
  std::string cache_signature() const override { return signature_; }

  /// Every corner model's fit keys, in set order.
  std::vector<cache::CacheKey> provenance() const override;

 private:
  CornerModelSet set_;
  std::string name_ = "proposed@worst";
  std::string signature_;
};

}  // namespace pim
