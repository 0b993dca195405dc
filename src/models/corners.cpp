#include "models/corners.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pim {

CornerModelSet::CornerModelSet(std::vector<CornerModel> models)
    : models_(std::move(models)) {
  require(!models_.empty(), "CornerModelSet: needs at least one corner",
          ErrorCode::bad_input);
}

WorstCornerModel::WorstCornerModel(CornerModelSet set) : set_(std::move(set)) {
  signature_ = "worst(";
  for (const CornerModel& m : set_.models()) {
    if (signature_.back() != '(') signature_ += ',';
    signature_ += m.corner.name + "=" + m.model->cache_signature();
  }
  signature_ += ')';
}

std::vector<cache::CacheKey> WorstCornerModel::provenance() const {
  std::vector<cache::CacheKey> keys;
  for (const CornerModel& m : set_.models())
    for (cache::CacheKey& key : m.model->provenance()) keys.push_back(std::move(key));
  return keys;
}

LinkEstimate WorstCornerModel::evaluate(const LinkContext& context,
                                        const LinkDesign& design) const {
  LinkEstimate worst;
  bool first = true;
  for (const CornerModel& m : set_.models()) {
    const LinkEstimate e = m.model->evaluate(context, design);
    if (first) {
      worst = e;
      first = false;
      continue;
    }
    worst.delay = std::max(worst.delay, e.delay);
    worst.output_slew = std::max(worst.output_slew, e.output_slew);
    worst.switched_cap = std::max(worst.switched_cap, e.switched_cap);
    worst.dynamic_power = std::max(worst.dynamic_power, e.dynamic_power);
    worst.leakage_power = std::max(worst.leakage_power, e.leakage_power);
    // Area stays the reference corner's: layout does not vary with process.
  }
  return worst;
}

}  // namespace pim
