#include "sta/corners.hpp"

#include <utility>

#include "cache/manifest.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "sta/noise.hpp"
#include "util/error.hpp"

namespace pim {

std::vector<CornerModel> corner_models(
    const Technology& base, const std::vector<Corner>& corners,
    const std::string& cache_path, const CharacterizationOptions& characterization,
    const CompositionOptions& composition) {
  require(!corners.empty(), "corner_models: needs at least one corner",
          ErrorCode::bad_input);
  // Corner-level fan-out; the per-corner deck sweeps inside
  // characterize_library detect the nested region and run inline, so the
  // pool is never re-entered. Fail-fast: a corner that cannot be fitted
  // is a real error, not a degradable sample. Each item's own provenance
  // scope captures the fit key calibrated_fit publishes, whichever
  // worker runs it.
  using KeyedFit = std::pair<TechnologyFit, std::vector<cache::CacheKey>>;
  std::vector<KeyedFit> fits = exec::parallel_map<KeyedFit>(corners.size(), [&](size_t i) {
    const cache::Tracked scope;
    TechnologyFit fit =
        calibrated_fit(base, corners[i], cache_path, characterization, composition);
    return KeyedFit{std::move(fit), scope.upstream_keys()};
  });
  std::vector<CornerModel> out;
  out.reserve(corners.size());
  for (size_t i = 0; i < corners.size(); ++i)
    out.push_back({corners[i], ProposedModel(corner_technology(base, corners[i]),
                                             std::move(fits[i].first),
                                             std::move(fits[i].second))});
  return out;
}

CornerSignoffResult signoff_corners(const CornerModelSet& set,
                                    const LinkContext& context,
                                    const LinkDesign& design,
                                    const CornerSignoffOptions& options) {
  CornerSignoffResult result;
  result.target_period =
      options.target_period > 0.0 ? options.target_period : 1.0 / context.frequency;
  result.corners.reserve(set.size());
  for (const CornerModel& m : set.models()) {
    obs::registry().counter("corner." + m.corner.name + ".signoff").add(1);
    const LinkEstimate e = m.model.evaluate(context, design);
    CornerTiming row;
    row.corner = m.corner;
    row.delay = e.delay;
    row.output_slew = e.output_slew;
    row.slack = result.target_period - e.delay;
    row.noise_peak =
        noise_peak_model(m.model.tech(), m.model.fit(), context, design, options.kappa_n);
    if (result.corners.empty() || row.slack < result.worst().slack)
      result.worst_index = result.corners.size();
    result.corners.push_back(row);
  }
  return result;
}

}  // namespace pim
