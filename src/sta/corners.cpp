#include "sta/corners.hpp"

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
  // scope absorbs the fit key resident_model publishes, so an item run on
  // the caller's thread adds no edge to the caller's scope.
  return exec::parallel_map<CornerModel>(corners.size(), [&](size_t i) {
    const cache::Tracked scope;
    return CornerModel{corners[i], resident_model(base, corners[i], cache_path,
                                                  characterization, composition)};
  });
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
    const LinkEstimate e = m.model->evaluate(context, design);
    CornerTiming row;
    row.corner = m.corner;
    row.delay = e.delay;
    row.output_slew = e.output_slew;
    row.slack = result.target_period - e.delay;
    row.noise_peak =
        noise_peak_model(m.model->tech(), m.model->fit(), context, design, options.kappa_n);
    if (result.corners.empty() || row.slack < result.worst().slack)
      result.worst_index = result.corners.size();
    result.corners.push_back(row);
  }
  return result;
}

}  // namespace pim
