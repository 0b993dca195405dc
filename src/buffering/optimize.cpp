#include "buffering/optimize.hpp"

#include <algorithm>
#include <cmath>

#include "cache/memoize.hpp"
#include "liberty/library.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

double candidate_cost(const LinkEstimate& est, double weight) {
  return std::pow(est.delay, weight) * std::pow(est.total_power(), 1.0 - weight);
}

bool meets_constraints(const LinkEstimate& est, const BufferingOptions& opt) {
  return est.delay <= opt.max_delay && est.output_slew <= opt.max_output_slew;
}

}  // namespace

BufferingResult optimize_buffering(const InterconnectModel& model,
                                   const LinkContext& ctx,
                                   const BufferingOptions& options) {
  require(options.weight >= 0.0 && options.weight <= 1.0,
          "optimize_buffering: weight must be in [0, 1]");
  const std::vector<int>& drives =
      options.drives.empty() ? standard_drive_strengths() : options.drives;
  require(!drives.empty() && !options.kinds.empty(),
          "optimize_buffering: empty search space");

  // Repeater-count ceiling: global repeaters are never packed denser than
  // a few per quarter millimeter; scanning to 4/ctx-length covers every
  // sane optimum while keeping the search exhaustive in practice.
  int n_max = options.max_repeaters;
  if (n_max <= 0)
    n_max = std::max(2, static_cast<int>(std::ceil(ctx.length / (0.25 * unit::mm))));

  std::vector<double> millers = {options.miller_factor};
  if (options.try_staggered) millers.push_back(0.0);
  std::vector<WireLayer> layers =
      options.layers.empty() ? std::vector<WireLayer>{ctx.layer} : options.layers;

  BufferingResult best;
  best.layer = layers.front();
  best.cost = std::numeric_limits<double>::infinity();
  for (WireLayer layer : layers) {
    LinkContext layer_ctx = ctx;
    layer_ctx.layer = layer;
    for (CellKind kind : options.kinds) {
      for (int drive : drives) {
        for (double mf : millers) {
          for (int n = 1; n <= n_max; ++n) {
            LinkDesign design;
            design.kind = kind;
            design.drive = drive;
            design.num_repeaters = n;
            design.miller_factor = mf;
            const LinkEstimate est = model.evaluate(layer_ctx, design);
            ++best.evaluations;
            if (!meets_constraints(est, options)) continue;
            const double cost = candidate_cost(est, options.weight);
            if (cost < best.cost) {
              best.cost = cost;
              best.design = design;
              best.layer = layer;
              best.estimate = est;
              best.feasible = true;
            }
          }
        }
      }
    }
  }
  PIM_COUNT("buffering.search.runs");
  PIM_COUNT_N("buffering.search.evaluations", best.evaluations);
  return best;
}

namespace {

cache::CacheKey buffering_cache_key(const InterconnectModel& model,
                                    const LinkContext& ctx,
                                    const BufferingOptions& opt) {
  std::vector<int> kinds;
  for (CellKind k : opt.kinds) kinds.push_back(static_cast<int>(k));
  std::vector<int> layers;
  for (WireLayer l : opt.layers) layers.push_back(static_cast<int>(l));
  cache::KeyBuilder kb("buffering");
  kb.model(model.cache_signature(), model.provenance());
  key_link_context(kb, ctx);
  kb.field("opt.weight", opt.weight);
  kb.field("opt.kinds", kinds);
  kb.field("opt.drives", opt.drives);
  kb.field("opt.try_staggered", opt.try_staggered);
  kb.field("opt.miller_factor", opt.miller_factor);
  kb.field("opt.layers", layers);
  kb.field("opt.max_delay", opt.max_delay);
  kb.field("opt.max_output_slew", opt.max_output_slew);
  kb.field("opt.max_repeaters", opt.max_repeaters);
  return kb.finish();
}

}  // namespace

BufferingResult optimize_buffering_cached(const InterconnectModel& model,
                                          const LinkContext& ctx,
                                          const BufferingOptions& options) {
  if (model.cache_signature().empty()) return optimize_buffering(model, ctx, options);
  return cache::memoize<BufferingResult>(
      [&] { return buffering_cache_key(model, ctx, options); },
      [&] { return optimize_buffering(model, ctx, options); });
}

}  // namespace pim
