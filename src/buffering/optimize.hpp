// Buffering optimization (paper §III-D): exhaustive search over repeater
// count and size minimizing a weighted delay-power objective.
//
// The objective is the scale-free weighted product
//     cost = delay^weight * power^(1 - weight)
// (weight = 1 -> delay-optimal buffering, which the paper notes yields
// impractically large repeaters; weight < 1 trades delay for power).
// Optionally the staggered variant (Miller factor 0) is explored, and
// hard delay/slew constraints can gate feasibility — that is how the NoC
// synthesizer asks "can a wire of this length run at this clock?".
#pragma once

#include <limits>
#include <vector>

#include "models/model.hpp"

namespace pim {

/// Search space and objective for one buffering run.
struct BufferingOptions {
  /// Delay emphasis in [0, 1]: cost = delay^w * power^(1-w).
  double weight = 1.0;
  /// Repeater kinds to try.
  std::vector<CellKind> kinds = {CellKind::Inverter, CellKind::Buffer};
  /// Drive strengths to try; empty = standard_drive_strengths().
  std::vector<int> drives;
  /// Also try staggered insertion (Miller factor 0)?
  bool try_staggered = false;
  /// Miller factor for the non-staggered candidates.
  double miller_factor = kWorstCaseMiller;
  /// Routing layers to explore; empty = keep the context's layer.
  std::vector<WireLayer> layers;
  /// Hard constraints; candidates violating them are infeasible.
  double max_delay = std::numeric_limits<double>::infinity();
  double max_output_slew = std::numeric_limits<double>::infinity();
  /// Cap on repeater count (0 = automatic from the line length).
  int max_repeaters = 0;
};

/// Outcome of a buffering search.
struct BufferingResult {
  bool feasible = false;     ///< some candidate met the constraints
  LinkDesign design;         ///< best candidate (by cost among feasible)
  WireLayer layer = WireLayer::Global;  ///< routing layer of the winner
  LinkEstimate estimate;     ///< the model's estimate for it
  double cost = 0.0;
  long evaluations = 0;      ///< model invocations spent
};

/// Result-cache payload binding (cache/memoize.hpp), in payload order.
template <typename B>
void bind(B& b, BufferingResult& v) {
  b.field("feasible", v.feasible);
  b.field("kind", v.design.kind);
  b.field("drive", v.design.drive);
  b.field("repeaters", v.design.num_repeaters);
  b.field("miller", v.design.miller_factor);
  b.field("layer", v.layer);
  b.field("cost", v.cost);
  b.field("evaluations", v.evaluations);
  b.field("delay", v.estimate.delay);
  b.field("output_slew", v.estimate.output_slew);
  b.field("switched_cap", v.estimate.switched_cap);
  b.field("dynamic_power", v.estimate.dynamic_power);
  b.field("leakage_power", v.estimate.leakage_power);
  b.field("repeater_area", v.estimate.repeater_area);
  b.field("wire_area", v.estimate.wire_area);
}

/// Exhaustive (kind x drive x staggering) search with a scan over the
/// repeater count for each combination.
BufferingResult optimize_buffering(const InterconnectModel& model,
                                   const LinkContext& context,
                                   const BufferingOptions& options = {});

/// optimize_buffering fronted by the content-addressed result cache
/// (docs/caching.md): keyed by the model's cache_signature(), the full
/// context, and every search option, so a hit is bit-identical to the
/// search it replaces. Falls through to the direct search when the model
/// opts out of caching (empty signature) or the cache mode is off; a
/// corrupt entry recomputes (fail-open). NoC synthesis routes every
/// per-link implementation through this, which is what lets merge trials
/// reuse results across runs and across processes.
BufferingResult optimize_buffering_cached(const InterconnectModel& model,
                                          const LinkContext& context,
                                          const BufferingOptions& options = {});

}  // namespace pim
