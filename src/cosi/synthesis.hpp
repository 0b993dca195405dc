// Constraint-driven NoC synthesis — the COSI-OCC substitute (see
// DESIGN.md substitutions).
//
// Algorithm:
//  1. Implementability bound: the longest wire that still meets the
//     per-hop delay budget under the chosen interconnect model.
//  2. Point-to-point construction: each flow gets a direct link when it
//     fits the bound, otherwise a chain of evenly spaced relay routers
//     (relay chains are shared by flows with identical endpoints).
//     Link bandwidth is capacity-checked; overflows spill into parallel
//     links.
//  3. Greedy cost-driven merging: nearby router pairs are tentatively
//     merged (rewire + deduplicate + re-implement); the merge with the
//     best total-power improvement is committed, until no merge helps.
//     Merges that violate the delay budget, port cap, or capacity are
//     rejected.
//
// Everything the optimization "sees" comes from the InterconnectModel it
// was handed — running the same spec through the original (Bakoglu) and
// the proposed model is exactly the paper's Table III experiment.
#pragma once

#include "cosi/architecture.hpp"

namespace pim {

/// Synthesis knobs.
struct NocSynthesisOptions {
  /// Per-hop delay budget as a fraction of the clock period. The wire
  /// gets half a cycle; router traversal and synchronization consume the
  /// rest.
  double delay_budget_fraction = 0.5;
  /// Links may be filled to this fraction of raw capacity.
  double capacity_fraction = 0.75;
  /// Router pairs farther apart than this are never merged [m].
  double merge_radius = 2.0e-3;
  /// Safety cap on merge iterations.
  int max_merges = 500;
  /// Wire/link environment. When explore_layers is set the per-link
  /// optimizer may also route on the intermediate layer (cheaper tracks,
  /// higher resistance — attractive for short hops).
  WireLayer layer = WireLayer::Global;
  bool explore_layers = false;
  DesignStyle style = DesignStyle::SingleSpacing;
  double input_slew = 100e-12;
  /// Buffering search preferences (max_delay is overridden by the
  /// budget). NoC links default to a balanced delay-power objective —
  /// the synthesizer minimizes power subject to the timing constraint.
  BufferingOptions buffering = [] {
    BufferingOptions balanced;
    balanced.weight = 0.5;
    return balanced;
  }();
};

/// Result bundle: the architecture plus the implementer used to build it
/// (kept so metrics can be evaluated consistently afterwards).
struct NocSynthesisResult {
  NocArchitecture architecture;
  LinkContext base_context;   ///< context links were implemented under
  double delay_budget = 0.0;  ///< absolute per-hop budget [s]
  double clock_frequency = 0.0;
  NocMetrics metrics;         ///< metrics under the synthesis model
  int merges_applied = 0;
  /// True when a deadline/cancel stop ended the optimization early: the
  /// architecture is the best feasible sizing found before the budget
  /// expired (every committed merge had been fully assessed), not the
  /// converged optimum.
  bool partial = false;
};

/// Synthesizes a NoC for `spec` using `model`'s view of link cost.
NocSynthesisResult synthesize_noc(const SocSpec& spec, const InterconnectModel& model,
                                  const NocSynthesisOptions& options = {});

}  // namespace pim
