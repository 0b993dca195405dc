// Lockstep batched transient engine.
//
// run_transient_batch() runs N parameter-perturbed lanes (variants) of
// the same compiled deck in lockstep: all lanes share one read-only
// CompiledCircuit, advance through the same time grid together, evaluate
// their devices through kernels::eval_alpha_power_batch each Newton
// iteration (skipping a device's transcendental chain while the bits of
// its vgt repeat: the device bypass of docs/kernels.md), and assemble,
// factor and solve their linear systems in one lane-interleaved
// BandedCohort store (numeric/banded.hpp). Each lane
// keeps its own voltages, companion state and column of that store, so
// lanes are numerically independent: a lane that fails (Newton
// divergence, NaN poisoning, singular system) carries a typed error while
// its siblings run to completion.
//
// A lane may name the crossings its caller will measure
// (LaneSpec::stop_after); it then ends at the first sample where all of
// them have happened and leaves the cohort (the early exit of
// docs/kernels.md). The cohort's step loop ends when no live lane
// remains.
//
// Determinism contract (docs/kernels.md): a single nominal lane is
// bit-identical to the original scalar solver (run_transient_reference),
// and every lane is bit-identical to a scalar run of the same perturbed
// circuit with the same stop list — lane results never depend on batch
// composition or thread count. A stopped lane's time and traces are a
// bit-identical prefix of its full-window run. The engine does not poll
// deadlines itself: production batches run inside pim::exec items, which
// poll once per item.
#pragma once

#include <vector>

#include "spice/plan.hpp"
#include "spice/transient.hpp"
#include "util/expected.hpp"

namespace pim {

/// One lane = the compiled base deck plus value overrides. Indices refer
/// to the netlist's element creation order (the plan preserves it).
/// Widths must stay positive; a lane with an out-of-range index or a
/// non-positive width fails typed (bad_input) without touching siblings.
struct LaneSpec {
  std::vector<std::pair<size_t, double>> cap_farads;     ///< capacitor index -> F
  std::vector<std::pair<size_t, double>> mosfet_width;   ///< mosfet index -> m
  std::vector<std::pair<size_t, Waveform>> vsource_wave; ///< vsource index -> wave
  /// Crossings the caller will measure on this lane. Non-empty: the lane
  /// ends at the first sample where all of them have happened (unless
  /// fault injection is armed) and integrates no source totals, so its
  /// `sources` is empty; it still counts as a completed run. A crossing
  /// on a node outside the plan, or at a non-finite level, fails the lane
  /// typed (bad_input).
  std::vector<Crossing> stop_after;
};

/// Runs every lane of `lanes` over the shared `plan`. Element i of the
/// result holds lane i's result or its typed error.
std::vector<Expected<TransientResult>> run_transient_batch(
    const CompiledCircuit& plan, const TransientOptions& options,
    const std::vector<NodeId>& probes, const std::vector<LaneSpec>& lanes);

}  // namespace pim
