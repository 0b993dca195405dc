// Fixed-step transient analysis with Newton iteration.
//
// Modified nodal analysis where voltage-source nodes are eliminated
// (their voltages are known at every time point), capacitors become
// trapezoidal companion models, and MOSFETs are Newton-linearized each
// iteration. The linear system is solved with a banded LU: the
// buffered-interconnect netlists this library builds number their nodes
// along the wire, so the band stays narrow (solver::kMaxHalfBandwidth).
// The batched engine rejects a wider circuit; only the scalar reference
// engine falls back to a dense LU, as the oracle for such circuits.
//
// A backward-Euler settling phase (inputs frozen at t = 0) runs before
// the main window so the circuit starts from its DC operating point; this
// replaces a separate DC solver and is unconditionally robust for the
// RC + CMOS circuits this library builds.
#pragma once

#include <utility>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/measure.hpp"

namespace pim {

/// Knobs for a transient run. Defaults suit repeater-scale circuits; the
/// sign-off analyzer overrides t_stop/dt per line length.
struct TransientOptions {
  double t_stop = 2e-9;       ///< end of the simulated window [s]
  double dt = 1e-12;          ///< fixed timestep [s]
  double t_settle = 2e-9;     ///< pre-roll to reach DC, inputs frozen at t=0 [s]
  int settle_steps = 400;     ///< steps across the settling pre-roll
};

/// Fixed Newton-solver settings, shared by both engines so the batched
/// engine stays bit-identical to the reference.
namespace solver {
/// Companion model of a window: the main window is trapezoidal, the
/// settling pre-roll backward Euler.
enum class Integrator { Trapezoidal, BackwardEuler };
inline constexpr int kMaxNewton = 60;         ///< iterations per step before retrying
inline constexpr double kVTol = 1e-6;         ///< convergence: max |dV| per iteration [V]
inline constexpr double kVStepLimit = 0.3;    ///< per-iteration voltage damping clamp [V]
/// A step whose Newton loop fails is re-run as two half-steps,
/// recursively, up to this many halvings (dt / 16) before the run
/// surfaces no_convergence.
inline constexpr int kMaxStepHalvings = 4;
/// Widest half-bandwidth the batched engine accepts. A 5-line coupled
/// bundle has 5 and a single line 1; run_transient_reference solves a
/// wider circuit with a dense LU.
inline constexpr size_t kMaxHalfBandwidth = 48;
}  // namespace solver

/// Per-source integrated quantities over the main window (not the
/// settling pre-roll), in vsource declaration order.
struct SourceTotals {
  double charge = 0.0;  ///< integral of delivered current [C]
  double energy = 0.0;  ///< integral of v * i [J]
};

/// Sampled node waveform.
struct Trace {
  NodeId node = 0;
  std::vector<double> values;  // one per time sample
};

/// Everything a transient run produces.
struct TransientResult {
  std::vector<double> time;         ///< sample times, t = 0 .. t_stop (or the stop sample)
  std::vector<Trace> traces;        ///< one per requested probe
  std::vector<SourceTotals> sources;///< per voltage source; empty for a run with a stop list

  /// The trace for `node`; throws pim::Error(bad_input) naming the node
  /// when it was not probed. Builds a sorted index on first use (and
  /// whenever `traces` changed size), so repeated measurement lookups on
  /// wide decks are O(log n) instead of a linear scan per call.
  const std::vector<double>& trace(NodeId node) const;

 private:
  mutable std::vector<std::pair<NodeId, size_t>> trace_index_;
};

/// Runs a transient analysis of `circuit`, recording the `probes` nodes.
/// Throws pim::Error(no_convergence) when a timestep still fails after
/// the halving retries, and pim::Error(bad_input) when the circuit's
/// half-bandwidth exceeds solver::kMaxHalfBandwidth.
TransientResult run_transient(const Circuit& circuit,
                              const TransientOptions& options,
                              const std::vector<NodeId>& probes);

/// Reference scalar implementation. run_transient() routes through the
/// batched SoA engine (spice/batch.hpp); this entry point keeps the
/// original element-by-element solver, whose output the batched engine is
/// required to reproduce bit-for-bit (tests/test_spice.cpp pins this, and
/// `pim_bench transient_kernel` re-asserts it on every benchmark run).
/// Unlike run_transient it accepts any bandwidth: above
/// solver::kMaxHalfBandwidth it solves with a dense LU.
///
/// Early exit (docs/kernels.md): with a non-empty `stop_after`, the run
/// ends at the first recorded sample where every listed crossing has
/// happened, so `time` and `traces` are a bit-identical prefix of the
/// full-window run, and it integrates no source totals (`sources` is
/// empty). A list that never completes runs the full window. While fault
/// injection is armed the run always goes the full window. A crossing on
/// a node outside the circuit, or at a non-finite level, is bad_input.
TransientResult run_transient_reference(const Circuit& circuit,
                                        const TransientOptions& options,
                                        const std::vector<NodeId>& probes,
                                        const std::vector<Crossing>& stop_after = {});

/// Whether every crossing of `stop_after` names a node below `node_count`
/// at a finite level: the check both engines apply to a stop list.
bool stop_after_is_valid(const std::vector<Crossing>& stop_after, size_t node_count);

}  // namespace pim
