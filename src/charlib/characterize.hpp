// Cell characterization: builds NLDM tables, input capacitance, leakage,
// and area for repeater cells by driving transistor-level simulations —
// the library's substitute for running HSPICE against a foundry deck
// (paper §III-E: "the required data set ... can be generated using SPICE
// simulations").
//
// Measurement setup per operating point: the cell input is driven by an
// ideal saturated ramp of the requested slew, a lumped capacitor loads the
// output, and the 50 % delay plus 20-80 % output slew (scaled to
// full-swing) are extracted. Input capacitance is measured as the charge
// the input source delivers across a full swing divided by vdd; leakage
// comes from the device off-current at each static state; area from the
// finger-quantized layout model (paper §III-C).
//
// The (slew x load) deck sweep fans out over the pim::exec engine —
// tables are bit-identical at any --threads count (docs/parallelism.md).
#pragma once

#include "liberty/library.hpp"
#include "tech/technology.hpp"

namespace pim {

/// Sweep axes and simulation controls for characterization.
struct CharacterizationOptions {
  /// Input-slew samples [s]. Defaults span the regime global repeaters see.
  Vector slew_axis = {10e-12, 50e-12, 120e-12, 250e-12, 400e-12};
  /// Load samples expressed as multiples of the cell's own input
  /// capacitance (fanout); converted to farads per cell.
  Vector fanout_axis = {1.0, 4.0, 10.0, 25.0};
  /// Drive strengths to characterize; empty = standard_drive_strengths().
  std::vector<int> drives;
  /// Kinds to characterize.
  bool inverters = true;
  bool buffers = true;
  /// Simulation resolution: timestep ceiling [s].
  double dt_max = 1e-12;
  /// Graceful-degradation quorum: a (slew x load) sweep whose surviving
  /// fraction of points drops below this fails with no_convergence;
  /// above it, failed points are skipped, recorded in the
  /// "charlib.deck.error" counter, and patched from their nearest
  /// surviving neighbor so the downstream fits stay well-posed.
  double sweep_quorum = 0.7;
  /// Use the scalar reference transient engine (one netlist build and
  /// solve per table point) instead of the compiled-plan batched path.
  /// The tables are bit-identical either way (docs/kernels.md); this
  /// exists for A/B verification and as the charlib_sweep benchmark
  /// baseline.
  bool reference_engine = false;


  bool operator==(const CharacterizationOptions&) const = default;
};

/// Widths of the devices making up one repeater cell. For inverters only
/// the output stage exists; buffers have a first (input) stage a quarter
/// of the output stage's size (minimum one unit).
struct RepeaterSizing {
  double wn_out = 0.0;
  double wp_out = 0.0;
  double wn_in = 0.0;  ///< 0 for inverters
  double wp_in = 0.0;  ///< 0 for inverters
};

/// Device sizing for a cell of the given kind/drive in `tech`.
RepeaterSizing repeater_sizing(const Technology& tech, CellKind kind, int drive);

/// Layout ("golden") cell area from the finger-quantization model: the
/// staircase this produces is what the paper's linear area regression
/// approximates to within a few percent.
double golden_cell_area(const Technology& tech, double wn, double wp);

/// Characterizes one cell: fills both timing tables, input cap, leakage,
/// and area.
RepeaterCell characterize_cell(const Technology& tech, CellKind kind, int drive,
                               const CharacterizationOptions& options = {});

/// Characterizes a whole library for `tech`.
CellLibrary characterize_library(const Technology& tech,
                                 const CharacterizationOptions& options = {});

}  // namespace pim
