// Compile-once execution plan for the batched transient engine.
//
// A Circuit is compiled exactly once per topology into flat
// structure-of-arrays device data (DeviceArrays: folded alpha-power
// parameters per MOSFET) and a StampPlan (per-terminal unknown indices
// and precomputed matrix slots / RHS routes for every conductance stamp).
// The batch engine (spice/batch.hpp) then re-stamps values through the
// plan every Newton iteration without touching the netlist again, and
// many parameter-perturbed lanes of the same deck share one plan
// read-only — the plan is immutable after compile() and safe to share
// across threads.
//
// Bit-identity contract: the op streams below preserve the scalar
// engine's stamp emission order exactly (resistors, then capacitors,
// then MOSFETs, each in netlist creation order), so every matrix entry
// and RHS slot accumulates its contributions in the same floating-point
// order as transient.cpp's assemble() and produces the same bits.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "numeric/banded.hpp"
#include "spice/circuit.hpp"

namespace pim {

/// Flat per-device alpha-power parameters (see spice/kernels.hpp for the
/// folded forms) plus terminal node ids, in netlist order.
struct DeviceArrays {
  size_t count = 0;
  std::vector<double> sign;     ///< +1 NMOS, -1 PMOS
  std::vector<double> ksw;      ///< k_sat * width (nominal width)
  std::vector<double> k_sat;    ///< unfolded, for per-lane width overrides
  std::vector<double> width;    ///< nominal width [m]
  std::vector<double> vth, alpha, k_vdsat, lambda, nvt;
  std::vector<NodeId> gate, drain, source;
};

/// Everything the engine needs to stamp and solve one topology.
struct CompiledCircuit {
  /// Compiles `circuit`. The circuit is copied from — no reference is
  /// retained. Throws pim::Error(bad_input) naming both numbers when the
  /// half-bandwidth under the creation-order numbering exceeds
  /// solver::kMaxHalfBandwidth.
  static CompiledCircuit compile(const Circuit& circuit);

  // --- indexing (identical to the scalar engine's index_nodes()) ---
  size_t node_count = 0;
  int unknown_count = 0;
  std::vector<int> unknown_of_node;  ///< -1 for ground / source nodes

  // --- voltage sources, in declaration order ---
  std::vector<NodeId> vsource_node;
  std::vector<Waveform> vsource_wave;  ///< nominal waveforms (lane-overridable)

  // --- matrix geometry ---
  size_t bandwidth = 0;
  size_t matrix_rows = 0;   ///< max(unknown_count, 1) like the scalar engine
  size_t matrix_slots = 0;  ///< band storage size, (2 * bandwidth + 1) * rows

  // --- resistors: static matrix image + per-step RHS routes ---
  /// Resistor conductances accumulated once, in stamp order; each step's
  /// base matrix starts as a copy of this image.
  std::vector<double> res_matrix;
  struct ResRhsOp {
    int rhs;      ///< RHS row
    NodeId node;  ///< known-voltage column: rhs[r] -= g * v[node]
    double g;
  };
  std::vector<ResRhsOp> res_rhs_ops;

  // --- capacitors: companion stamps keyed by per-step geq/ieq ---
  std::vector<double> cap_farads;  ///< nominal values (lane-overridable)
  std::vector<NodeId> cap_a, cap_b;
  struct CapMatOp {
    int slot;     ///< matrix[slot] += sign * geq[cap]
    double sign;  ///< +1 diagonal, -1 off-diagonal
    int cap;
  };
  std::vector<CapMatOp> cap_mat_ops;
  /// One ordered stream for all capacitor RHS contributions, preserving
  /// the scalar per-element emission order (known-column stamp routes
  /// before the two companion-current injections of the same element).
  struct CapRhsOp {
    int rhs;
    int cap;
    double sign;
    NodeId node;  ///< valid when route
    bool route;   ///< true: rhs[r] -= sign * geq * v[node]; else rhs[r] += sign * ieq
  };
  std::vector<CapRhsOp> cap_rhs_ops;

  // --- MOSFETs ---
  DeviceArrays devices;
  /// Where each of the six Jacobian stamps of a device lands. Stamp j
  /// carries value sj * dj with sj = {+1,+1,+1,-1,-1,-1} and dj =
  /// {di_dvg, di_dvd, di_dvs} x {drain row, source row}. slot >= 0:
  /// matrix add; else rhs >= 0: rhs[r] -= value * v[node]; else skipped.
  struct DevStamp {
    int slot = -1;
    int rhs = -1;
    NodeId node = 0;
  };
  std::vector<std::array<DevStamp, 6>> dev_stamps;
  /// Norton-current injections: rhs[r] -= i_eq at the drain, += at the
  /// source; -1 when the row is a known node.
  std::vector<int> dev_rhs_drain, dev_rhs_source;

  // --- per-source current tallies (accumulate_sources), in scan order ---
  struct SourceTouches {
    struct Res { double g; NodeId hi, lo; };       ///< += g * (v[hi] - v[lo])
    struct Cap { int cap; double sign; };          ///< += sign * cap_current
    struct Dev { int dev; double sign; };          ///< += sign * i_d
    std::vector<Res> res;
    std::vector<Cap> cap;
    std::vector<Dev> dev;
  };
  std::vector<SourceTouches> source_touches;

  /// Band slot of matrix entry (r, c) in the row-major band layout of
  /// numeric/banded.hpp (band_slot). Both r and c must be unknowns inside
  /// the band.
  int slot_of(int r, int c) const {
    return static_cast<int>(band_slot(static_cast<size_t>(r), static_cast<size_t>(c),
                                      bandwidth, bandwidth));
  }
};

}  // namespace pim
