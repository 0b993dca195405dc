#include "spice/plan.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {

CompiledCircuit CompiledCircuit::compile(const Circuit& circuit) {
  CompiledCircuit p;
  p.node_count = circuit.node_count();

  // Node indexing: identical to the scalar engine's index_nodes().
  p.unknown_of_node.assign(p.node_count, -1);
  std::vector<int> source_value_index(p.node_count, -1);
  for (size_t i = 0; i < circuit.vsources().size(); ++i) {
    const auto& src = circuit.vsources()[i];
    source_value_index[static_cast<size_t>(src.node)] = static_cast<int>(i);
    p.vsource_node.push_back(src.node);
    p.vsource_wave.push_back(src.wave);
  }
  p.unknown_count = 0;
  for (size_t node = 1; node < p.node_count; ++node) {
    if (source_value_index[node] >= 0) continue;
    p.unknown_of_node[node] = p.unknown_count++;
  }

  // Bandwidth under the creation-order numbering, same scan as the
  // scalar engine.
  size_t band = 0;
  auto pair_band = [&](NodeId a, NodeId b) {
    const int ia = p.unknown_of_node[static_cast<size_t>(a)];
    const int ib = p.unknown_of_node[static_cast<size_t>(b)];
    if (ia < 0 || ib < 0) return;
    band = std::max(band, static_cast<size_t>(std::abs(ia - ib)));
  };
  for (const auto& r : circuit.resistors()) pair_band(r.a, r.b);
  for (const auto& cp : circuit.capacitors()) pair_band(cp.a, cp.b);
  for (const auto& m : circuit.mosfets()) {
    pair_band(m.gate, m.drain);
    pair_band(m.gate, m.source);
    pair_band(m.drain, m.source);
  }
  require(band <= solver::kMaxHalfBandwidth,
          "compile: circuit half-bandwidth " + std::to_string(band) +
              " exceeds the banded engine's limit of " +
              std::to_string(solver::kMaxHalfBandwidth) +
              " (number nodes along the line)",
          ErrorCode::bad_input);
  p.bandwidth = band;
  p.matrix_rows = std::max<size_t>(static_cast<size_t>(p.unknown_count), 1);
  p.matrix_slots = (2 * band + 1) * p.matrix_rows;

  // Classifies one stamp (row, col): matrix slot, RHS route through a
  // known column, or dropped (known row) — the three arms of the scalar
  // engine's stamp().
  auto classify = [&](NodeId row, NodeId col) -> std::pair<int, int> {
    const int ri = p.unknown_of_node[static_cast<size_t>(row)];
    if (ri < 0) return {-1, -1};
    const int ci = p.unknown_of_node[static_cast<size_t>(col)];
    if (ci >= 0) return {p.slot_of(ri, ci), -1};
    return {-1, ri};
  };

  struct StampSite {
    NodeId row, col;
    double sg;
  };

  // Resistors: conductances are constant, so their matrix contributions
  // are accumulated once here (in stamp order) into the static image.
  p.res_matrix.assign(p.matrix_slots, 0.0);
  for (const auto& r : circuit.resistors()) {
    const StampSite ops[4] = {{r.a, r.a, 1.0}, {r.a, r.b, -1.0},
                              {r.b, r.b, 1.0}, {r.b, r.a, -1.0}};
    for (const auto& op : ops) {
      const auto [slot, rhs] = classify(op.row, op.col);
      if (slot >= 0)
        p.res_matrix[static_cast<size_t>(slot)] += op.sg * r.conductance;
      else if (rhs >= 0)
        p.res_rhs_ops.push_back({rhs, op.col, op.sg * r.conductance});
    }
  }

  // Capacitors: stamps carry the per-step companion conductance geq and
  // current ieq, so the ops reference the capacitor index.
  for (size_t i = 0; i < circuit.capacitors().size(); ++i) {
    const auto& cp = circuit.capacitors()[i];
    p.cap_farads.push_back(cp.farads);
    p.cap_a.push_back(cp.a);
    p.cap_b.push_back(cp.b);
    const StampSite ops[4] = {{cp.a, cp.a, 1.0}, {cp.a, cp.b, -1.0},
                              {cp.b, cp.b, 1.0}, {cp.b, cp.a, -1.0}};
    for (const auto& op : ops) {
      const auto [slot, rhs] = classify(op.row, op.col);
      if (slot >= 0)
        p.cap_mat_ops.push_back({slot, op.sg, static_cast<int>(i)});
      else if (rhs >= 0)
        p.cap_rhs_ops.push_back({rhs, static_cast<int>(i), op.sg, op.col, true});
    }
    const int ia = p.unknown_of_node[static_cast<size_t>(cp.a)];
    if (ia >= 0) p.cap_rhs_ops.push_back({ia, static_cast<int>(i), 1.0, 0, false});
    const int ib = p.unknown_of_node[static_cast<size_t>(cp.b)];
    if (ib >= 0) p.cap_rhs_ops.push_back({ib, static_cast<int>(i), -1.0, 0, false});
  }

  // MOSFETs into SoA form with folded parameters (see spice/kernels.hpp:
  // the folds associate exactly like the original expressions).
  const auto& mos = circuit.mosfets();
  DeviceArrays& d = p.devices;
  d.count = mos.size();
  for (const auto& m : mos) {
    require(m.width > 0.0, "eval_alpha_power: width must be positive");
    d.sign.push_back(m.type == MosType::Nmos ? 1.0 : -1.0);
    d.k_sat.push_back(m.params.k_sat);
    d.width.push_back(m.width);
    d.ksw.push_back(m.params.k_sat * m.width);
    d.vth.push_back(m.params.vth);
    d.alpha.push_back(m.params.alpha);
    d.k_vdsat.push_back(m.params.k_vdsat);
    d.lambda.push_back(m.params.lambda);
    d.nvt.push_back(m.params.n_sub * constant::v_thermal_300k);
    d.gate.push_back(m.gate);
    d.drain.push_back(m.drain);
    d.source.push_back(m.source);

    const NodeId rows[6] = {m.drain, m.drain, m.drain, m.source, m.source, m.source};
    const NodeId cols[6] = {m.gate, m.drain, m.source, m.gate, m.drain, m.source};
    std::array<DevStamp, 6> st;
    for (int j = 0; j < 6; ++j) {
      const auto [slot, rhs] = classify(rows[j], cols[j]);
      st[static_cast<size_t>(j)] = {slot, rhs, cols[j]};
    }
    p.dev_stamps.push_back(st);
    p.dev_rhs_drain.push_back(p.unknown_of_node[static_cast<size_t>(m.drain)]);
    p.dev_rhs_source.push_back(p.unknown_of_node[static_cast<size_t>(m.source)]);
  }

  // Per-source element touch lists for the charge/energy tallies, in the
  // scalar engine's scan order (resistors, capacitors, MOSFETs).
  p.source_touches.resize(circuit.vsources().size());
  for (size_t si = 0; si < circuit.vsources().size(); ++si) {
    SourceTouches& t = p.source_touches[si];
    const NodeId n = circuit.vsources()[si].node;
    for (const auto& r : circuit.resistors()) {
      if (r.a == n) t.res.push_back({r.conductance, r.a, r.b});
      if (r.b == n) t.res.push_back({r.conductance, r.b, r.a});
    }
    for (size_t i = 0; i < circuit.capacitors().size(); ++i) {
      if (circuit.capacitors()[i].a == n) t.cap.push_back({static_cast<int>(i), 1.0});
      if (circuit.capacitors()[i].b == n) t.cap.push_back({static_cast<int>(i), -1.0});
    }
    for (size_t i = 0; i < mos.size(); ++i) {
      if (mos[i].drain == n) t.dev.push_back({static_cast<int>(i), 1.0});
      if (mos[i].source == n) t.dev.push_back({static_cast<int>(i), -1.0});
    }
  }

  return p;
}

}  // namespace pim
