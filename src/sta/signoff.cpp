#include "sta/signoff.hpp"

#include <algorithm>

#include "charlib/characterize.hpp"
#include "models/baseline.hpp"
#include "spice/batch.hpp"
#include "spice/measure.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace pim {
namespace {

constexpr double kEdgeStart = 50e-12;

// Adds one repeater (inverter or buffer) per line. Nodes are created
// interleaved across lines so the MNA matrix stays banded.
void add_repeaters(Circuit& ckt, const Technology& tech, const LinkDesign& design,
                   const RepeaterSizing& sz, NodeId vdd,
                   std::vector<NodeId>& cur) {
  const size_t lines = cur.size();
  if (design.kind == CellKind::Buffer) {
    std::vector<NodeId> mid(lines);
    for (size_t l = 0; l < lines; ++l) mid[l] = ckt.add_node();
    std::vector<NodeId> out(lines);
    for (size_t l = 0; l < lines; ++l) out[l] = ckt.add_node();
    for (size_t l = 0; l < lines; ++l) {
      ckt.add_inverter(tech.devices(), sz.wn_in, sz.wp_in, cur[l], mid[l], vdd);
      ckt.add_inverter(tech.devices(), sz.wn_out, sz.wp_out, mid[l], out[l], vdd);
    }
    cur = out;
  } else {
    std::vector<NodeId> out(lines);
    for (size_t l = 0; l < lines; ++l) out[l] = ckt.add_node();
    for (size_t l = 0; l < lines; ++l)
      ckt.add_inverter(tech.devices(), sz.wn_out, sz.wp_out, cur[l], out[l], vdd);
    cur = out;
  }
}

// Adds one wire segment as `npi` RC sections with pi-distributed ground
// and coupling capacitance. `cur` holds the segment entry node per line
// and is replaced by the exit nodes.
void add_wire_segment(Circuit& ckt, const LinkGeometry& g, int npi,
                      std::vector<NodeId>& cur) {
  const size_t lines = cur.size();
  const double r_step = g.seg_res / npi;
  const double cg_step = g.seg_cap_ground / npi;
  // Per-side coupling of one section.
  const double cc_step = 0.5 * g.seg_cap_couple_total / npi;

  // Geometric order of the bundle: line 0 (the victim) sits in the
  // middle, its direct aggressors (1, 2) beside it, and the phase-
  // matched guard lines (3, 4) outside — so the victim AND its
  // aggressors each see a full worst-case environment and the bundle
  // stays edge-aligned along the whole chain (the alignment a PrimeTime-
  // SI-style per-stage worst case assumes). Outer flanks couple onward
  // to quiet neighbors (grounded). Each pi section deposits half its
  // capacitance at each end, so interior nodes accumulate a full
  // section's worth and the ends a half.
  std::vector<size_t> geo;
  if (lines == 5) {
    geo = {3, 1, 0, 2, 4};
  } else if (lines == 1) {
    geo = {0};
  } else {
    geo.resize(lines);
    for (size_t l = 0; l < lines; ++l) geo[l] = l;
  }
  auto add_node_caps = [&](const std::vector<NodeId>& nodes, double scale) {
    for (size_t l = 0; l < lines; ++l)
      ckt.add_capacitor(nodes[l], ckt.ground(), scale * cg_step);
    if (lines > 1) {
      for (size_t i = 0; i + 1 < lines; ++i)
        ckt.add_capacitor(nodes[geo[i]], nodes[geo[i + 1]], scale * cc_step);
      ckt.add_capacitor(nodes[geo[0]], ckt.ground(), scale * cc_step);
      ckt.add_capacitor(nodes[geo[lines - 1]], ckt.ground(), scale * cc_step);
    }
  };

  add_node_caps(cur, 0.5);
  for (int step = 0; step < npi; ++step) {
    std::vector<NodeId> next(lines);
    for (size_t l = 0; l < lines; ++l) next[l] = ckt.add_node();
    for (size_t l = 0; l < lines; ++l) ckt.add_resistor(cur[l], next[l], r_step);
    cur = next;
    add_node_caps(cur, step + 1 < npi ? 1.0 : 0.5);
  }
}

// Coupled styles get a five-line bundle: victim, two aggressors, two
// phase-matched guards (see add_wire_segment for the geometry).
size_t bundle_lines(const LinkContext& ctx) {
  return ctx.style == DesignStyle::Shielded ? 1 : 5;
}

// The input wave of every line of the bundle, victim first, for one launch
// polarity. They are the only difference between the rising and the
// falling netlist of a line.
std::vector<Waveform> launch_waves(const Technology& tech, const LinkContext& ctx,
                                   const SignoffOptions& opt, bool launch_rising) {
  const size_t lines = bundle_lines(ctx);
  const double v0 = launch_rising ? 0.0 : tech.vdd;
  const double v1 = tech.vdd - v0;
  auto ramp = [&](double from, double to) {
    return Waveform::ramp(from, to, kEdgeStart, ctx.input_slew);
  };
  std::vector<Waveform> waves;
  waves.reserve(lines);
  waves.push_back(opt.aggressors == AggressorMode::VictimQuiet ? Waveform::dc(0.0)
                                                               : ramp(v0, v1));
  for (size_t l = 1; l < lines; ++l) {
    // Lines 1 and 2 are the direct aggressors; lines 3 and 4 (when
    // present) are guards phase-matched to the victim so the aggressors
    // themselves see a worst-case environment and stay aligned.
    const bool direct_aggressor = l <= 2;
    switch (opt.aggressors) {
      case AggressorMode::Opposing:
        waves.push_back(direct_aggressor ? ramp(v1, v0) : ramp(v0, v1));
        break;
      case AggressorMode::SameDirection:
        waves.push_back(ramp(v0, v1));
        break;
      case AggressorMode::Quiet:
        waves.push_back(Waveform::dc(0.0));
        break;
      case AggressorMode::VictimQuiet:
        // All neighbors rise together; their buffered wires fall and
        // couple the quiet (high) victim wire downward.
        waves.push_back(ramp(0.0, tech.vdd));
        break;
    }
  }
  return waves;
}

// Voltage sources in build_line's declaration order: vdd, then one input
// per line.
constexpr size_t kFirstLineSource = 1;

LinkNetlist build_line(const Technology& tech, const LinkContext& ctx,
                     const LinkDesign& design, const SignoffOptions& opt,
                     bool launch_rising) {
  const LinkGeometry g(tech, ctx, design);
  const RepeaterSizing sz = repeater_sizing(tech, design.kind, design.drive);
  const size_t lines = bundle_lines(ctx);

  LinkNetlist built;
  Circuit& ckt = built.circuit;
  const NodeId vdd = ckt.add_node("vdd");
  ckt.add_vsource(vdd, Waveform::dc(tech.vdd));

  // Line inputs: victim first, then the aggressors.
  std::vector<NodeId> cur(lines);
  for (size_t l = 0; l < lines; ++l) cur[l] = ckt.add_node();
  built.victim_in = cur[0];
  const std::vector<Waveform> waves = launch_waves(tech, ctx, opt, launch_rising);
  for (size_t l = 0; l < lines; ++l) ckt.add_vsource(cur[l], waves[l]);

  for (int k = 0; k < design.num_repeaters; ++k) {
    add_repeaters(ckt, tech, design, sz, vdd, cur);
    add_wire_segment(ckt, g, opt.pi_per_segment, cur);
  }

  // Receiver: the input pin of an equally sized repeater at the far end.
  const double win_n = design.kind == CellKind::Inverter ? sz.wn_out : sz.wn_in;
  const double win_p = design.kind == CellKind::Inverter ? sz.wp_out : sz.wp_in;
  const double ci = win_n * tech.nmos.c_gate + win_p * tech.pmos.c_gate;
  for (size_t l = 0; l < lines; ++l) ckt.add_capacitor(cur[l], ckt.ground(), ci);

  built.victim_out = cur[0];
  return built;
}

}  // namespace

SignoffResult signoff_link(const Technology& tech, const LinkContext& ctx,
                           const LinkDesign& design, const SignoffOptions& opt) {
  require(opt.pi_per_segment >= 1, "signoff_link: need at least one pi section");

  // Size the simulation window from a cheap analytical estimate.
  const double estimate = PamunuwaModel(tech).evaluate(ctx, design).delay;
  TransientOptions sim;
  sim.dt = opt.dt;
  sim.t_stop = kEdgeStart + ctx.input_slew + 3.0 * estimate + opt.window_margin;
  sim.t_settle = 2e-9;
  sim.settle_steps = 250;

  // Both launch polarities share one topology and differ only in the line
  // input waves, so the rising netlist is compiled once and the falling
  // launch runs as a second lane of the same batch that overrides every
  // line input with its falling wave. Each lane is bit-identical to a
  // solo run of its own netlist (docs/kernels.md).
  // Each lane ends once the four victim crossings its delay and slew
  // read have happened (docs/kernels.md, "Early exit").
  const LinkNetlist built = build_line(tech, ctx, design, opt, /*launch_rising=*/true);
  const std::vector<Waveform> falling = launch_waves(tech, ctx, opt, /*launch_rising=*/false);
  const bool inverted = design.kind == CellKind::Inverter && (design.num_repeaters % 2 == 1);
  const auto in_edge_of = [](bool launch_rising) {
    return launch_rising ? EdgeKind::Rising : EdgeKind::Falling;
  };
  const auto out_edge_of = [&](bool launch_rising) {
    return (launch_rising != inverted) ? EdgeKind::Rising : EdgeKind::Falling;
  };
  std::vector<LaneSpec> lanes(2);
  for (size_t l = 0; l < falling.size(); ++l)
    lanes[1].vsource_wave.emplace_back(kFirstLineSource + l, falling[l]);
  for (const bool launch_rising : {true, false})
    lanes[launch_rising ? 0 : 1].stop_after =
        timing_crossings(built.victim_in, in_edge_of(launch_rising), built.victim_out,
                         out_edge_of(launch_rising), tech.vdd);
  std::vector<Expected<TransientResult>> runs =
      run_transient_batch(CompiledCircuit::compile(built.circuit), sim,
                          {built.victim_in, built.victim_out}, lanes);

  SignoffResult worst;
  for (const bool launch_rising : {true, false}) {
    const TransientResult res = runs[launch_rising ? 0 : 1].take();
    const EdgeKind in_edge = in_edge_of(launch_rising);
    const EdgeKind out_edge = out_edge_of(launch_rising);

    const double delay = delay_50(res.time, res.trace(built.victim_in), in_edge,
                                  res.trace(built.victim_out), out_edge, tech.vdd);
    if (delay > worst.delay) {
      worst.delay = delay;
      worst.output_slew =
          measure_slew(res.time, res.trace(built.victim_out), out_edge, tech.vdd);
      worst.node_count = built.circuit.node_count();
    }
  }
  return worst;
}

LinkNetlist build_link_netlist(const Technology& tech, const LinkContext& context,
                               const LinkDesign& design, const SignoffOptions& options,
                               bool launch_rising) {
  return build_line(tech, context, design, options, launch_rising);
}

}  // namespace pim
