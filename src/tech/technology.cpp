#include "tech/technology.hpp"

#include <map>
#include <mutex>

#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {

using namespace pim::unit;

const std::vector<TechNode>& all_tech_nodes() {
  static const std::vector<TechNode> nodes = {TechNode::N90, TechNode::N65, TechNode::N45,
                                              TechNode::N32, TechNode::N22, TechNode::N16};
  return nodes;
}

std::string tech_node_name(TechNode node) {
  switch (node) {
    case TechNode::N90: return "90nm";
    case TechNode::N65: return "65nm";
    case TechNode::N45: return "45nm";
    case TechNode::N32: return "32nm";
    case TechNode::N22: return "22nm";
    case TechNode::N16: return "16nm";
  }
  fail("tech_node_name: unknown node");
}

TechNode tech_node_from_name(const std::string& name) {
  for (TechNode n : all_tech_nodes()) {
    const std::string full = tech_node_name(n);
    if (name == full || name + "nm" == full) return n;
  }
  fail("tech_node_from_name: unknown technology '" + name + "'", ErrorCode::io_parse);
}

namespace {

struct NodeSpec {
  double vdd;
  // device
  double vth_n, vth_p;
  double ksat_n, ksat_p;  // A / (m * V^alpha)
  double alpha;
  double lambda;
  double n_sub;
  double c_gate_ff_um;    // fF per um of width
  double c_drain_ff_um;
  // global wire geometry (nm)
  double gw, gs, gt, gh, gk;
  // intermediate wire geometry (nm)
  double iw, is, it, ih, ik;
  // copper stack
  double barrier_nm;
  // layout
  double feature_nm, contact_pitch_nm, row_height_nm;
  double unit_wn_nm;      // 1x repeater NMOS width
  double clock_ghz;
};

// Calibration table. Values synthesized from ITRS/PTM-era trends; see the
// header comment and DESIGN.md for the reasoning per column. Note the
// deliberate vdd step 1.0 -> 1.1 V from 65 to 45 nm (paper Table III).
NodeSpec spec_for(TechNode node) {
  switch (node) {
    case TechNode::N90:
      return {1.20, 0.32, 0.33, 950.0, 480.0, 1.35, 0.06, 2.30, 1.00, 0.55,
              450, 450, 900, 800, 3.3, 220, 220, 450, 400, 3.3,
              12.0, 90, 250, 2520, 360, 1.5};
    case TechNode::N65:
      return {1.00, 0.30, 0.31, 1050.0, 540.0, 1.32, 0.07, 2.35, 0.90, 0.50,
              320, 320, 700, 650, 3.0, 160, 160, 340, 300, 3.0,
              10.0, 65, 190, 1800, 260, 2.25};
    case TechNode::N45:
      return {1.10, 0.32, 0.33, 1200.0, 640.0, 1.30, 0.08, 2.45, 0.80, 0.45,
              225, 225, 520, 480, 2.8, 112, 112, 250, 225, 2.8,
              8.0, 45, 140, 1260, 180, 3.0};
    case TechNode::N32:
      return {0.90, 0.28, 0.29, 1280.0, 700.0, 1.28, 0.09, 2.50, 0.75, 0.42,
              160, 160, 390, 360, 2.6, 80, 80, 180, 165, 2.6,
              6.0, 32, 110, 900, 130, 3.5};
    case TechNode::N22:
      return {0.80, 0.26, 0.27, 1350.0, 760.0, 1.26, 0.10, 2.55, 0.70, 0.40,
              115, 115, 290, 270, 2.4, 58, 58, 132, 120, 2.4,
              4.5, 22, 80, 630, 90, 4.0};
    case TechNode::N16:
      return {0.70, 0.24, 0.25, 1400.0, 800.0, 1.24, 0.11, 2.60, 0.65, 0.38,
              80, 80, 215, 200, 2.2, 40, 40, 98, 90, 2.2,
              3.5, 16, 60, 460, 64, 4.5};
  }
  fail("spec_for: unknown node");
}

Technology build(TechNode node) {
  const NodeSpec s = spec_for(node);
  Technology t;
  t.node = node;
  t.name = tech_node_name(node);
  t.vdd = s.vdd;

  auto device = [&](double vth, double ksat) {
    MosfetParams p;
    p.vth = vth;
    p.k_sat = ksat;
    p.alpha = s.alpha;
    p.k_vdsat = 0.6;
    p.lambda = s.lambda;
    p.n_sub = s.n_sub;
    p.c_gate = s.c_gate_ff_um * fF / um;
    p.c_drain = s.c_drain_ff_um * fF / um;
    return p;
  };
  t.nmos = device(s.vth_n, s.ksat_n);
  t.pmos = device(s.vth_p, s.ksat_p);

  auto layer = [](double w, double sp, double th, double h, double k) {
    WireLayerGeometry g;
    g.width = w * nm;
    g.spacing = sp * nm;
    g.thickness = th * nm;
    g.ild_height = h * nm;
    g.k_dielectric = k;
    return g;
  };
  t.interconnect.global = layer(s.gw, s.gs, s.gt, s.gh, s.gk);
  t.interconnect.intermediate = layer(s.iw, s.is, s.it, s.ih, s.ik);
  t.interconnect.barrier_thickness = s.barrier_nm * nm;
  t.interconnect.rho_bulk = constant::rho_copper_bulk;
  t.interconnect.scattering_coeff = 0.45;

  t.area.feature_size = s.feature_nm * nm;
  t.area.contact_pitch = s.contact_pitch_nm * nm;
  t.area.row_height = s.row_height_nm * nm;

  t.pn_ratio = 2.0;
  t.unit_nmos_width = s.unit_wn_nm * nm;
  t.clock_frequency = s.clock_ghz * GHz;
  return t;
}

}  // namespace

const Technology& technology(TechNode node) {
  static const std::map<TechNode, Technology> cache = [] {
    std::map<TechNode, Technology> m;
    for (TechNode n : all_tech_nodes()) m.emplace(n, build(n));
    // Map nodes survive the move into the static, so these addresses are
    // process-stable and technology_content_hash may memoize them.
    for (const auto& [n, t] : m) register_stable_technology(&t);
    return m;
  }();
  return cache.at(node);
}

Technology Technology::derated(const Corner& corner) const {
  Technology t = *this;
  t.vdd *= corner.vdd_scale;
  t.nmos.k_sat *= corner.nmos_strength;
  t.pmos.k_sat *= corner.pmos_strength;
  for (MosfetParams* p : {&t.nmos, &t.pmos}) {
    p->c_gate *= corner.device_cap;
    p->c_drain *= corner.device_cap;
  }
  t.interconnect.rho_bulk *= corner.wire_res;
  t.interconnect.global.k_dielectric *= corner.wire_cap;
  t.interconnect.intermediate.k_dielectric *= corner.wire_cap;
  return t;
}

const Technology& corner_technology(const Technology& base, const Corner& corner) {
  static std::mutex mutex;
  // std::map nodes never move, so returned references stay valid for the
  // life of the process — model layers hold `const Technology*` into it.
  static std::map<std::string, Technology> registry;
  // Keyed by content, not address: two loads of the same tech file (or a
  // reload after a no-op edit) share registry entries and hence fits.
  const std::string key = technology_content_hash(base) + "@" + corner.cache_id();
  std::lock_guard<std::mutex> lock(mutex);
  const auto it = registry.find(key);
  if (it != registry.end()) return it->second;
  Technology& fresh = registry.emplace(key, base.derated(corner)).first->second;
  register_stable_technology(&fresh);
  return fresh;
}

}  // namespace pim
