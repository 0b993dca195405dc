// Tests for pim::cosi — specs and their text format, the built-in
// testcases, router cost scaling, link implementation service, the
// architecture container's merge mechanics, and end-to-end synthesis
// invariants. Uses the closed-form baseline models so no transistor-level
// characterization is required.
#include <gtest/gtest.h>

#include "cache/manifest.hpp"
#include "cosi/architecture.hpp"
#include "cosi/mesh.hpp"
#include "cosi/specfile.hpp"
#include "cosi/synthesis.hpp"
#include "cosi/testcases.hpp"
#include "models/baseline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

using namespace pim::unit;

SocSpec tiny_spec() {
  SocSpec spec;
  spec.name = "tiny";
  spec.die_width = 4 * mm;
  spec.die_height = 4 * mm;
  spec.data_width = 32;
  spec.cores = {{"a", 0.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"b", 3.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"c", 2.0 * mm, 3.5 * mm, 0.5 * mm, 0.5 * mm}};
  spec.flows = {{0, 1, 2e9}, {1, 2, 1e9}, {0, 2, 0.5e9}};
  return spec;
}

TEST(Spec, ValidationCatchesErrors) {
  SocSpec s = tiny_spec();
  EXPECT_NO_THROW(s.validate());
  s.flows.push_back({0, 0, 1e9});
  EXPECT_THROW(s.validate(), Error);
  s = tiny_spec();
  s.flows.push_back({0, 9, 1e9});
  EXPECT_THROW(s.validate(), Error);
  s = tiny_spec();
  s.flows[0].bandwidth = -1.0;
  EXPECT_THROW(s.validate(), Error);
  s = tiny_spec();
  s.cores[0].x = 100 * mm;
  EXPECT_THROW(s.validate(), Error);
}

TEST(Spec, DistanceAndBandwidth) {
  const SocSpec s = tiny_spec();
  // Core distances are Manhattan, measured between the cores' nodes.
  const NocArchitecture arch(s);
  EXPECT_NEAR(arch.node_distance(arch.core_node(0), arch.core_node(1)), 3.0 * mm, 1e-9);
  EXPECT_NEAR(arch.node_distance(arch.core_node(0), arch.core_node(2)),
              1.5 * mm + 3.0 * mm, 1e-9);
  EXPECT_NEAR(s.total_bandwidth(), 3.5e9, 1.0);
}

TEST(SpecFile, RoundTripPreservesSpec) {
  const SocSpec s = dvopd_spec();
  const SocSpec r = parse_soc_spec(write_soc_spec(s));
  EXPECT_EQ(r.name, s.name);
  EXPECT_EQ(r.cores.size(), s.cores.size());
  EXPECT_EQ(r.flows.size(), s.flows.size());
  EXPECT_EQ(r.data_width, s.data_width);
  EXPECT_DOUBLE_EQ(r.die_width, s.die_width);
  for (size_t i = 0; i < s.cores.size(); ++i) {
    EXPECT_EQ(r.cores[i].name, s.cores[i].name);
    EXPECT_DOUBLE_EQ(r.cores[i].x, s.cores[i].x);
  }
  for (size_t i = 0; i < s.flows.size(); ++i) {
    EXPECT_EQ(r.flows[i].src, s.flows[i].src);
    EXPECT_DOUBLE_EQ(r.flows[i].bandwidth, s.flows[i].bandwidth);
  }
}

TEST(SpecFile, RejectsMalformedInput) {
  EXPECT_THROW(parse_soc_spec(""), Error);
  EXPECT_THROW(parse_soc_spec("soc \"x\" {\n"), Error);                       // unterminated
  EXPECT_THROW(parse_soc_spec("soc \"x\" {\n bogus 1\n}\n"), Error);          // unknown key
  EXPECT_THROW(parse_soc_spec("soc \"x\" {\n die 1e-3 1e-3\n flow a b 1\n}\n"),
               Error);  // unknown core
  // Duplicate core name.
  std::string text = write_soc_spec(tiny_spec());
  const size_t pos = text.find("  core b");
  std::string dup = text;
  dup.insert(pos, text.substr(pos, text.find('\n', pos) - pos + 1));
  EXPECT_THROW(parse_soc_spec(dup), Error);
}

TEST(Testcases, Mpeg4AndMwdValid) {
  const SocSpec mpeg4 = mpeg4_spec();
  EXPECT_EQ(mpeg4.cores.size(), 12u);
  EXPECT_GE(mpeg4.flows.size(), 15u);
  // The known MPEG4 signature: SDRAM-centric star (the hub touches most
  // of the traffic).
  const int sdram = 5;
  double hub = 0.0;
  for (const Flow& f : mpeg4.flows)
    if (f.src == sdram || f.dst == sdram) hub += f.bandwidth;
  EXPECT_GT(hub, 0.6 * mpeg4.total_bandwidth());

  const SocSpec mwd = mwd_spec();
  EXPECT_EQ(mwd.cores.size(), 12u);
  EXPECT_GE(mwd.flows.size(), 12u);
  // Both synthesize cleanly.
  const BakogluModel model(technology(TechNode::N65));
  EXPECT_EQ(synthesize_noc(mpeg4, model).metrics.infeasible_links, 0);
  EXPECT_EQ(synthesize_noc(mwd, model).metrics.infeasible_links, 0);
}

TEST(Testcases, MatchPaperScale) {
  const SocSpec vproc = vproc_spec();
  EXPECT_EQ(vproc.cores.size(), 42u);
  EXPECT_EQ(vproc.data_width, 128);
  EXPECT_GT(vproc.flows.size(), 40u);
  const SocSpec dvopd = dvopd_spec();
  EXPECT_EQ(dvopd.cores.size(), 26u);
  EXPECT_EQ(dvopd.data_width, 128);
  EXPECT_EQ(dvopd.flows.size(), 2u * 16u + 3u);
}

TEST(RouterModelTest, ScalesAcrossNodes) {
  const RouterModel r90 = RouterModel::for_tech(technology(TechNode::N90), 128);
  const RouterModel r45 = RouterModel::for_tech(technology(TechNode::N45), 128);
  EXPECT_GT(r90.energy_per_bit, r45.energy_per_bit);  // smaller caps, lower vdd
  EXPECT_GT(r90.area_per_port, r45.area_per_port);
  EXPECT_GT(r45.energy_per_bit, 0.0);
  // Energy magnitude sanity: single-digit fJ/bit.
  EXPECT_LT(r90.energy_per_bit, 100e-15);
  EXPECT_GT(r90.energy_per_bit, 0.1e-15);
}

TEST(LinkImplementerTest, MemoizesAndBoundsLength) {
  const BakogluModel model(technology(TechNode::N45));
  LinkContext base;
  base.input_slew = 100 * ps;
  base.frequency = 3 * GHz;
  LinkImplementer impl(model, base, 0.9 / (3 * GHz));
  const ImplementedLink& a = impl.implement(1.0 * mm);
  const ImplementedLink& b = impl.implement(1.0 * mm + 2 * um);  // same quantum
  EXPECT_EQ(&a, &b);
  const double max_len = impl.max_feasible_length();
  EXPECT_GT(max_len, 0.5 * mm);
  EXPECT_TRUE(impl.implement(0.8 * max_len).feasible);
  EXPECT_FALSE(impl.implement(2.5 * max_len).feasible);
}

TEST(LinkImplementerTest, RecordsProvenanceOfCachedSearches) {
  const BakogluModel model(technology(TechNode::N45));
  LinkContext base;
  base.input_slew = 100 * unit::ps;
  base.frequency = 3 * unit::GHz;
  LinkImplementer impl(model, base, 0.9 / (3 * unit::GHz));
  cache::Tracked scope;
  const ImplementedLink& a = impl.implement(1.0 * unit::mm);
  // The fresh search records which buffering artifacts it consumed, and
  // replays them into the enclosing provenance scope.
  ASSERT_FALSE(a.provenance.empty());
  EXPECT_EQ(a.provenance[0].kind, "buffering");
  ASSERT_EQ(scope.upstream_keys().size(), a.provenance.size());
  EXPECT_EQ(scope.upstream_keys()[0].hex, a.provenance[0].hex);
  {
    // A memo hit replays the SAME provenance — reuse and fresh-search
    // paths feed the invalidation graph identically.
    cache::Tracked rescope;
    const ImplementedLink& b = impl.implement(1.0 * unit::mm);
    EXPECT_EQ(&a, &b);
    ASSERT_EQ(rescope.upstream_keys().size(), a.provenance.size());
    EXPECT_EQ(rescope.upstream_keys()[0].hex, a.provenance[0].hex);
  }
}

TEST(LinkImplementerTest, LongerBudgetAllowsLongerWires) {
  const BakogluModel model(technology(TechNode::N45));
  LinkContext base;
  LinkImplementer tight(model, base, 150 * ps);
  LinkImplementer loose(model, base, 600 * ps);
  EXPECT_GT(loose.max_feasible_length(), tight.max_feasible_length());
}

TEST(Architecture, EdgeAllocationSpillsOverCapacity) {
  const SocSpec spec = tiny_spec();
  NocArchitecture arch(spec);
  const double cap = 3e9;
  const int e1 = arch.allocate_edge(0, 1, 2e9, cap);
  const int e2 = arch.allocate_edge(0, 1, 0.5e9, cap);  // fits -> same edge
  EXPECT_EQ(e1, e2);
  const int e3 = arch.allocate_edge(0, 1, 2e9, cap);  // spills -> parallel edge
  EXPECT_NE(e1, e3);
  EXPECT_EQ(arch.edges().size(), 2u);
  EXPECT_THROW(arch.allocate_edge(1, 1, 1e9, cap), Error);
}

TEST(Architecture, RedirectMergesParallelsAndDropsLoops) {
  const SocSpec spec = tiny_spec();
  NocArchitecture arch(spec);
  const int r1 = arch.add_router(1 * mm, 1 * mm);
  const int r2 = arch.add_router(1.2 * mm, 1 * mm);
  const double cap = 1e12;
  const int e_a = arch.allocate_edge(0, r1, 1e9, cap);
  const int e_b = arch.allocate_edge(0, r2, 1e9, cap);
  const int e_mid = arch.allocate_edge(r1, r2, 1e9, cap);
  arch.append_to_path(0, e_a);
  arch.append_to_path(1, e_b);
  arch.append_to_path(2, e_mid);

  arch.redirect_node(r2, r1, cap);
  // e_b now runs 0 -> r1, parallel with e_a: combined. e_mid is a loop: dead.
  int live = 0;
  for (const NocEdge& e : arch.edges())
    if (e.alive) ++live;
  EXPECT_EQ(live, 1);
  EXPECT_EQ(arch.flow_paths()[0], arch.flow_paths()[1]);
  EXPECT_TRUE(arch.flow_paths()[2].empty());  // loop edge vanished
  EXPECT_NEAR(arch.edges()[static_cast<size_t>(e_a)].bandwidth, 2e9, 1.0);

  arch.compact();
  EXPECT_EQ(arch.edges().size(), 1u);
  EXPECT_EQ(arch.flow_paths()[0].front(), 0);
}

TEST(Architecture, PortCountsDistinctNeighbors) {
  const SocSpec spec = tiny_spec();
  NocArchitecture arch(spec);
  const int r = arch.add_router(2 * mm, 2 * mm);
  arch.allocate_edge(0, r, 1e9, 1e12);
  arch.allocate_edge(r, 1, 1e9, 1e12);
  arch.allocate_edge(1, r, 1e9, 1e12);  // same neighbor, opposite direction
  EXPECT_EQ(arch.port_count(r), 2);
  EXPECT_NEAR(arch.node_traffic(r), 3e9, 1.0);
}

// ------------------------------------------------------------ synthesis

TEST(Synthesis, DvopdAllFlowsRoutedAndFeasible) {
  const SocSpec spec = dvopd_spec();
  const BakogluModel model(technology(TechNode::N65));
  const NocSynthesisResult r = synthesize_noc(spec, model);
  for (const auto& path : r.architecture.flow_paths()) EXPECT_FALSE(path.empty());
  EXPECT_EQ(r.metrics.infeasible_links, 0);
  EXPECT_GT(r.metrics.total_power(), 0.0);
  EXPECT_GT(r.metrics.total_area(), 0.0);
  EXPECT_GE(r.metrics.avg_hops, 1.0);
  EXPECT_LE(r.metrics.worst_link_delay, r.delay_budget);
  // Self-audit must be clean.
  const AuditResult audit =
      audit_links(r.architecture, model, r.base_context, r.delay_budget);
  EXPECT_EQ(audit.violations, 0);
}

TEST(Synthesis, FlowPathsConnectEndpoints) {
  const SocSpec spec = vproc_spec();
  const BakogluModel model(technology(TechNode::N45));
  const NocSynthesisResult r = synthesize_noc(spec, model);
  const NocArchitecture& arch = r.architecture;
  for (size_t f = 0; f < spec.flows.size(); ++f) {
    const auto& path = arch.flow_paths()[f];
    ASSERT_FALSE(path.empty());
    // Path edges chain from src to dst.
    int at = arch.core_node(spec.flows[f].src);
    for (int e : path) {
      ASSERT_EQ(arch.edges()[static_cast<size_t>(e)].a, at);
      at = arch.edges()[static_cast<size_t>(e)].b;
    }
    EXPECT_EQ(at, arch.core_node(spec.flows[f].dst));
  }
}

TEST(Synthesis, FasterClockNeedsRelayRouters) {
  // At the 45 nm clock (3 GHz) the VPROC die spans several hop budgets
  // under a model that sees the full wire delay (Pamunuwa includes
  // coupling): relay routers must appear and multi-hop paths with them.
  // (Under the optimistic Bakoglu model they may NOT appear — that is
  // the paper's Table III implementability point, exercised in the
  // bench.)
  const SocSpec spec = vproc_spec();
  const PamunuwaModel model(technology(TechNode::N45));
  const NocSynthesisResult r = synthesize_noc(spec, model);
  EXPECT_GT(r.architecture.router_count(), 0);
  EXPECT_GT(r.metrics.max_hops, 1);
}

TEST(Synthesis, CapacityNeverExceeded) {
  const SocSpec spec = dvopd_spec();
  const BakogluModel model(technology(TechNode::N65));
  const NocSynthesisResult r = synthesize_noc(spec, model);
  const double capacity = 0.75 * spec.data_width * r.clock_frequency;
  for (const NocEdge& e : r.architecture.edges()) {
    if (!e.alive) continue;
    EXPECT_LE(e.bandwidth, capacity * (1.0 + 1e-9));
  }
}

// Property: random (but valid) specs synthesize to consistent networks.
class SynthesisFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SynthesisFuzz, RandomSpecInvariantsHold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  SocSpec spec;
  spec.name = "fuzz";
  spec.die_width = 8 * mm;
  spec.die_height = 6 * mm;
  spec.data_width = 64;
  const int n_cores = 6 + static_cast<int>(rng.next_below(10));
  for (int i = 0; i < n_cores; ++i) {
    Core c;
    c.name = "c" + std::to_string(i);
    c.x = rng.uniform(0.2, 7.8) * mm;
    c.y = rng.uniform(0.2, 5.8) * mm;
    c.width = 0.5 * mm;
    c.height = 0.5 * mm;
    spec.cores.push_back(c);
  }
  const int n_flows = 8 + static_cast<int>(rng.next_below(12));
  for (int i = 0; i < n_flows; ++i) {
    const int src = static_cast<int>(rng.next_below(n_cores));
    int dst = static_cast<int>(rng.next_below(n_cores));
    if (dst == src) dst = (dst + 1) % n_cores;
    spec.flows.push_back({src, dst, rng.uniform(0.1, 4.0) * 1e9});
  }
  spec.validate();

  const PamunuwaModel model(technology(TechNode::N45));
  const NocSynthesisResult r = synthesize_noc(spec, model);
  const NocArchitecture& arch = r.architecture;

  // Every flow routed along a connected path; capacity respected.
  const double capacity = 0.75 * spec.data_width * r.clock_frequency;
  for (size_t f = 0; f < spec.flows.size(); ++f) {
    const auto& path = arch.flow_paths()[f];
    ASSERT_FALSE(path.empty());
    int at = arch.core_node(spec.flows[f].src);
    for (int e : path) {
      ASSERT_EQ(arch.edges()[static_cast<size_t>(e)].a, at);
      at = arch.edges()[static_cast<size_t>(e)].b;
    }
    EXPECT_EQ(at, arch.core_node(spec.flows[f].dst));
  }
  for (const NocEdge& e : arch.edges()) {
    if (!e.alive) continue;
    EXPECT_LE(e.bandwidth, capacity * (1.0 + 1e-9));
    EXPECT_TRUE(e.impl.feasible);
  }
  EXPECT_EQ(r.metrics.infeasible_links, 0);
  EXPECT_LE(r.metrics.worst_link_delay, r.delay_budget);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisFuzz, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Synthesis, LayerExplorationStaysFeasible) {
  const SocSpec spec = dvopd_spec();
  const PamunuwaModel model(technology(TechNode::N45));
  NocSynthesisOptions opt;
  opt.explore_layers = true;
  const NocSynthesisResult r = synthesize_noc(spec, model, opt);
  EXPECT_EQ(r.metrics.infeasible_links, 0);
  // The audit against the synthesis model itself must be clean even with
  // mixed layers (the audit re-times each link on ITS chosen layer).
  const AuditResult audit =
      audit_links(r.architecture, model, r.base_context, r.delay_budget);
  EXPECT_EQ(audit.violations, 0);
}

// ----------------------------------------------------------------- mesh

TEST(Mesh, PathsConnectAndStayFeasible) {
  const SocSpec spec = dvopd_spec();
  const PamunuwaModel model(technology(TechNode::N65));
  const NocSynthesisResult r = build_mesh_noc(spec, model);
  const NocArchitecture& arch = r.architecture;
  EXPECT_GT(arch.router_count(), 3);
  EXPECT_EQ(r.metrics.infeasible_links, 0);
  for (size_t f = 0; f < spec.flows.size(); ++f) {
    const auto& path = arch.flow_paths()[f];
    ASSERT_FALSE(path.empty());
    int at = arch.core_node(spec.flows[f].src);
    for (int e : path) {
      ASSERT_EQ(arch.edges()[static_cast<size_t>(e)].a, at);
      at = arch.edges()[static_cast<size_t>(e)].b;
    }
    EXPECT_EQ(at, arch.core_node(spec.flows[f].dst));
    // XY routing: at least core->router->...->router->core.
    EXPECT_GE(path.size(), 2u);
  }
}

TEST(Mesh, ExplicitShapeRespected) {
  const SocSpec spec = dvopd_spec();
  const PamunuwaModel model(technology(TechNode::N65));
  MeshOptions shape;
  shape.rows = 2;
  shape.cols = 5;
  const NocSynthesisResult r = build_mesh_noc(spec, model, {}, shape);
  EXPECT_EQ(r.architecture.router_count(), 10);
}

TEST(Mesh, MoreHopsThanSynthesizedPointToPoint) {
  // On a small design whose flows are all short, synthesis stays
  // point-to-point (1 hop) while the mesh forces router traversals.
  const SocSpec spec = dvopd_spec();
  const PamunuwaModel model(technology(TechNode::N65));
  const NocSynthesisResult custom = synthesize_noc(spec, model);
  const NocSynthesisResult mesh = build_mesh_noc(spec, model);
  EXPECT_GT(mesh.metrics.avg_hops, custom.metrics.avg_hops);
  EXPECT_GT(mesh.metrics.total_power(), custom.metrics.total_power());
}

TEST(Synthesis, DotExportListsTopology) {
  const SocSpec spec = tiny_spec();
  const BakogluModel model(technology(TechNode::N90));
  const NocSynthesisResult r = synthesize_noc(spec, model);
  const std::string dot = to_dot(r.architecture);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\""), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace pim
