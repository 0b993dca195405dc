// Tests for pim::tech — technology descriptors, wire extraction physics,
// and tech-file round trips.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "cache/sha256.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"
#include "tech/wire.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

using namespace pim::unit;

TEST(Technology, SixNodesWithRoundTrippingNames) {
  const auto& nodes = all_tech_nodes();
  ASSERT_EQ(nodes.size(), 6u);
  for (TechNode n : nodes) {
    EXPECT_EQ(tech_node_from_name(tech_node_name(n)), n);
  }
  EXPECT_EQ(tech_node_from_name("65"), TechNode::N65);
  EXPECT_THROW(tech_node_from_name("28nm"), Error);
}

TEST(Technology, VddStepsUpFrom65To45) {
  // The paper's Table III discussion hinges on this library quirk.
  EXPECT_DOUBLE_EQ(technology(TechNode::N65).vdd, 1.0);
  EXPECT_DOUBLE_EQ(technology(TechNode::N45).vdd, 1.1);
  EXPECT_GT(technology(TechNode::N90).vdd, technology(TechNode::N65).vdd);
}

TEST(Technology, GeometryShrinksMonotonically) {
  double prev_width = 1.0;
  double prev_feature = 1.0;
  for (TechNode n : all_tech_nodes()) {
    const Technology& t = technology(n);
    EXPECT_LT(t.interconnect.global.width, prev_width);
    EXPECT_LT(t.area.feature_size, prev_feature);
    prev_width = t.interconnect.global.width;
    prev_feature = t.area.feature_size;
    // Intermediate layers are finer than global ones.
    EXPECT_LT(t.interconnect.intermediate.width, t.interconnect.global.width);
    // Barrier never consumes the conductor.
    EXPECT_LT(2.0 * t.interconnect.barrier_thickness, t.interconnect.global.width);
  }
}

TEST(Technology, DriveWidthsScale) {
  const Technology& t = technology(TechNode::N65);
  EXPECT_DOUBLE_EQ(t.drive_nmos_width(4), 4.0 * t.unit_nmos_width);
  EXPECT_DOUBLE_EQ(t.pmos_width(1.0 * um), t.pn_ratio * um);
}

TEST(WireResistivity, ScatteringRaisesRhoMoreAtSmallWidth) {
  const InterconnectTech& ic = technology(TechNode::N45).interconnect;
  WireModelOptions on;
  WireModelOptions off;
  off.scattering = false;
  const double rho_wide = effective_resistivity(ic, 400 * nm, on);
  const double rho_narrow = effective_resistivity(ic, 50 * nm, on);
  EXPECT_GT(rho_narrow, rho_wide);
  EXPECT_DOUBLE_EQ(effective_resistivity(ic, 50 * nm, off), ic.rho_bulk);
  EXPECT_GT(rho_narrow, 1.3 * ic.rho_bulk);  // strong effect at 50 nm
}

// Property: per-length resistance of the global wire grows monotonically
// as technology scales down, and each physical effect (scattering,
// barrier) only ever increases it.
class WireResistanceTest : public ::testing::TestWithParam<TechNode> {};

TEST_P(WireResistanceTest, EffectsOnlyIncreaseResistance) {
  const Technology& t = technology(GetParam());
  WireModelOptions full;
  WireModelOptions no_scatter = full;
  no_scatter.scattering = false;
  WireModelOptions no_barrier = full;
  no_barrier.barrier = false;
  WireModelOptions bare;
  bare.scattering = false;
  bare.barrier = false;
  const double r_full = wire_resistance_per_m(t, WireLayer::Global, full);
  EXPECT_GT(r_full, wire_resistance_per_m(t, WireLayer::Global, no_scatter));
  EXPECT_GT(r_full, wire_resistance_per_m(t, WireLayer::Global, no_barrier));
  EXPECT_GT(r_full, wire_resistance_per_m(t, WireLayer::Global, bare));
  // Intermediate wires are narrower, hence more resistive.
  EXPECT_GT(wire_resistance_per_m(t, WireLayer::Intermediate, full), r_full);
}

INSTANTIATE_TEST_SUITE_P(AllNodes, WireResistanceTest,
                         ::testing::ValuesIn(all_tech_nodes()));

TEST(WireResistance, GrowsAcrossNodes) {
  double prev = 0.0;
  for (TechNode n : all_tech_nodes()) {
    const double r = wire_resistance_per_m(technology(n), WireLayer::Global, {});
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(WireExtraction, MagnitudesArePlausible) {
  // 65 nm global wiring: on the order of 100 ohm/mm and 100-400 fF/mm.
  const WireRc rc = extract_wire(technology(TechNode::N65), WireLayer::Global,
                                 DesignStyle::SingleSpacing);
  EXPECT_GT(rc.res_per_m, 30.0 / mm);
  EXPECT_LT(rc.res_per_m, 400.0 / mm);
  EXPECT_GT(rc.cap_total_per_m(), 80.0 * fF / mm);
  EXPECT_LT(rc.cap_total_per_m(), 600.0 * fF / mm);
  EXPECT_GT(rc.cap_couple_per_m, rc.cap_ground_per_m * 0.3);  // coupling matters
}

TEST(WireExtraction, ShieldingMovesCouplingToGround) {
  const Technology& t = technology(TechNode::N45);
  const WireRc ss = extract_wire(t, WireLayer::Global, DesignStyle::SingleSpacing);
  const WireRc sh = extract_wire(t, WireLayer::Global, DesignStyle::Shielded);
  EXPECT_DOUBLE_EQ(sh.cap_couple_per_m, 0.0);
  EXPECT_NEAR(sh.cap_ground_per_m, ss.cap_ground_per_m + 2.0 * ss.cap_couple_per_m,
              1e-18);
  EXPECT_GT(sh.pitch, ss.pitch);  // shields cost routing area
  EXPECT_DOUBLE_EQ(sh.res_per_m, ss.res_per_m);
}

TEST(WireExtraction, DoubleSpacingCutsCoupling) {
  const Technology& t = technology(TechNode::N45);
  const WireRc ss = extract_wire(t, WireLayer::Global, DesignStyle::SingleSpacing);
  const WireRc ds = extract_wire(t, WireLayer::Global, DesignStyle::DoubleSpacing);
  EXPECT_LT(ds.cap_couple_per_m, 0.6 * ss.cap_couple_per_m);
  EXPECT_GT(ds.pitch, ss.pitch);
}

TEST(WireExtraction, StyleNames) {
  EXPECT_EQ(design_style_name(DesignStyle::SingleSpacing), "SS");
  EXPECT_EQ(design_style_name(DesignStyle::DoubleSpacing), "DS");
  EXPECT_EQ(design_style_name(DesignStyle::Shielded), "SH");
}

// ---------------------------------------------------------------- techfile

class TechfileRoundTrip : public ::testing::TestWithParam<TechNode> {};

TEST_P(TechfileRoundTrip, WriteParsePreservesEverything) {
  const Technology& t = technology(GetParam());
  const Technology r = parse_techfile(write_techfile(t));
  EXPECT_EQ(r.node, t.node);
  EXPECT_EQ(r.name, t.name);
  EXPECT_DOUBLE_EQ(r.vdd, t.vdd);
  EXPECT_DOUBLE_EQ(r.pn_ratio, t.pn_ratio);
  EXPECT_DOUBLE_EQ(r.unit_nmos_width, t.unit_nmos_width);
  EXPECT_DOUBLE_EQ(r.clock_frequency, t.clock_frequency);
  EXPECT_DOUBLE_EQ(r.nmos.k_sat, t.nmos.k_sat);
  EXPECT_DOUBLE_EQ(r.nmos.vth, t.nmos.vth);
  EXPECT_DOUBLE_EQ(r.pmos.c_gate, t.pmos.c_gate);
  EXPECT_DOUBLE_EQ(r.interconnect.global.width, t.interconnect.global.width);
  EXPECT_DOUBLE_EQ(r.interconnect.intermediate.ild_height,
                   t.interconnect.intermediate.ild_height);
  EXPECT_DOUBLE_EQ(r.interconnect.barrier_thickness, t.interconnect.barrier_thickness);
  EXPECT_DOUBLE_EQ(r.area.row_height, t.area.row_height);
}

INSTANTIATE_TEST_SUITE_P(AllNodes, TechfileRoundTrip,
                         ::testing::ValuesIn(all_tech_nodes()));

TEST(Techfile, RejectsMalformedInput) {
  EXPECT_THROW(parse_techfile(""), Error);
  EXPECT_THROW(parse_techfile("technology \"90nm\" {\n vdd 1.2\n"), Error);  // unterminated
  EXPECT_THROW(parse_techfile("nottech \"90nm\" {\n}\n"), Error);
  // Missing required field.
  std::string text = write_techfile(technology(TechNode::N90));
  const size_t pos = text.find("  vdd");
  text.erase(pos, text.find('\n', pos) - pos + 1);
  EXPECT_THROW(parse_techfile(text), Error);
}

TEST(Techfile, CommentsAndBlankLinesIgnored) {
  std::string text = write_techfile(technology(TechNode::N32));
  text.insert(0, "# a leading comment\n\n");
  const Technology r = parse_techfile(text);
  EXPECT_EQ(r.node, TechNode::N32);
}

TEST(Techfile, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/pim_techfile_test.tech";
  save_techfile(technology(TechNode::N22), path);
  const Technology r = load_techfile(path);
  EXPECT_EQ(r.node, TechNode::N22);
  EXPECT_THROW(load_techfile("/nonexistent/dir/x.tech"), Error);
}

TEST(TechHash, ContentHashMatchesTechfileBytesAndIsStable) {
  const Technology& t = technology(TechNode::N45);
  const std::string h = technology_content_hash(t);
  EXPECT_EQ(h, cache::sha256_hex(write_techfile(t)));
  // Registry instances memoize; the repeat answer must not drift.
  EXPECT_EQ(technology_content_hash(t), h);
  // A local (unregistered) copy hashes identically — the memo is a perf
  // shortcut for registry-stable instances, not a semantic change.
  Technology copy = t;
  EXPECT_EQ(technology_content_hash(copy), h);
  // Any content edit moves the hash.
  copy.vdd *= 1.01;
  EXPECT_NE(technology_content_hash(copy), h);
}

TEST(TechSpec, BuiltinNamesResolveToTheRegistry) {
  EXPECT_TRUE(is_builtin_tech_spec("45nm"));
  EXPECT_TRUE(is_builtin_tech_spec("45"));
  EXPECT_FALSE(is_builtin_tech_spec("44nm"));
  EXPECT_FALSE(is_builtin_tech_spec("/tmp/nope.tech"));
  // Builtin specs return the registry instance itself, so flows keyed on
  // either path share cache entries byte for byte.
  EXPECT_EQ(&technology_from_spec("45nm"), &technology(TechNode::N45));
  EXPECT_EQ(&technology_from_spec("45"), &technology(TechNode::N45));
  EXPECT_THROW(technology_from_spec("/nonexistent/dir/x.tech"), Error);
}

TEST(TechSpec, FileSpecsReloadOnEditAndMemoizeByContent) {
  const std::string path = testing::TempDir() + "/pim_tech_spec_test.tech";
  const Technology& base = technology(TechNode::N65);
  save_techfile(base, path);
  const Technology& a = technology_from_spec(path);
  EXPECT_EQ(technology_content_hash(a), technology_content_hash(base));
  // Unchanged content parses once: same stable reference on re-read.
  EXPECT_EQ(&a, &technology_from_spec(path));
  // An on-disk edit is picked up on the next resolution — this is what
  // `pim cache diff <edited.tech>` keys invalidation from.
  Technology edited = base;
  edited.nmos.vth *= 1.05;
  save_techfile(edited, path);
  const Technology& b = technology_from_spec(path);
  EXPECT_NE(&a, &b);
  EXPECT_NE(technology_content_hash(b), technology_content_hash(a));
  std::filesystem::remove(path);
}

TEST(TechFacets, PerCornerFacetsTrackDeratedContent) {
  const Technology& base = technology(TechNode::N45);
  const std::vector<cache::Facet> facets = technology_facets(base);
  const std::vector<Corner>& corners = base.scenario_set().corners();
  ASSERT_EQ(facets.size(), 2 * corners.size());
  // Per corner: a tech facet carrying the derated descriptor's content
  // hash, then a corner facet carrying the full-precision cache id.
  for (size_t i = 0; i < corners.size(); ++i) {
    const cache::Facet& tech_facet = facets[2 * i];
    const cache::Facet& corner_facet = facets[2 * i + 1];
    EXPECT_EQ(tech_facet.type, "tech");
    EXPECT_EQ(tech_facet.name, base.name + "@" + corners[i].name);
    EXPECT_EQ(tech_facet.id, technology_content_hash(base.derated(corners[i])));
    EXPECT_EQ(corner_facet.type, "corner");
    EXPECT_EQ(corner_facet.name, corners[i].name);
    EXPECT_EQ(corner_facet.id, corners[i].cache_id());
  }
  // A base edit moves every per-corner tech hash (the whole cone goes
  // stale); the corner ids stay put.
  Technology edited = base;
  edited.vdd *= 1.02;
  const std::vector<cache::Facet> after = technology_facets(edited);
  for (size_t i = 0; i < corners.size(); ++i) {
    EXPECT_NE(after[2 * i].id, facets[2 * i].id);
    EXPECT_EQ(after[2 * i + 1].id, facets[2 * i + 1].id);
  }
}

TEST(TechFacets, CornerRetuneMovesOnlyThatCornersCone) {
  // A techfile-defined corner set: the corners block must NOT feed the
  // per-corner content hashes (technology_content_hash strips it), or a
  // one-corner retune would shift every corner's tech facet and dirty
  // the whole cache instead of just that corner's cone.
  Technology base = technology(TechNode::N45);
  Corner slow;
  slow.name = "slow";
  slow.nmos_strength = 0.9;
  slow.pmos_strength = 0.9;
  base.corners = ScenarioSet({Corner{}, slow});
  const std::vector<cache::Facet> before = technology_facets(base);
  ASSERT_EQ(before.size(), 4u);  // nominal + slow, tech + corner each
  // Hash identity ignores the corner set: nominal's derated content is
  // the base itself, so its hash matches the builtin-set descriptor's.
  EXPECT_EQ(before[0].id, technology_content_hash(technology(TechNode::N45)));
  // Retune the slow corner only.
  Technology edited = base;
  slow.nmos_strength = 0.8;
  edited.corners = ScenarioSet({Corner{}, slow});
  const std::vector<cache::Facet> after = technology_facets(edited);
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[0].id, before[0].id);  // nominal tech hash untouched
  EXPECT_EQ(after[1].id, before[1].id);  // nominal corner id untouched
  EXPECT_NE(after[2].id, before[2].id);  // slow derated content moved
  EXPECT_NE(after[3].id, before[3].id);  // slow cache_id moved
}

TEST(CornerTechnologyTest, MatchesDeratedBaseAndIsStable) {
  const Technology& base = technology(TechNode::N45);
  const Corner& ss = base.scenario_set().corner("ss");
  const Technology& derated = corner_technology(base, ss);
  // The registry entry is exactly base.derated(ss), so fits keyed on the
  // derated content match a direct derate of the same base.
  EXPECT_EQ(write_techfile(derated), write_techfile(base.derated(ss)));
  // Registry-stable: repeated resolution returns the same instance.
  EXPECT_EQ(&derated, &corner_technology(base, ss));
}

}  // namespace
}  // namespace pim
