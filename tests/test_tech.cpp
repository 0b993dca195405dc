// Tests for pim::tech — technology descriptors, wire extraction physics,
// and tech-file round trips; plus the block-text formats (.tech, .pimfit,
// cache payloads): pinned bytes, strict keys and hostile input.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cache/memoize.hpp"
#include "cache/sha256.hpp"
#include "charlib/coeffs_io.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"
#include "tech/wire.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

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
  const auto r_of = [&](const WireModelOptions& options,
                        WireLayer layer = WireLayer::Global) {
    return extract_wire(t, layer, DesignStyle::SingleSpacing, options).res_per_m;
  };
  const double r_full = r_of(full);
  EXPECT_GT(r_full, r_of(no_scatter));
  EXPECT_GT(r_full, r_of(no_barrier));
  EXPECT_GT(r_full, r_of(bare));
  // Intermediate wires are narrower, hence more resistive.
  EXPECT_GT(r_of(full, WireLayer::Intermediate), r_full);
}

INSTANTIATE_TEST_SUITE_P(AllNodes, WireResistanceTest,
                         ::testing::ValuesIn(all_tech_nodes()));

TEST(WireResistance, GrowsAcrossNodes) {
  double prev = 0.0;
  for (TechNode n : all_tech_nodes()) {
    const double r = extract_wire(technology(n), WireLayer::Global,
                                  DesignStyle::SingleSpacing)
                         .res_per_m;
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

// ------------------------------------------------------ block-text formats

// The tech-file and .pimfit bytes are the content identity behind every
// fit cache key (technology_content_hash, the model signature's
// coeff_hash), so a codec change must not move a single byte of them.
TEST(TechfileGolden, BuiltinNodeBytesArePinned) {
  const std::vector<std::pair<TechNode, const char*>> pins = {
      {TechNode::N90, "2b9b7a4a589bb9a926615420fb323419c262c60205b9e74c2171b9ab5a7cf405"},
      {TechNode::N65, "2f28ea060605879c5fc53b2864d742da49620a225dacac2b28acd1f78d19b916"},
      {TechNode::N45, "50812e76033476e3b40d9b9f3ea0ba206686399666ac03f0e860495ac81beda8"},
      {TechNode::N32, "4bca8a0057ddc3b0f357f4be58d7e0af6caaa68d65b71ba75fb46b8dc5358a53"},
      {TechNode::N22, "93a3cb366c5079a6e2adfe1e6f7db5d049057b8321d755537043810d273b66fe"},
      {TechNode::N16, "86bdcec40984bdb1dc4043738b1d3d0a505d181934b0b9fb911f979cdb447e45"},
  };
  for (const auto& [node, sha] : pins)
    EXPECT_EQ(cache::sha256_hex(write_techfile(technology(node))), sha)
        << tech_node_name(node);
}

// 45nm with a techfile-defined corner set, in set (not name) order.
Technology tech_with_corners() {
  Technology t = technology(TechNode::N45);
  Corner slow;
  slow.name = "slow";
  slow.nmos_strength = 0.85;
  slow.pmos_strength = 0.9;
  slow.wire_res = 1.1;
  slow.temperature_c = 125.0;
  slow.vdd_scale = 0.9;
  Corner fast;
  fast.name = "fast";
  fast.nmos_strength = 1.0 / 0.85;
  fast.device_cap = 0.95;
  fast.leakage = 3.0;
  t.corners = ScenarioSet({Corner{}, slow, fast});
  return t;
}

TEST(TechfileGolden, CustomCornersBytesArePinned) {
  const std::string text = write_techfile(tech_with_corners());
  EXPECT_EQ(cache::sha256_hex(text),
            "c38fb2c2790f850a01ba0a790d75b70722447cd5c9cea8de42f1bac3c8fec935");
  EXPECT_NE(text.find("    fast {\n      nmos_strength 1.17647058824\n"),
            std::string::npos);
  // Parsed corner sets come back sorted by name.
  const Technology r = parse_techfile(text);
  ASSERT_EQ(r.corners.size(), 3u);
  EXPECT_EQ(r.corners.corners()[0].name, "fast");
  EXPECT_EQ(r.corners.corners()[1].name, "nominal");
  EXPECT_EQ(r.corners.corners()[2].name, "slow");
  EXPECT_EQ(r.corners.corner("slow").temperature_c, 125.0);
}

TechnologyFit hand_built_fit() {
  TechnologyFit f;
  f.node = TechNode::N32;
  f.vdd = 0.9;
  f.gamma = 1.0e-9 / 3.0;
  f.leakage = {1e-8, 0.125, -2.5e-9, 1.0 / 7.0};
  f.area0 = 1.5e-13;
  f.area1 = 2.0e-6 / 3.0;
  f.comp_coupled = {1.05, 0.97, 0.5, 0.0123};
  f.comp_shielded = {1.0, 1.0 / 3.0, 0.25, 0.0};
  f.inv_rise = {1.0, 0.1, 2e9, 1234.5, 1e-8, 1.5e-11, 0.55, 3e-5, 0.999, 0.987654321};
  f.inv_fall = f.inv_rise;
  f.inv_fall.a0 = 1.1;
  f.buf_rise = f.inv_rise;
  f.buf_rise.b0 = 2.0e-11 / 3.0;
  f.buf_fall = f.inv_rise;
  f.buf_fall.rho1 = -4.25e-9;
  return f;
}

const char* const kGoldenFit =
    "coefficients \"32nm\" {\n"
    "  vdd 0.90000000000000002\n"
    "  gamma 3.3333333333333337e-10\n"
    "  leak_n0 1e-08\n"
    "  leak_n1 0.125\n"
    "  leak_p0 -2.5000000000000001e-09\n"
    "  leak_p1 0.14285714285714285\n"
    "  area0 1.4999999999999999e-13\n"
    "  area1 6.666666666666666e-07\n"
    "  kappa_c_coupled 1.05\n"
    "  kappa_c1_coupled 0.96999999999999997\n"
    "  kappa_w_coupled 0.5\n"
    "  worst_err_coupled 0.0123\n"
    "  kappa_c_shielded 1\n"
    "  kappa_c1_shielded 0.33333333333333331\n"
    "  kappa_w_shielded 0.25\n"
    "  worst_err_shielded 0\n"
    "  inv_rise {\n"
    "    a0 1\n"
    "    a1 0.10000000000000001\n"
    "    a2 2000000000\n"
    "    rho0 1234.5\n"
    "    rho1 1e-08\n"
    "    b0 1.5e-11\n"
    "    b1 0.55000000000000004\n"
    "    b2 3.0000000000000001e-05\n"
    "    r2_intrinsic 0.999\n"
    "    r2_drive_res 0.98765432099999995\n"
    "  }\n"
    "  inv_fall {\n"
    "    a0 1.1000000000000001\n"
    "    a1 0.10000000000000001\n"
    "    a2 2000000000\n"
    "    rho0 1234.5\n"
    "    rho1 1e-08\n"
    "    b0 1.5e-11\n"
    "    b1 0.55000000000000004\n"
    "    b2 3.0000000000000001e-05\n"
    "    r2_intrinsic 0.999\n"
    "    r2_drive_res 0.98765432099999995\n"
    "  }\n"
    "  buf_rise {\n"
    "    a0 1\n"
    "    a1 0.10000000000000001\n"
    "    a2 2000000000\n"
    "    rho0 1234.5\n"
    "    rho1 1e-08\n"
    "    b0 6.6666666666666663e-12\n"
    "    b1 0.55000000000000004\n"
    "    b2 3.0000000000000001e-05\n"
    "    r2_intrinsic 0.999\n"
    "    r2_drive_res 0.98765432099999995\n"
    "  }\n"
    "  buf_fall {\n"
    "    a0 1\n"
    "    a1 0.10000000000000001\n"
    "    a2 2000000000\n"
    "    rho0 1234.5\n"
    "    rho1 -4.25e-09\n"
    "    b0 1.5e-11\n"
    "    b1 0.55000000000000004\n"
    "    b2 3.0000000000000001e-05\n"
    "    r2_intrinsic 0.999\n"
    "    r2_drive_res 0.98765432099999995\n"
    "  }\n"
    "}\n";

TEST(FitGolden, HandBuiltFitBytesArePinned) {
  const TechnologyFit f = hand_built_fit();
  EXPECT_EQ(write_fit(f), kGoldenFit);
  const TechnologyFit r = parse_fit(kGoldenFit);
  EXPECT_EQ(r.node, f.node);
  EXPECT_EQ(r.gamma, f.gamma);
  EXPECT_EQ(r.leakage.p1, f.leakage.p1);
  EXPECT_EQ(r.comp_shielded.kappa_c1, f.comp_shielded.kappa_c1);
  EXPECT_EQ(r.buf_rise.b0, f.buf_rise.b0);
  EXPECT_EQ(r.buf_fall.rho1, f.buf_fall.rho1);
  EXPECT_EQ(write_fit(r), kGoldenFit);
}

// The coefficient files the repo ships still load under the strict reader.
TEST(FitGolden, ShippedCoefficientFilesLoad) {
  for (const char* file :
       {"/e2ebench/data/coeffs_65nm.pimfit", "/bench_out/coeffs_65nm.pimfit"})
    EXPECT_EQ(load_fit(std::string(PIM_SOURCE_DIR) + file).node, TechNode::N65) << file;
}

// Runs `parse` and expects an io_parse Error whose message names `needle`,
// and `line` unless it is 0.
template <typename F>
void expect_parse_error(F&& parse, const std::string& needle, int line) {
  try {
    parse();
    ADD_FAILURE() << "parsed; expected an error naming " << needle;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_parse) << e.what();
    EXPECT_NE(e.message().find(needle), std::string::npos) << e.what();
    if (line > 0) {
      EXPECT_NE(e.message().find("line " + std::to_string(line) + ":"), std::string::npos)
          << e.what();
    }
  }
}

// `text` with `insert` placed before the first line that starts with `at`.
std::string insert_before(std::string text, const std::string& at,
                          const std::string& insert) {
  const size_t pos = text.find("\n" + at);
  EXPECT_NE(pos, std::string::npos) << at;
  return text.insert(pos + 1, insert);
}

TEST(TechfileStrict, TypoedCornerFieldIsRejected) {
  // Parsed leniently, this signed `slow` off at nominal strength.
  const std::string text = insert_before(write_techfile(technology(TechNode::N45)), "}",
                                         "  corners {\n"
                                         "    nominal {\n"
                                         "    }\n"
                                         "    slow {\n"
                                         "      nmos_strenght 0.85\n"
                                         "    }\n"
                                         "  }\n");
  expect_parse_error([&] { parse_techfile(text); }, "unknown key 'nmos_strenght'", 54);
}

TEST(TechfileStrict, SparseCornersStillParse) {
  const std::string text = insert_before(write_techfile(technology(TechNode::N45)), "}",
                                         "  corners {\n"
                                         "    nominal {\n"
                                         "    }\n"
                                         "    ss {\n"
                                         "      nmos_strength 0.85\n"
                                         "    }\n"
                                         "  }\n");
  const Technology r = parse_techfile(text);
  EXPECT_TRUE(r.corners.corner("nominal").is_nominal());
  EXPECT_EQ(r.corners.corner("ss").nmos_strength, 0.85);
  EXPECT_EQ(r.corners.corner("ss").pmos_strength, 1.0);
}

TEST(TechfileStrict, DuplicateFieldIsRejected) {
  const std::string tech = write_techfile(technology(TechNode::N45));
  const std::string text = insert_before(tech, "  pn_ratio", "  vdd 2.0\n");
  expect_parse_error([&] { parse_techfile(text); }, "duplicate key 'vdd'", 3);
}

TEST(TechfileStrict, UnknownBlocksAreRejected) {
  const std::string tech = write_techfile(technology(TechNode::N45));
  const std::string inner = insert_before(tech, "  nmos", "  thermal {\n    k 1\n  }\n");
  expect_parse_error([&] { parse_techfile(inner); },
                     "unknown block 'thermal' in block 'technology'", 6);
  expect_parse_error([&] { parse_techfile(tech + "thermal {\n}\n"); },
                     "unknown block 'thermal'", 51);
}

TEST(TechfileStrict, MalformedLinesAreIoParseErrors) {
  const std::string tech = write_techfile(technology(TechNode::N45));
  std::string garbled = tech;
  garbled.replace(garbled.find("vdd 1.1"), 7, "vdd 1.1 volts");
  expect_parse_error([&] { parse_techfile(garbled); }, "key 'vdd'", 2);
  std::string label = tech;
  label.replace(label.find("45nm"), 4, "28nm");
  expect_parse_error([&] { parse_techfile(label); }, "unknown technology '28nm'", 0);
}

TEST(FitStrict, UnknownKeyIsRejected) {
  const std::string text = insert_before(kGoldenFit, "  area0", "  area2 1e-13\n");
  expect_parse_error([&] { parse_fit(text); },
                     "unknown key 'area2' in block 'coefficients'", 8);
}

// Every byte-length prefix of a well-formed text either parses or throws
// an io_parse Error: never another code, never a crash (the sanitizer run
// in scripts/check_sanitize.sh covers this test).
template <typename F>
void expect_prefixes_parse_or_fail_cleanly(const std::string& text, F&& parse) {
  for (size_t n = 0; n <= text.size(); ++n) {
    try {
      parse(text.substr(0, n));
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::io_parse) << "prefix " << n << ": " << e.what();
    }
  }
}

TEST(BlockTextHostile, EveryPrefixParsesOrThrowsIoParse) {
  expect_prefixes_parse_or_fail_cleanly(write_techfile(technology(TechNode::N45)),
                                        [](const std::string& t) { parse_techfile(t); });
  expect_prefixes_parse_or_fail_cleanly(write_techfile(tech_with_corners()),
                                        [](const std::string& t) { parse_techfile(t); });
  expect_prefixes_parse_or_fail_cleanly(kGoldenFit,
                                        [](const std::string& t) { parse_fit(t); });
  MonteCarloResult mc;
  for (int i = 0; i < 64; ++i) mc.delays.push_back(1e-10 + i * 1e-12 / 3.0);
  mc.nominal_delay = 1.2e-10;
  mc.mean_delay = 1.3e-10;
  mc.sigma_delay = 1e-11 / 3.0;
  mc.mean_power = 3e-3;
  mc.failed_samples = 2;
  expect_prefixes_parse_or_fail_cleanly(
      cache::Payload<MonteCarloResult>::encode(mc),
      [](const std::string& t) { cache::Payload<MonteCarloResult>::decode(t); });
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
