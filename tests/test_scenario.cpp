// Tests for the pim::scenario layer — process corners threaded through
// tech derating, per-corner characterization/fitting (with per-corner
// content caching), corner-indexed models, multi-corner signoff, and
// corner-aware Monte-Carlo — plus the Liberty round-trip at a derated
// corner.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "buffering/optimize.hpp"
#include "cache/invalidate.hpp"
#include "cache/store.hpp"
#include "charlib/characterize.hpp"
#include "liberty/libertyfile.hpp"
#include "models/corners.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "sta/calibrated.hpp"
#include "sta/corners.hpp"
#include "sta/nldm_timer.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "fit_options.hpp"

namespace pim {
namespace {

using namespace pim::unit;

LinkContext link_ctx() {
  LinkContext c;
  c.length = 3 * mm;
  c.input_slew = 100 * ps;
  return c;
}

LinkDesign link_design() {
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 3;
  return d;
}

// Metric collection is off by default; counter assertions turn it on for
// their scope only.
struct MetricsOn {
  MetricsOn() { obs::set_enabled(true); }
  ~MetricsOn() { obs::set_enabled(false); }
};

// ------------------------------------------------------------- corners

TEST(Corner, DefaultIsNominal) {
  const Corner c;
  EXPECT_EQ(c.name, "nominal");
  EXPECT_TRUE(c.is_nominal());
  EXPECT_DOUBLE_EQ(c.nmos_strength, 1.0);
  EXPECT_DOUBLE_EQ(c.vdd_scale, 1.0);
}

TEST(Corner, IsNominalTracksFactorsNotName) {
  Corner renamed;
  renamed.name = "typ";
  EXPECT_TRUE(renamed.is_nominal());
  Corner off;
  off.wire_cap = 1.01;
  EXPECT_FALSE(off.is_nominal());
}

TEST(Corner, CacheIdCoversNameAndFactors) {
  const Corner a;
  Corner b;
  EXPECT_EQ(a.cache_id(), b.cache_id());
  b.name = "renamed";
  EXPECT_NE(a.cache_id(), b.cache_id());
  Corner c;
  c.leakage = 1.0000001;  // tiny re-tune must re-key
  EXPECT_NE(a.cache_id(), c.cache_id());
}

TEST(ScenarioSet, BuiltinCarriesTheClassicCorners) {
  const ScenarioSet& set = ScenarioSet::builtin();
  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set.corners()[0].name, "nominal");
  EXPECT_TRUE(set.corners()[0].is_nominal());
  for (const char* name : {"nominal", "ss", "ff", "sf", "fs"}) {
    EXPECT_NE(set.find(name), nullptr) << name;
  }
  const Corner& ss = set.corner("ss");
  EXPECT_LT(ss.nmos_strength, 1.0);
  EXPECT_LT(ss.pmos_strength, 1.0);
  EXPECT_GT(ss.device_cap, 1.0);
  EXPECT_LT(ss.leakage, 1.0);
  EXPECT_GT(ss.wire_res, 1.0);
  EXPECT_LT(ss.vdd_scale, 1.0);
  EXPECT_GT(ss.temperature_c, 100.0);
  const Corner& ff = set.corner("ff");
  EXPECT_GT(ff.nmos_strength, 1.0);
  EXPECT_GT(ff.leakage, 1.0);
  EXPECT_LT(ff.temperature_c, 0.0);
  // The mixed corners skew the polarities in opposite directions.
  const Corner& sf = set.corner("sf");
  EXPECT_LT(sf.nmos_strength, 1.0);
  EXPECT_GT(sf.pmos_strength, 1.0);
  const Corner& fs = set.corner("fs");
  EXPECT_GT(fs.nmos_strength, 1.0);
  EXPECT_LT(fs.pmos_strength, 1.0);
}

TEST(ScenarioSet, RejectsDuplicateOrEmptyNames) {
  Corner a;
  Corner b;
  b.name = "a";
  a.name = "a";
  EXPECT_THROW(ScenarioSet({a, b}), Error);
  Corner unnamed;
  unnamed.name = "";
  EXPECT_THROW(ScenarioSet({unnamed}), Error);
}

TEST(ScenarioSet, ResolveSpecs) {
  const ScenarioSet& set = ScenarioSet::builtin();
  const std::vector<Corner> nominal_only = set.resolve("");
  ASSERT_EQ(nominal_only.size(), 1u);
  EXPECT_EQ(nominal_only[0].name, "nominal");

  const std::vector<Corner> all = set.resolve("all");
  ASSERT_EQ(all.size(), set.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].name, set.corners()[i].name);

  const std::vector<Corner> pair = set.resolve("ff,ss");
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0].name, "ff");  // spec order, not set order
  EXPECT_EQ(pair[1].name, "ss");

  EXPECT_THROW(set.resolve("ss,bogus"), Error);
  EXPECT_THROW(set.corner("bogus"), Error);
  EXPECT_EQ(set.find("bogus"), nullptr);
}

// ------------------------------------------------------------ derating

TEST(Derating, NominalCornerIsBitIdentical) {
  const Technology& t = technology(TechNode::N65);
  const Technology d = t.derated(Corner{});
  EXPECT_DOUBLE_EQ(d.vdd, t.vdd);
  EXPECT_DOUBLE_EQ(d.nmos.k_sat, t.nmos.k_sat);
  EXPECT_DOUBLE_EQ(d.pmos.k_sat, t.pmos.k_sat);
  EXPECT_DOUBLE_EQ(d.nmos.c_gate, t.nmos.c_gate);
  EXPECT_DOUBLE_EQ(d.pmos.c_drain, t.pmos.c_drain);
  EXPECT_DOUBLE_EQ(d.interconnect.rho_bulk, t.interconnect.rho_bulk);
  EXPECT_DOUBLE_EQ(d.interconnect.global.k_dielectric, t.interconnect.global.k_dielectric);
  EXPECT_DOUBLE_EQ(d.interconnect.intermediate.k_dielectric,
                   t.interconnect.intermediate.k_dielectric);
}

TEST(Derating, FactorsScaleTheRightFields) {
  const Technology& t = technology(TechNode::N65);
  const Corner& ss = ScenarioSet::builtin().corner("ss");
  const Technology d = t.derated(ss);
  EXPECT_DOUBLE_EQ(d.vdd, t.vdd * ss.vdd_scale);
  EXPECT_DOUBLE_EQ(d.nmos.k_sat, t.nmos.k_sat * ss.nmos_strength);
  EXPECT_DOUBLE_EQ(d.pmos.k_sat, t.pmos.k_sat * ss.pmos_strength);
  EXPECT_DOUBLE_EQ(d.nmos.c_gate, t.nmos.c_gate * ss.device_cap);
  EXPECT_DOUBLE_EQ(d.nmos.c_drain, t.nmos.c_drain * ss.device_cap);
  EXPECT_DOUBLE_EQ(d.interconnect.rho_bulk, t.interconnect.rho_bulk * ss.wire_res);
  EXPECT_DOUBLE_EQ(d.interconnect.global.k_dielectric,
                   t.interconnect.global.k_dielectric * ss.wire_cap);
  // Geometry and layout are process-independent in this abstraction.
  EXPECT_DOUBLE_EQ(d.interconnect.global.width, t.interconnect.global.width);
  EXPECT_DOUBLE_EQ(d.area.feature_size, t.area.feature_size);
}

TEST(Derating, CornerTechnologyRegistryIsStable) {
  const Corner& ss = ScenarioSet::builtin().corner("ss");
  const Technology& base = technology(TechNode::N65);
  const Technology& a = corner_technology(base, ss);
  const Technology& b = corner_technology(base, ss);
  EXPECT_EQ(&a, &b);  // stable address: models may hold the pointer
  const Technology& ff = corner_technology(base, ScenarioSet::builtin().corner("ff"));
  EXPECT_NE(&a, &ff);
  // The registry's nominal entry matches the built-in descriptor.
  const Technology& nom = corner_technology(base, Corner{});
  EXPECT_DOUBLE_EQ(nom.vdd, base.vdd);
  EXPECT_DOUBLE_EQ(nom.nmos.k_sat, base.nmos.k_sat);
}

// ------------------------------------------------------------ techfile

TEST(TechfileCorners, BuiltinTechfileHasNoCornersBlock) {
  // Built-in descriptors carry no techfile corners, so their serialized
  // form must be byte-compatible with the pre-scenario format.
  const std::string text = write_techfile(technology(TechNode::N90));
  EXPECT_EQ(text.find("corners"), std::string::npos);
}

TEST(TechfileCorners, RoundTripPreservesCustomCorners) {
  Technology tech = technology(TechNode::N65);
  Corner hot;
  hot.name = "hot";
  hot.nmos_strength = 0.91;
  hot.pmos_strength = 0.93;
  hot.device_cap = 1.02;
  hot.leakage = 2.5;
  hot.wire_res = 1.07;
  hot.wire_cap = 1.01;
  hot.temperature_c = 110.0;
  hot.vdd_scale = 0.95;
  tech.corners = ScenarioSet({Corner{}, hot});

  const std::string text = write_techfile(tech);
  EXPECT_NE(text.find("corners"), std::string::npos);
  const Technology parsed = parse_techfile(text);
  ASSERT_EQ(parsed.corners.size(), 2u);
  ASSERT_NE(parsed.corners.find("hot"), nullptr);
  const Corner& r = parsed.corners.corner("hot");
  EXPECT_NEAR(r.nmos_strength, hot.nmos_strength, 1e-9);
  EXPECT_NEAR(r.pmos_strength, hot.pmos_strength, 1e-9);
  EXPECT_NEAR(r.device_cap, hot.device_cap, 1e-9);
  EXPECT_NEAR(r.leakage, hot.leakage, 1e-9);
  EXPECT_NEAR(r.wire_res, hot.wire_res, 1e-9);
  EXPECT_NEAR(r.wire_cap, hot.wire_cap, 1e-9);
  EXPECT_NEAR(r.temperature_c, hot.temperature_c, 1e-6);
  EXPECT_NEAR(r.vdd_scale, hot.vdd_scale, 1e-9);
  EXPECT_TRUE(parsed.corners.corner("nominal").is_nominal());
  // scenario_set() prefers the techfile block over the builtin set.
  EXPECT_EQ(parsed.scenario_set().size(), 2u);
  EXPECT_EQ(technology(TechNode::N65).scenario_set().size(), 5u);
}

TEST(TechfileCorners, ParseRequiresANominalCorner) {
  Technology tech = technology(TechNode::N65);
  Corner only;
  only.name = "hot";
  only.leakage = 2.0;
  tech.corners = ScenarioSet({only});
  EXPECT_THROW(parse_techfile(write_techfile(tech)), Error);
}

// ----------------------------------------------- per-corner calibration

// Calibrates nominal/ss/ff once for the whole suite (the expensive part)
// against a private cache directory so runs never touch the user cache.
class CornerFlowFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process suffix: ctest runs each test in its own process, and a
    // shared path would let one process's TearDownTestSuite remove_all
    // the cache out from under a sibling still reading it.
    dir_ = new std::string(::testing::TempDir() + "pim_scenario_cache_" +
                           std::to_string(::getpid()));
    std::filesystem::remove_all(*dir_);
    cache::set_dir(*dir_);
    cache::set_mode(cache::Mode::ReadWrite);
    cache::Store::global().clear_memory();

    const ScenarioSet& set = ScenarioSet::builtin();
    corners_ = new std::vector<Corner>{set.corner("nominal"), set.corner("ss"),
                                       set.corner("ff")};
    models_ = new std::vector<CornerModel>(
        corner_models(technology(TechNode::N65), *corners_, "",
                      trimmed_inverter_characterization(), trimmed_composition()));
    set_ = new CornerModelSet(*models_);
  }
  static void TearDownTestSuite() {
    delete set_;
    delete models_;
    delete corners_;
    clear_resident_fits();
    cache::Store::global().clear_memory();
    cache::reset_mode();
    cache::set_dir("");
    std::filesystem::remove_all(*dir_);
    delete dir_;
  }

  // The set's entry for corner `name`.
  static const CornerModel& at(const std::string& name) {
    for (const CornerModel& m : set_->models())
      if (m.corner.name == name) return m;
    throw std::out_of_range("no corner " + name);
  }

  static std::string* dir_;
  static std::vector<Corner>* corners_;
  static std::vector<CornerModel>* models_;
  static CornerModelSet* set_;
};

std::string* CornerFlowFixture::dir_ = nullptr;
std::vector<Corner>* CornerFlowFixture::corners_ = nullptr;
std::vector<CornerModel>* CornerFlowFixture::models_ = nullptr;
CornerModelSet* CornerFlowFixture::set_ = nullptr;

TEST_F(CornerFlowFixture, SlowAndFastCornersBracketNominal) {
  const double nominal = at("nominal").model->evaluate(link_ctx(), link_design()).delay;
  const double ss = at("ss").model->evaluate(link_ctx(), link_design()).delay;
  const double ff = at("ff").model->evaluate(link_ctx(), link_design()).delay;
  EXPECT_GT(ss, nominal);
  EXPECT_LT(ff, nominal);
}

TEST_F(CornerFlowFixture, NominalCornerFitMatchesCalibratedFit) {
  // A default Corner{} is the nominal corner: a plain calibrated_fit and
  // the set's nominal entry must be bit-identical coefficient sets.
  const TechnologyFit plain =
      calibrated_fit(technology(TechNode::N65), Corner{}, "",
                     trimmed_inverter_characterization(), trimmed_composition());
  const TechnologyFit& nominal = at("nominal").model->fit();
  EXPECT_DOUBLE_EQ(plain.vdd, nominal.vdd);
  EXPECT_DOUBLE_EQ(plain.gamma, nominal.gamma);
  EXPECT_DOUBLE_EQ(plain.inv_rise.a0, nominal.inv_rise.a0);
  EXPECT_DOUBLE_EQ(plain.inv_rise.rho0, nominal.inv_rise.rho0);
  EXPECT_DOUBLE_EQ(plain.leakage.n0, nominal.leakage.n0);
  EXPECT_DOUBLE_EQ(plain.leakage.p1, nominal.leakage.p1);
  EXPECT_DOUBLE_EQ(plain.area0, nominal.area0);
  EXPECT_DOUBLE_EQ(plain.comp_coupled.kappa_c, nominal.comp_coupled.kappa_c);
}

TEST_F(CornerFlowFixture, LeakageDerateScalesTheFittedCoefficients) {
  const TechnologyFit& nominal = at("nominal").model->fit();
  const Corner& ff = ScenarioSet::builtin().corner("ff");
  const TechnologyFit& fast = at("ff").model->fit();
  // FF leakage blows up both through the derated devices and the final
  // corner.leakage scale; it must land well above nominal.
  EXPECT_GT(fast.leakage.eval_avg(1e-6, 2e-6),
            ff.leakage * 0.5 * nominal.leakage.eval_avg(1e-6, 2e-6));
}

TEST_F(CornerFlowFixture, WarmPerCornerCacheIsBitIdenticalToCold) {
  const MetricsOn metrics;
  const Corner& ss = ScenarioSet::builtin().corner("ss");
  auto& hits = obs::registry().counter("corner.ss.fit.hit");
  const int64_t hits_before = hits.value();
  // Force the disk tier: the fixture computed this fit already, so a
  // fresh lookup after dropping the memory tier must replay the stored
  // payload bit-for-bit.
  cache::Store::global().clear_memory();
  const TechnologyFit warm =
      calibrated_fit(technology(TechNode::N65), ss, "",
                     trimmed_inverter_characterization(), trimmed_composition());
  EXPECT_EQ(hits.value(), hits_before + 1);
  const TechnologyFit& cold = at("ss").model->fit();
  EXPECT_DOUBLE_EQ(warm.vdd, cold.vdd);
  EXPECT_DOUBLE_EQ(warm.gamma, cold.gamma);
  EXPECT_DOUBLE_EQ(warm.inv_rise.a0, cold.inv_rise.a0);
  EXPECT_DOUBLE_EQ(warm.inv_rise.rho0, cold.inv_rise.rho0);
  EXPECT_DOUBLE_EQ(warm.inv_fall.b2, cold.inv_fall.b2);
  EXPECT_DOUBLE_EQ(warm.leakage.n0, cold.leakage.n0);
  EXPECT_DOUBLE_EQ(warm.leakage.p1, cold.leakage.p1);
  EXPECT_DOUBLE_EQ(warm.area0, cold.area0);
  EXPECT_DOUBLE_EQ(warm.area1, cold.area1);
  EXPECT_DOUBLE_EQ(warm.comp_coupled.kappa_c, cold.comp_coupled.kappa_c);
  EXPECT_DOUBLE_EQ(warm.comp_shielded.kappa_w, cold.comp_shielded.kappa_w);
  // Same model behavior, not just same stored numbers.
  const ProposedModel m(corner_technology(technology(TechNode::N65), ss), warm);
  EXPECT_DOUBLE_EQ(m.evaluate(link_ctx(), link_design()).delay,
                   at("ss").model->evaluate(link_ctx(), link_design()).delay);
}

TEST_F(CornerFlowFixture, CornerModelSetLookup) {
  EXPECT_EQ(set_->size(), 3u);
  EXPECT_EQ(set_->models().front().corner.name, "nominal");
  EXPECT_THROW(CornerModelSet(std::vector<CornerModel>{}), Error);
}

TEST_F(CornerFlowFixture, WorstCornerModelTakesPerMetricMax) {
  const WorstCornerModel worst{CornerModelSet(*models_)};
  EXPECT_EQ(worst.name(), "proposed@worst");
  EXPECT_NE(worst.cache_signature().find("worst("), std::string::npos);

  const LinkEstimate w = worst.evaluate(link_ctx(), link_design());
  double max_delay = 0.0;
  double max_leak = 0.0;
  for (const CornerModel& m : set_->models()) {
    const LinkEstimate e = m.model->evaluate(link_ctx(), link_design());
    max_delay = std::max(max_delay, e.delay);
    max_leak = std::max(max_leak, e.leakage_power);
  }
  EXPECT_DOUBLE_EQ(w.delay, max_delay);
  EXPECT_DOUBLE_EQ(w.leakage_power, max_leak);
  // Area is layout, not process: it reports the reference corner's value.
  EXPECT_DOUBLE_EQ(w.repeater_area,
                   set_->models().front().model->evaluate(link_ctx(), link_design()).repeater_area);
  // The slow corner dominates delay.
  EXPECT_DOUBLE_EQ(w.delay, at("ss").model->evaluate(link_ctx(), link_design()).delay);
}

// A composite model's cached results record every corner's fit as an
// upstream edge, in set order: each corner model carries the key its fit
// resolved under, and the worst-corner model hands all of them on.
TEST_F(CornerFlowFixture, WorstCornerBufferingRecordsEveryCornerFitKey) {
  std::vector<cache::CacheKey> fit_keys;
  for (const Corner& corner : *corners_) {
    const cache::Tracked scope;
    (void)calibrated_fit(technology(TechNode::N65), corner, "",
                         trimmed_inverter_characterization(), trimmed_composition());
    ASSERT_EQ(scope.upstream_keys().size(), 1u);
    fit_keys.push_back(scope.upstream_keys()[0]);
  }
  const WorstCornerModel worst{CornerModelSet(*models_)};
  BufferingOptions opt;
  opt.weight = 0.5;
  cache::CacheKey buffering_key;
  {
    const cache::Tracked scope;
    (void)optimize_buffering_cached(worst, link_ctx(), opt);
    ASSERT_EQ(scope.upstream_keys().size(), 1u);
    buffering_key = scope.upstream_keys()[0];
  }
  const cache::Manifest* manifest = nullptr;
  const std::vector<cache::Manifest> manifests = cache::scan_manifests(*dir_);
  for (const cache::Manifest& m : manifests)
    if (m.key.hex == buffering_key.hex) manifest = &m;
  ASSERT_NE(manifest, nullptr);
  ASSERT_EQ(manifest->upstream.size(), 3u);
  for (size_t i = 0; i < fit_keys.size(); ++i) {
    EXPECT_EQ(manifest->upstream[i].kind, "fit") << i;
    EXPECT_EQ(manifest->upstream[i].hex, fit_keys[i].hex) << (*corners_)[i].name;
  }
}

// A second corner_models over the same corners is served by the resident
// tier: the fixture's own instances, one resident hit per corner, and no
// store payload decoded.
TEST_F(CornerFlowFixture, WarmCornerModelsAreTheResidentInstances) {
  const MetricsOn metrics;
  obs::Counter& hits = obs::registry().counter("model.resident.hit");
  obs::Timer& decodes = obs::registry().timer("cache.decode");
  const int64_t hits_before = hits.value();
  const int64_t decodes_before = decodes.count();
  const std::vector<CornerModel> warm =
      corner_models(technology(TechNode::N65), *corners_, "",
                    trimmed_inverter_characterization(), trimmed_composition());
  ASSERT_EQ(warm.size(), models_->size());
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].corner.name, (*corners_)[i].name);
    EXPECT_EQ(warm[i].model, (*models_)[i].model) << (*corners_)[i].name;
  }
  EXPECT_EQ(hits.value() - hits_before, 3);
  EXPECT_EQ(decodes.count() - decodes_before, 0);
}

TEST_F(CornerFlowFixture, SignoffReportsWorstCornerAndBracketsNominal) {
  const CornerSignoffResult r = signoff_corners(*set_, link_ctx(), link_design());
  ASSERT_EQ(r.corners.size(), 3u);
  EXPECT_DOUBLE_EQ(r.target_period, 1.0 / link_ctx().frequency);
  EXPECT_EQ(r.worst().corner.name, "ss");

  double nominal_slack = 0.0, ss_slack = 0.0, ff_slack = 0.0;
  for (const CornerTiming& row : r.corners) {
    EXPECT_GT(row.delay, 0.0);
    EXPECT_GT(row.output_slew, 0.0);
    EXPECT_GT(row.noise_peak, 0.0);
    EXPECT_DOUBLE_EQ(row.slack, r.target_period - row.delay);
    if (row.corner.name == "nominal") nominal_slack = row.slack;
    if (row.corner.name == "ss") ss_slack = row.slack;
    if (row.corner.name == "ff") ff_slack = row.slack;
  }
  EXPECT_LT(ss_slack, nominal_slack);
  EXPECT_LT(nominal_slack, ff_slack);
  EXPECT_DOUBLE_EQ(r.worst_slack(), ss_slack);

  CornerSignoffOptions tight;
  tight.target_period = 10 * ps;  // far below any corner's delay
  const CornerSignoffResult t = signoff_corners(*set_, link_ctx(), link_design(), tight);
  EXPECT_LT(t.worst_slack(), 0.0);
  EXPECT_DOUBLE_EQ(t.target_period, 10 * ps);
}

TEST_F(CornerFlowFixture, MonteCarloAtNominalCornerMatchesCachedFlow) {
  const ProposedModel& model = *at("nominal").model;
  const MonteCarloResult direct =
      monte_carlo_link_cached(model, link_ctx(), link_design(), 200, 7);
  const MonteCarloResult at_nominal = monte_carlo_link_at_corner(
      model, Corner{}, link_ctx(), link_design(), 200, 7);
  ASSERT_EQ(at_nominal.delays.size(), direct.delays.size());
  for (size_t i = 0; i < direct.delays.size(); ++i) {
    EXPECT_DOUBLE_EQ(at_nominal.delays[i], direct.delays[i]) << i;
  }
  EXPECT_DOUBLE_EQ(at_nominal.mean_delay, direct.mean_delay);
  EXPECT_DOUBLE_EQ(at_nominal.sigma_delay, direct.sigma_delay);
  EXPECT_DOUBLE_EQ(at_nominal.nominal_delay, direct.nominal_delay);
}

TEST_F(CornerFlowFixture, MonteCarloAtSlowCornerShiftsTheDistribution) {
  const MetricsOn metrics;
  const Corner& ss = ScenarioSet::builtin().corner("ss");
  auto& samples = obs::registry().counter("corner.ss.mc.samples");
  const int64_t before = samples.value();
  const MonteCarloResult slow = monte_carlo_link_at_corner(
      *at("ss").model, ss, link_ctx(), link_design(), 200, 7);
  EXPECT_EQ(samples.value(), before + 200);
  const MonteCarloResult nominal = monte_carlo_link_at_corner(
      *at("nominal").model, Corner{}, link_ctx(), link_design(), 200, 7);
  EXPECT_GT(slow.mean_delay, nominal.mean_delay);
  EXPECT_GT(slow.nominal_delay, nominal.nominal_delay);
}

// -------------------------------------- Liberty round-trip at a corner

TEST(LibertyAtCorner, ExportTimerRoundTripAtSlowCorner) {
  const Corner& ss = ScenarioSet::builtin().corner("ss");
  const Technology& ss_tech = corner_technology(technology(TechNode::N65), ss);
  CharacterizationOptions copt;
  copt.drives = {8};
  copt.buffers = false;
  const CellLibrary lib = characterize_library(ss_tech, copt);
  const CellLibrary reparsed = parse_liberty(write_liberty(lib));

  LinkContext ctx;
  ctx.length = 2 * mm;
  ctx.input_slew = 100 * ps;
  LinkDesign d;
  d.drive = 8;
  d.num_repeaters = 2;
  const NldmTimerResult direct = nldm_link_delay(lib, ss_tech, ctx, d);
  const NldmTimerResult round = nldm_link_delay(reparsed, ss_tech, ctx, d);
  EXPECT_GT(direct.delay, 0.0);
  EXPECT_NEAR(round.delay, direct.delay, 1e-6 * direct.delay);
  EXPECT_NEAR(round.output_slew, direct.output_slew, 1e-6 * direct.output_slew);

  // The derated library is genuinely slower than the nominal one.
  const CellLibrary nominal_lib = characterize_library(technology(TechNode::N65), copt);
  const NldmTimerResult nominal = nldm_link_delay(nominal_lib, technology(TechNode::N65), ctx, d);
  EXPECT_GT(direct.delay, nominal.delay);
}

}  // namespace
}  // namespace pim
