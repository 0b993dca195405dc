// Tests for pim::models — link vocabulary, area models, the proposed
// model's behavior, and the baseline models' characteristic blind spots.
#include <gtest/gtest.h>

#include "charlib/characterize.hpp"
#include "models/area.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "sta/calibrated.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

#include "fit_options.hpp"

namespace pim {
namespace {

using namespace pim::unit;

// Shared calibrated fit at 65 nm (characterization is the slow part).
class ModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = &technology(TechNode::N65);
    fit_ = new TechnologyFit(calibrated_fit(*tech_, Corner{}, "", trimmed_characterization(),
                                            trimmed_composition()));
    model_ = new ProposedModel(*tech_, *fit_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fit_;
    model_ = nullptr;
    fit_ = nullptr;
  }

  static LinkContext context(double length_mm) {
    LinkContext ctx;
    ctx.length = length_mm * mm;
    ctx.input_slew = 100 * ps;
    ctx.frequency = 2.25 * GHz;
    return ctx;
  }

  static const Technology* tech_;
  static TechnologyFit* fit_;
  static ProposedModel* model_;
};

const Technology* ModelFixture::tech_ = nullptr;
TechnologyFit* ModelFixture::fit_ = nullptr;
ProposedModel* ModelFixture::model_ = nullptr;

TEST(LinkGeometryTest, ValidatesAndDerives) {
  const Technology& t = technology(TechNode::N90);
  LinkContext ctx;
  ctx.length = 2.0 * mm;
  LinkDesign d;
  d.num_repeaters = 4;
  const LinkGeometry g(t, ctx, d);
  EXPECT_DOUBLE_EQ(g.segment_length, 0.5 * mm);
  EXPECT_NEAR(g.seg_res, g.rc.res_per_m * 0.5 * mm, 1e-9);
  EXPECT_NEAR(g.seg_cap_couple_total, 2.0 * g.rc.cap_couple_per_m * 0.5 * mm, 1e-25);

  LinkContext bad = ctx;
  bad.length = 0.0;
  EXPECT_THROW(LinkGeometry(t, bad, d), Error);
  LinkDesign bad_d = d;
  bad_d.num_repeaters = 0;
  EXPECT_THROW(LinkGeometry(t, ctx, bad_d), Error);
}

// ------------------------------------------------------------------ area

TEST(AreaModels, PredictiveTracksGoldenStaircase) {
  const Technology& t = technology(TechNode::N45);
  for (int drive : {2, 8, 16, 48}) {
    const RepeaterSizing sz = repeater_sizing(t, CellKind::Inverter, drive);
    const double golden = golden_cell_area(t, sz.wn_out, sz.wp_out);
    const double predicted = predictive_repeater_area(t, sz.wn_out, sz.wp_out);
    // Continuous model sits within the quantization step of the staircase.
    EXPECT_LT(predicted, golden * 1.05) << drive;
    EXPECT_GT(predicted, golden * 0.5) << drive;
  }
}

TEST(AreaModels, BusAreaScalesWithBitsAndLength) {
  const Technology& t = technology(TechNode::N65);
  const double a1 = bus_wire_area(t, WireLayer::Global, DesignStyle::SingleSpacing, 64, 1 * mm);
  const double a2 = bus_wire_area(t, WireLayer::Global, DesignStyle::SingleSpacing, 128, 1 * mm);
  const double a3 = bus_wire_area(t, WireLayer::Global, DesignStyle::SingleSpacing, 64, 2 * mm);
  EXPECT_GT(a2, 1.8 * a1);
  EXPECT_LT(a2, 2.2 * a1);
  EXPECT_NEAR(a3, 2.0 * a1, 0.01 * a1);
  // Shielding pays extra tracks.
  EXPECT_GT(bus_wire_area(t, WireLayer::Global, DesignStyle::Shielded, 64, 1 * mm), 1.5 * a1);
  EXPECT_THROW(bus_wire_area(t, WireLayer::Global, DesignStyle::SingleSpacing, 0, 1 * mm), Error);
}

// -------------------------------------------------------------- proposed

TEST_F(ModelFixture, DelayGrowsWithLength) {
  LinkDesign d;
  d.drive = 16;
  double prev = 0.0;
  for (double len : {1.0, 2.0, 5.0, 10.0}) {
    LinkContext ctx = context(len);
    d.num_repeaters = static_cast<int>(len);
    const double delay = model_->evaluate(ctx, d).delay;
    EXPECT_GT(delay, prev);
    prev = delay;
  }
}

TEST_F(ModelFixture, RepeaterCountHasInteriorOptimum) {
  // For a long wire the delay-vs-N curve dips and rises again.
  const LinkContext ctx = context(10.0);
  LinkDesign d;
  d.drive = 32;
  std::vector<double> delays;
  for (int n = 1; n <= 40; ++n) {
    d.num_repeaters = n;
    delays.push_back(model_->evaluate(ctx, d).delay);
  }
  const auto best = std::min_element(delays.begin(), delays.end());
  const size_t best_n = static_cast<size_t>(best - delays.begin()) + 1;
  EXPECT_GT(best_n, 1u);
  EXPECT_LT(best_n, 40u);
  EXPECT_LT(*best, delays.front());
  EXPECT_LT(*best, delays.back());
}

TEST_F(ModelFixture, StaggeringRemovesCouplingFromDelayOnly) {
  const LinkContext ctx = context(5.0);
  LinkDesign worst;
  worst.drive = 16;
  worst.num_repeaters = 5;
  LinkDesign staggered = worst;
  staggered.miller_factor = 0.0;
  const LinkEstimate e_worst = model_->evaluate(ctx, worst);
  const LinkEstimate e_stag = model_->evaluate(ctx, staggered);
  EXPECT_LT(e_stag.delay, e_worst.delay);
  // Energy counts the physical capacitance either way.
  EXPECT_DOUBLE_EQ(e_stag.switched_cap, e_worst.switched_cap);
}

TEST_F(ModelFixture, DynamicPowerProportionalToActivityAndFrequency) {
  LinkContext ctx = context(3.0);
  LinkDesign d;
  d.num_repeaters = 3;
  ctx.activity = 0.1;
  const double p1 = model_->evaluate(ctx, d).dynamic_power;
  ctx.activity = 0.2;
  const double p2 = model_->evaluate(ctx, d).dynamic_power;
  EXPECT_NEAR(p2, 2.0 * p1, 1e-9 * p1);
  ctx.frequency *= 3.0;
  EXPECT_NEAR(model_->evaluate(ctx, d).dynamic_power, 6.0 * p1, 1e-9 * p1);
}

TEST_F(ModelFixture, LeakageScalesWithRepeaterCountAndSize) {
  const LinkContext ctx = context(5.0);
  LinkDesign d;
  d.drive = 8;
  d.num_repeaters = 4;
  const double leak4 = model_->evaluate(ctx, d).leakage_power;
  d.num_repeaters = 8;
  const double leak8 = model_->evaluate(ctx, d).leakage_power;
  EXPECT_NEAR(leak8, 2.0 * leak4, 0.01 * leak8);
  d.drive = 16;
  EXPECT_GT(model_->evaluate(ctx, d).leakage_power, leak8 * 1.5);
}

TEST_F(ModelFixture, BuffersSlowerButFewerInversions) {
  const LinkContext ctx = context(4.0);
  LinkDesign inv;
  inv.kind = CellKind::Inverter;
  inv.drive = 16;
  inv.num_repeaters = 4;
  LinkDesign buf = inv;
  buf.kind = CellKind::Buffer;
  // The buffer pays its first-stage intrinsic delay.
  EXPECT_GT(model_->evaluate(ctx, buf).delay, model_->evaluate(ctx, inv).delay);
}

TEST_F(ModelFixture, MismatchedFitRejected) {
  EXPECT_THROW(ProposedModel(technology(TechNode::N90), *fit_), Error);
}

TEST_F(ModelFixture, ShieldedFasterThanWorstCaseCoupling) {
  LinkContext ss = context(5.0);
  ss.style = DesignStyle::SingleSpacing;
  LinkContext sh = context(5.0);
  sh.style = DesignStyle::Shielded;
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 5;
  EXPECT_LT(model_->evaluate(sh, d).delay, model_->evaluate(ss, d).delay);
}

// -------------------------------------------------------------- baselines

TEST(Baselines, FirstPrinciplesResistanceInverseInWidth) {
  const Technology& t = technology(TechNode::N65);
  const double r1 = first_principles_resistance(t.nmos, t.vdd, 1.0 * um);
  const double r2 = first_principles_resistance(t.nmos, t.vdd, 2.0 * um);
  EXPECT_NEAR(r1 / r2, 2.0, 1e-9);
  EXPECT_GT(r1, 100.0);   // ohm-scale sanity
  EXPECT_LT(r1, 100.0 * kohm);
}

TEST(Baselines, BakogluBlindToCoupling) {
  const Technology& t = technology(TechNode::N65);
  const BakogluModel bak(t);
  LinkContext ctx;
  ctx.length = 5 * mm;
  LinkDesign worst;
  worst.num_repeaters = 5;
  LinkDesign staggered = worst;
  staggered.miller_factor = 0.0;
  // The Miller factor does not exist in Bakoglu's world.
  EXPECT_DOUBLE_EQ(bak.evaluate(ctx, worst).delay, bak.evaluate(ctx, staggered).delay);
  // Neither does coupling in the power estimate: the Pamunuwa model
  // switches strictly more capacitance on the same design.
  const PamunuwaModel pam(t);
  EXPECT_GT(pam.evaluate(ctx, worst).switched_cap, bak.evaluate(ctx, worst).switched_cap);
}

TEST(Baselines, PamunuwaRespondsToMillerFactor) {
  const Technology& t = technology(TechNode::N65);
  const PamunuwaModel pam(t);
  LinkContext ctx;
  ctx.length = 5 * mm;
  LinkDesign worst;
  worst.num_repeaters = 5;
  LinkDesign staggered = worst;
  staggered.miller_factor = 0.0;
  EXPECT_LT(pam.evaluate(ctx, staggered).delay, pam.evaluate(ctx, worst).delay);
}

TEST(Baselines, BaselinesIgnoreResistivityCorrections) {
  // Toggling scattering/barrier must not change a baseline estimate
  // (they predate those effects), while the proposed model responds.
  const Technology& t = technology(TechNode::N65);
  const BakogluModel bak(t);
  LinkContext plain;
  plain.length = 5 * mm;
  LinkContext ablated = plain;
  ablated.wire_options.scattering = false;
  ablated.wire_options.barrier = false;
  LinkDesign d;
  d.num_repeaters = 5;
  EXPECT_DOUBLE_EQ(bak.evaluate(plain, d).delay, bak.evaluate(ablated, d).delay);
}

TEST_F(ModelFixture, ProposedRespondsToResistivityCorrections) {
  LinkContext plain = context(5.0);
  LinkContext ablated = plain;
  ablated.wire_options.scattering = false;
  ablated.wire_options.barrier = false;
  LinkDesign d;
  d.num_repeaters = 5;
  EXPECT_GT(model_->evaluate(plain, d).delay, model_->evaluate(ablated, d).delay);
}

TEST_F(ModelFixture, SimplisticBaselineAreaFarBelowLayoutArea) {
  // The paper's Table III: the original model's area assumption is
  // "simplistic" — active area only, far below the layout-accurate
  // regression area of the proposed model.
  const BakogluModel bak(*tech_);
  const LinkContext ctx = context(5.0);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 5;
  EXPECT_LT(bak.evaluate(ctx, d).repeater_area, 0.5 * model_->evaluate(ctx, d).repeater_area);
}

}  // namespace
}  // namespace pim
