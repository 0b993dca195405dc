// Cross-module integration tests: the full characterize -> fit ->
// calibrate -> model -> optimize -> sign-off flow, and consistency of
// every serialization format with the computation that consumes it.
// Axes are trimmed so the whole binary stays fast.
#include <gtest/gtest.h>

#include "buffering/optimize.hpp"
#include "charlib/coeffs_io.hpp"
#include "liberty/libertyfile.hpp"
#include "models/proposed.hpp"
#include "sta/calibrated.hpp"
#include "sta/signoff.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

#include "fit_options.hpp"

namespace pim {
namespace {

using namespace pim::unit;

CharacterizationOptions trimmed_char() {
  CharacterizationOptions opt = trimmed_inverter_characterization();
  opt.slew_axis = {30e-12, 120e-12, 300e-12};
  opt.fanout_axis = {2.0, 8.0, 20.0};
  return opt;
}

// One shared 90 nm flow for the whole binary (different node than the
// other fixtures, so the 90 nm path gets end-to-end coverage too).
class FlowFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fit_ = new TechnologyFit(
        calibrated_fit(technology(TechNode::N90), Corner{}, "", trimmed_char(),
                       trimmed_composition()));
    model_ = new ProposedModel(technology(TechNode::N90), *fit_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fit_;
    model_ = nullptr;
    fit_ = nullptr;
  }
  static TechnologyFit* fit_;
  static ProposedModel* model_;
};

TechnologyFit* FlowFixture::fit_ = nullptr;
ProposedModel* FlowFixture::model_ = nullptr;

TEST_F(FlowFixture, OptimizedLinkMeetsSignoffWithinTolerance) {
  const Technology& tech = technology(TechNode::N90);
  LinkContext ctx;
  ctx.length = 4 * mm;
  ctx.input_slew = 150 * ps;

  BufferingOptions bopt;
  bopt.weight = 0.7;
  bopt.kinds = {CellKind::Inverter};
  bopt.drives = {4, 8, 12, 16, 20};
  const BufferingResult best = optimize_buffering(*model_, ctx, bopt);
  ASSERT_TRUE(best.feasible);

  const SignoffResult golden = signoff_link(tech, ctx, best.design);
  EXPECT_NEAR(best.estimate.delay, golden.delay, 0.22 * golden.delay);
}

TEST_F(FlowFixture, CoefficientFileReproducesModelExactly) {
  const TechnologyFit reloaded = parse_fit(write_fit(*fit_));
  const ProposedModel twin(technology(TechNode::N90), reloaded);
  LinkContext ctx;
  ctx.length = 6 * mm;
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 5;
  const LinkEstimate a = model_->evaluate(ctx, d);
  const LinkEstimate b = twin.evaluate(ctx, d);
  EXPECT_DOUBLE_EQ(a.delay, b.delay);
  EXPECT_DOUBLE_EQ(a.dynamic_power, b.dynamic_power);
  EXPECT_DOUBLE_EQ(a.leakage_power, b.leakage_power);
  EXPECT_DOUBLE_EQ(a.repeater_area, b.repeater_area);
}

TEST(IntegrationFormats, TechfileRoundTripPreservesCharacterization) {
  // Characterizing from a parsed tech file must give exactly the same
  // cell as the built-in descriptor: the text format carries everything
  // the simulation consumes.
  const Technology& original = technology(TechNode::N45);
  const Technology reparsed = parse_techfile(write_techfile(original));
  CharacterizationOptions opt;
  opt.slew_axis = {50e-12, 200e-12};
  opt.fanout_axis = {2.0, 10.0};
  const RepeaterCell a = characterize_cell(original, CellKind::Inverter, 8, opt);
  const RepeaterCell b = characterize_cell(reparsed, CellKind::Inverter, 8, opt);
  // Last-ulp differences can creep in through the decimal round trip of
  // derived quantities; anything beyond that is a lost field.
  EXPECT_NEAR(a.input_cap, b.input_cap, 1e-9 * a.input_cap);
  EXPECT_NEAR(a.leakage_nmos, b.leakage_nmos, 1e-9 * a.leakage_nmos);
  for (size_t i = 0; i < a.fall.slew_axis.size(); ++i)
    for (size_t j = 0; j < a.fall.load_axis.size(); ++j)
      EXPECT_NEAR(a.fall.delay(i, j), b.fall.delay(i, j), 1e-9 * a.fall.delay(i, j));
}

TEST(IntegrationFormats, LibertyRoundTripPreservesTableEvaluation) {
  const Technology& tech = technology(TechNode::N32);
  CharacterizationOptions opt;
  opt.slew_axis = {50e-12, 200e-12};
  opt.fanout_axis = {2.0, 10.0};
  opt.drives = {4, 16};
  opt.buffers = false;
  const CellLibrary lib = characterize_library(tech, opt);
  const CellLibrary reparsed = parse_liberty(write_liberty(lib));
  const RepeaterCell& a = lib.cell("INVD16");
  const RepeaterCell& b = reparsed.cell("INVD16");
  // Interpolated evaluation anywhere on the grid must agree.
  for (double slew : {60e-12, 150e-12}) {
    for (double load_f : {3.0, 7.5}) {
      const double load = load_f * a.input_cap;
      EXPECT_DOUBLE_EQ(a.worst_delay(slew, load), b.worst_delay(slew, load));
      EXPECT_DOUBLE_EQ(a.rise.eval_out_slew(slew, load), b.rise.eval_out_slew(slew, load));
    }
  }
}

TEST(IntegrationSmallNodes, SixteenNanometerFlowWorks) {
  // The smallest node exercises the extreme end of every physical model
  // (thinnest barrier, strongest scattering, lowest vdd).
  const Technology& tech = technology(TechNode::N16);
  CharacterizationOptions copt = trimmed_char();
  CompositionOptions comp = trimmed_composition();
  const TechnologyFit fit = calibrate_composition(
      tech, fit_technology(tech, characterize_library(tech, copt)), comp);
  const ProposedModel model(tech, fit);
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 4;
  const double model_delay = model.evaluate(ctx, d).delay;
  const double golden = signoff_link(tech, ctx, d).delay;
  EXPECT_NEAR(model_delay, golden, 0.25 * golden);
  EXPECT_GT(fit.leakage.n1, 0.0);
}

}  // namespace
}  // namespace pim
