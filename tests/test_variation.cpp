// Tests for pim::variation — the process-variation extension: sampling,
// perturbed evaluation, and Monte-Carlo statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "charlib/characterize.hpp"
#include "sta/calibrated.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "fit_options.hpp"

// Every global allocation made by this test binary bumps the calling
// thread's counter, so a test can assert that a code path allocates
// nothing. The array and nothrow forms forward here by default.
namespace {
thread_local int64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pim {
namespace {

using namespace pim::unit;

TEST(RngNormal, MeanAndSigma) {
  Rng rng(11);
  const int n = 40000;
  double acc = 0.0;
  double acc2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    acc += x;
    acc2 += x * x;
  }
  EXPECT_NEAR(acc / n, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(acc2 / n), 1.0, 0.02);
  Rng rng2(12);
  double shifted = 0.0;
  for (int i = 0; i < n; ++i) shifted += rng2.normal(5.0, 0.5);
  EXPECT_NEAR(shifted / n, 5.0, 0.02);
}

TEST(VariationSampling, DeterministicAndClamped) {
  VariationSigmas huge;
  huge.drive_strength = 3.0;  // forces the clamp often
  Rng a(7), b(7);
  for (int i = 0; i < 200; ++i) {
    const VariationSample sa = sample_variation(a, huge);
    const VariationSample sb = sample_variation(b, huge);
    EXPECT_DOUBLE_EQ(sa.drive_strength, sb.drive_strength);
    EXPECT_GE(sa.drive_strength, 0.5);
    EXPECT_LE(sa.drive_strength, 2.0);
    EXPECT_GE(sa.leakage, 0.5);
    EXPECT_LE(sa.leakage, 2.0);
  }
}

class VariationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fit_ = new TechnologyFit(calibrated_fit(technology(TechNode::N65), Corner{}, "",
                                            trimmed_inverter_characterization(),
                                            trimmed_composition()));
    model_ = new ProposedModel(technology(TechNode::N65), *fit_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fit_;
    model_ = nullptr;
    fit_ = nullptr;
  }

  static LinkContext ctx() {
    LinkContext c;
    c.length = 5 * mm;
    c.input_slew = 100 * ps;
    return c;
  }
  static LinkDesign design() {
    LinkDesign d;
    d.drive = 16;
    d.num_repeaters = 5;
    return d;
  }

  static TechnologyFit* fit_;
  static ProposedModel* model_;
};

TechnologyFit* VariationFixture::fit_ = nullptr;
ProposedModel* VariationFixture::model_ = nullptr;

TEST_F(VariationFixture, NominalSampleReproducesModel) {
  const LinkEstimate nominal = model_->evaluate(ctx(), design());
  const LinkEstimate same = evaluate_with_variation(*model_, ctx(), design(), {});
  EXPECT_DOUBLE_EQ(same.delay, nominal.delay);
  EXPECT_DOUBLE_EQ(same.leakage_power, nominal.leakage_power);
}

TEST_F(VariationFixture, PerturbationsMoveTheRightWay) {
  const double nominal = model_->evaluate(ctx(), design()).delay;
  VariationSample strong;
  strong.drive_strength = 1.2;
  EXPECT_LT(evaluate_with_variation(*model_, ctx(), design(), strong).delay, nominal);
  VariationSample resistive;
  resistive.wire_res = 1.3;
  EXPECT_GT(evaluate_with_variation(*model_, ctx(), design(), resistive).delay, nominal);
  VariationSample leaky;
  leaky.leakage = 1.5;
  EXPECT_NEAR(evaluate_with_variation(*model_, ctx(), design(), leaky).leakage_power,
              1.5 * model_->evaluate(ctx(), design()).leakage_power, 1e-9);
  VariationSample fat_wire;
  fat_wire.wire_cap = 1.2;
  const LinkEstimate e = evaluate_with_variation(*model_, ctx(), design(), fat_wire);
  EXPECT_GT(e.delay, nominal);
  EXPECT_GT(e.switched_cap, model_->evaluate(ctx(), design()).switched_cap);
}

// The Monte-Carlo inner loop runs once per sample, 20,000 times per yield
// run: drawing a corner and evaluating the perturbed link must not touch
// the heap (contract checks with literal messages included).
TEST_F(VariationFixture, SampleEvaluationDoesNotAllocate) {
  const LinkContext c = ctx();
  const LinkDesign d = design();
  const VariationSigmas sigmas;
  Rng rng(5);
  double sink = evaluate_with_variation(*model_, c, d, sample_variation(rng, sigmas)).delay;
  constexpr int kSamples = 100;
  const int64_t before = t_allocations;
  for (int i = 0; i < kSamples; ++i)
    sink += evaluate_with_variation(*model_, c, d, sample_variation(rng, sigmas)).delay;
  const int64_t allocations = t_allocations - before;
  EXPECT_EQ(allocations, 0) << allocations / kSamples << " per sample";
  EXPECT_GT(sink, 0.0);
}

TEST_F(VariationFixture, MonteCarloStatisticsAreSane) {
  const MonteCarloResult mc = monte_carlo_link(*model_, ctx(), design(), 500, 42);
  ASSERT_EQ(mc.delays.size(), 500u);
  EXPECT_TRUE(std::is_sorted(mc.delays.begin(), mc.delays.end()));
  // The distribution brackets the nominal and centers near it.
  EXPECT_LT(mc.delays.front(), mc.nominal_delay);
  EXPECT_GT(mc.delays.back(), mc.nominal_delay);
  EXPECT_NEAR(mc.mean_delay, mc.nominal_delay, 0.1 * mc.nominal_delay);
  EXPECT_GT(mc.sigma_delay, 0.0);
  EXPECT_LT(mc.sigma_delay, 0.3 * mc.mean_delay);
  EXPECT_GT(mc.mean_power, 0.0);
}

TEST_F(VariationFixture, YieldCurveMonotonicAndCalibrated) {
  const MonteCarloResult mc = monte_carlo_link(*model_, ctx(), design(), 400, 9);
  double prev = -1.0;
  for (double budget = 0.8 * mc.mean_delay; budget < 1.4 * mc.mean_delay;
       budget += 0.05 * mc.mean_delay) {
    const double y = mc.yield_at(budget);
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_DOUBLE_EQ(mc.yield_at(mc.delays.back() + 1e-15), 1.0);
  EXPECT_DOUBLE_EQ(mc.yield_at(mc.delays.front() - 1e-15), 0.0);
  // Quantile consistency: yield at the q-quantile is ~q.
  const double q90 = mc.delay_quantile(0.9);
  EXPECT_NEAR(mc.yield_at(q90), 0.9, 0.05);
}

TEST_F(VariationFixture, NoSamplesFailWithoutInjectedFaults) {
  const MonteCarloResult mc = monte_carlo_link(*model_, ctx(), design(), 200, 17);
  EXPECT_EQ(mc.failed_samples, 0);
  const MonteCarloResult wid =
      monte_carlo_link_within_die(*model_, ctx(), design(), 200, 17);
  EXPECT_EQ(wid.failed_samples, 0);
}

TEST_F(VariationFixture, MonteCarloDeterministicPerSeed) {
  const MonteCarloResult a = monte_carlo_link(*model_, ctx(), design(), 100, 5);
  const MonteCarloResult b = monte_carlo_link(*model_, ctx(), design(), 100, 5);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  const MonteCarloResult c = monte_carlo_link(*model_, ctx(), design(), 100, 6);
  EXPECT_NE(a.mean_delay, c.mean_delay);
}

TEST_F(VariationFixture, GuardbandGrowsWithSigma) {
  VariationSigmas tight;
  tight.drive_strength = 0.02;
  tight.wire_res = 0.01;
  tight.wire_cap = 0.01;
  VariationSigmas loose;
  loose.drive_strength = 0.10;
  loose.wire_res = 0.06;
  loose.wire_cap = 0.06;
  const MonteCarloResult a = monte_carlo_link(*model_, ctx(), design(), 400, 3, tight);
  const MonteCarloResult b = monte_carlo_link(*model_, ctx(), design(), 400, 3, loose);
  EXPECT_LT(a.sigma_delay, b.sigma_delay);
  EXPECT_LT(a.delay_quantile(0.99) - a.mean_delay, b.delay_quantile(0.99) - b.mean_delay);
}

TEST_F(VariationFixture, WithinDieZeroSigmaEqualsNominal) {
  VariationSigmas none;
  none.drive_strength = 0.0;
  none.device_cap = 0.0;
  none.leakage = 0.0;
  none.wire_res = 0.0;
  none.wire_cap = 0.0;
  Rng rng(1);
  const double d = link_delay_within_die(*model_, ctx(), design(), rng, none);
  EXPECT_NEAR(d, model_->evaluate(ctx(), design()).delay, 1e-9 * d);
}

TEST_F(VariationFixture, WithinDieAveragesAcrossStages) {
  // Pure device-strength variation: die-to-die scales every stage
  // together, within-die draws independent corners, so the WID sigma of
  // an N-stage link is ~1/sqrt(N) of the D2D sigma.
  VariationSigmas only_drive;
  only_drive.drive_strength = 0.06;
  only_drive.device_cap = 0.0;
  only_drive.leakage = 0.0;
  only_drive.wire_res = 0.0;
  only_drive.wire_cap = 0.0;

  LinkDesign d16 = design();
  d16.num_repeaters = 16;
  LinkContext c16 = ctx();
  c16.length = 8 * mm;

  const MonteCarloResult d2d =
      monte_carlo_link(*model_, c16, d16, 1200, 11, only_drive);
  const MonteCarloResult wid =
      monte_carlo_link_within_die(*model_, c16, d16, 1200, 11, only_drive);

  EXPECT_LT(wid.sigma_delay, d2d.sigma_delay);
  const double ratio = d2d.sigma_delay / wid.sigma_delay;
  EXPECT_NEAR(ratio, 4.0, 1.2);  // sqrt(16), loose Monte-Carlo bound
  // Means agree (both center on the nominal chain).
  EXPECT_NEAR(wid.mean_delay, d2d.mean_delay, 0.05 * d2d.mean_delay);
}

TEST_F(VariationFixture, WithinDieSigmaShrinksWithStageCount) {
  VariationSigmas only_drive;
  only_drive.drive_strength = 0.06;
  only_drive.device_cap = 0.0;
  only_drive.leakage = 0.0;
  only_drive.wire_res = 0.0;
  only_drive.wire_cap = 0.0;
  double prev_rel = 1e9;
  for (int n : {2, 6, 16}) {
    LinkDesign d = design();
    d.num_repeaters = n;
    LinkContext c = ctx();
    c.length = 0.5 * mm * n;
    const MonteCarloResult mc =
        monte_carlo_link_within_die(*model_, c, d, 800, 21, only_drive);
    const double rel = mc.sigma_delay / mc.mean_delay;
    EXPECT_LT(rel, prev_rel);
    prev_rel = rel;
  }
}

TEST_F(VariationFixture, WithinDieDeterministicPerSeed) {
  const MonteCarloResult a =
      monte_carlo_link_within_die(*model_, ctx(), design(), 100, 5);
  const MonteCarloResult b =
      monte_carlo_link_within_die(*model_, ctx(), design(), 100, 5);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  EXPECT_DOUBLE_EQ(a.sigma_delay, b.sigma_delay);
}

TEST(VariationValidation, RejectsBadArguments) {
  EXPECT_THROW(MonteCarloResult{}.delay_quantile(0.5), Error);
}

}  // namespace
}  // namespace pim
