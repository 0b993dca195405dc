// Tests for pim::variation — the process-variation extension: sampling,
// perturbed evaluation, and Monte-Carlo statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "obs/metrics.hpp"
#include "sta/calibrated.hpp"
#include "util/alloc_counter.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "fit_options.hpp"
#include "synthetic_fit.hpp"

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
  const int64_t before = heap_allocations();
  for (int i = 0; i < kSamples; ++i)
    sink += evaluate_with_variation(*model_, c, d, sample_variation(rng, sigmas)).delay;
  const int64_t allocations = heap_allocations() - before;
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

// A NaN coefficient makes every sample's delay NaN. Each such sample
// fails inside its item (counted in variation.sample.error), so the run
// raises the typed "every sample failed" error instead of returning NaN
// statistics over an unordered delay vector.
TEST(VariationValidation, NonFiniteSamplesFailInsteadOfPoisoningStatistics) {
  const Technology& tech = technology(TechNode::N65);
  TechnologyFit fit = synthetic_fit(tech);
  fit.gamma = std::numeric_limits<double>::quiet_NaN();
  const ProposedModel model(tech, fit);
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;
  constexpr int kSamples = 64;

  obs::registry().reset();
  obs::set_enabled(true);
  const auto expect_every_sample_failed = [&](const auto& run, const char* who) {
    try {
      const MonteCarloResult mc = run();
      ADD_FAILURE() << who << " returned mean_delay " << mc.mean_delay;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::no_convergence) << e.what();
      EXPECT_NE(std::string(e.what()).find(std::string(who) + ": every sample failed"),
                std::string::npos)
          << e.what();
    }
  };
  expect_every_sample_failed(
      [&] { return monte_carlo_link(model, ctx, design, kSamples, 7); }, "monte_carlo_link");
  EXPECT_EQ(obs::registry().counter("variation.sample.error").value(), kSamples);
  expect_every_sample_failed(
      [&] { return monte_carlo_link_within_die(model, ctx, design, kSamples, 7); },
      "monte_carlo_link_within_die");
  EXPECT_EQ(obs::registry().counter("variation.sample.error").value(), 2 * kSamples);
  obs::set_enabled(false);
  obs::registry().reset();
}

// The Monte-Carlo reduction's radix sort puts every part of the key
// domain where std::sort does: duplicates, subnormals, negative values,
// infinities, and runs whose keys share their high bytes (skipped passes).
TEST(SortDelays, MatchesStdSortBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      kInf, -kInf, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 4.9e-320, -2.5e-310,
      std::numeric_limits<double>::min(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::max(), 1.0, -1.0, 6e-10};
  Rng rng(2026);
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.uniform(0.0, static_cast<double>(n))) % n;
  };
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{255},
                         size_t{256}, size_t{257}, size_t{1000}, size_t{20000}}) {
    std::vector<double> mixed(n), delays(n);
    for (size_t i = 0; i < n; ++i) {
      switch (pick(4)) {
        case 0: mixed[i] = specials[pick(specials.size())]; break;
        case 1: mixed[i] = i > 0 ? mixed[pick(i)] : 1.0; break;  // a duplicate
        default:
          mixed[i] = (pick(2) == 0 ? -1.0 : 1.0) * rng.uniform(0.5, 1.0) *
                     std::ldexp(1.0, static_cast<int>(pick(200)) - 100);
      }
      delays[i] = 6e-10 * rng.normal(1.0, 0.05);
    }
    const std::vector<double> same(n, 6.1e-10);
    for (std::vector<double> v : {mixed, delays, same}) {
      std::vector<double> expected = v;
      std::sort(expected.begin(), expected.end());
      detail::sort_delays(v);
      ASSERT_EQ(v.size(), expected.size());
      EXPECT_EQ(std::memcmp(v.data(), expected.data(), n * sizeof(double)), 0) << "n=" << n;
    }
  }
}

// Zeros of both signs compare equal, so std::sort may leave them in any
// order; the radix sort's key order puts -0.0 first.
TEST(SortDelays, NegativeZeroSortsBeforePositiveZero) {
  std::vector<double> v = {0.0, -0.0, 1.0, -1.0, 0.0, -0.0};
  detail::sort_delays(v);
  const std::vector<double> expected = {-1.0, -0.0, -0.0, 0.0, 0.0, 1.0};
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(std::bit_cast<uint64_t>(v[i]), std::bit_cast<uint64_t>(expected[i])) << i;
}

}  // namespace
}  // namespace pim
