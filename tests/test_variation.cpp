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

#include "cache/memoize.hpp"
#include "cache/sha256.hpp"
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
  static LinkFrame frame() { return LinkFrame(model_->tech(), ctx(), design()); }

  static TechnologyFit* fit_;
  static ProposedModel* model_;
};

TechnologyFit* VariationFixture::fit_ = nullptr;
ProposedModel* VariationFixture::model_ = nullptr;

TEST_F(VariationFixture, NominalSampleReproducesModel) {
  const LinkEstimate nominal = model_->evaluate(ctx(), design());
  const LinkEstimate same = evaluate_with_variation(*model_, frame(), {});
  EXPECT_DOUBLE_EQ(same.delay, nominal.delay);
  EXPECT_DOUBLE_EQ(same.leakage_power, nominal.leakage_power);
}

TEST_F(VariationFixture, PerturbationsMoveTheRightWay) {
  const double nominal = model_->evaluate(ctx(), design()).delay;
  VariationSample strong;
  strong.drive_strength = 1.2;
  EXPECT_LT(evaluate_with_variation(*model_, frame(), strong).delay, nominal);
  VariationSample resistive;
  resistive.wire_res = 1.3;
  EXPECT_GT(evaluate_with_variation(*model_, frame(), resistive).delay, nominal);
  VariationSample leaky;
  leaky.leakage = 1.5;
  EXPECT_NEAR(evaluate_with_variation(*model_, frame(), leaky).leakage_power,
              1.5 * model_->evaluate(ctx(), design()).leakage_power, 1e-9);
  VariationSample fat_wire;
  fat_wire.wire_cap = 1.2;
  const LinkEstimate e = evaluate_with_variation(*model_, frame(), fat_wire);
  EXPECT_GT(e.delay, nominal);
  EXPECT_GT(e.switched_cap, model_->evaluate(ctx(), design()).switched_cap);
}

// The Monte-Carlo inner loop runs once per sample, 20,000 times per yield
// run: drawing a corner and stepping the run's frame must not touch the
// heap (contract checks with literal messages included). Neither may
// building a frame, which every nominal evaluate_link pays.
TEST_F(VariationFixture, SampleEvaluationDoesNotAllocate) {
  const LinkContext c = ctx();
  const LinkDesign d = design();
  const VariationSigmas sigmas;
  Rng rng(5);
  const LinkFrame f(model_->tech(), c, d);
  double sink = evaluate_with_variation(*model_, f, sample_variation(rng, sigmas)).delay;
  constexpr int kSamples = 100;
  int64_t before = heap_allocations();
  for (int i = 0; i < kSamples; ++i)
    sink += evaluate_with_variation(*model_, f, sample_variation(rng, sigmas)).delay;
  int64_t allocations = heap_allocations() - before;
  EXPECT_EQ(allocations, 0) << allocations / kSamples << " per sample";

  before = heap_allocations();
  for (int i = 0; i < kSamples; ++i) {
    const LinkFrame per_call(model_->tech(), c, d);
    sink += evaluate_link(model_->fit(), per_call).delay;
  }
  allocations = heap_allocations() - before;
  EXPECT_EQ(allocations, 0) << allocations / kSamples << " per frame";
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
  const double d = link_delay_within_die(*fit_, frame(), rng, none);
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

// The bytes a Monte-Carlo run caches are a contract (docs/caching.md):
// any refactor of the per-sample evaluation must keep each expression's
// operand order. The SHA-256 of the encoded payload is pinned for every
// style x repeater kind x layer x (scattering and barrier on / both off),
// at non-unit wire scales, and for the within-die flavour on two designs.
// The fit is synthetic with non-unit composition weights, so the digests
// pin the model arithmetic alone, not the simulator.
TEST(VariationPins, PayloadDigestsArePinned) {
  const Technology& tech = technology(TechNode::N65);
  TechnologyFit fit = synthetic_fit(tech);
  fit.buf_rise.a0 = 9e-12;
  fit.buf_fall.rho0 = 2.6e-3;
  fit.inv_fall.b2 = 6e-4;
  fit.comp_coupled = {0.83, 0.91, 0.57, 0.0};
  fit.comp_shielded = {0.88, 0.95, 0.62, 0.0};
  const ProposedModel model(tech, fit);
  constexpr int kSamples = 2000;
  const auto digest = [](const MonteCarloResult& mc) {
    return cache::sha256_hex(cache::Payload<MonteCarloResult>::encode(mc));
  };

  const char* const kDieToDie[24] = {
    "f4c2bbfc861e92e434febcff3cacd69c790993f274566383a8ed4dadbe0bc3e7",
    "61b49b4b005c00c12769965c90e994b02c83faa585930e5f2de6b1fc2679a2c3",
    "69c9446a39dce42b6221262a79e3a84b7845a7f519303d6b76cebbb7c70b5b38",
    "d383e970eaf0292cf1cf0b63c98621d712a37f7fe23f22064f3a0685134ea817",
    "10c3b41b78f736bc19fba02ecaf51d01d822bcd39b23595469dd123b90a1128d",
    "6cde98b8537b144d8e5bb50406d452e798c6c69a041d8084eca6cfa61ed764c1",
    "414696adf93675686c6a7ac64305f1ca8b727551c5c3ed32e1cbdb9f3a66cdba",
    "5570f35d690edfb2c4a3ee289f1cb72d0940c308f58c59abd90d35693bf01024",
    "722f8b24aa848f1bec5ded7401b1ab11f916acc73e0f30787e517cc9f96d16fd",
    "176a8827e9de0ac1d928fab17bab63082bb14f256c725e08ce1abedf7e4ac942",
    "1d7e5add5556e7a10514e5f28a587298978d53c4e856747e980d227c91e6105c",
    "6a78297869086bbab66562854c1f3e227701e5e59e4e35757cb1964f09d1ef6d",
    "8d570bf89f62c1282e79325d9773789fe4ea74a34d390219138a0a7012209615",
    "51dba6cacef716f5ce42f63a13c6e52a7b670b28191ea7cfc4e9a9e7be9ffedb",
    "7376be35455f4a02d08836d3cb4066639240c99835c5912fba813cd66f8aaaf6",
    "e4d039f959e3e26b24bda8c7c9653b58ee6ddac405cd8f1dca2870e1e03f4ae7",
    "b2a9af9e52c5805aaa0ac84d7bdffc3bbfb0da8670871b34c0cb6f2b910d86e4",
    "48e0c55e522fcec0ec2a5522436850fd5e3a8c2bedf5e2058bb5dd8a03b6dab4",
    "bee27d0748d4e8e68673e5785e19853b6258c24205e508b6e64463966c493693",
    "5e4c3083a816ca1969336c6ae16f5338476ee46602699048a5f93739f0431a8a",
    "db4a5bb9f7c81c9789ea314fce51d22d9a8d75be53b93430acbfcb7809a50088",
    "58123036d3ba937f7d0e95f4975f768326d9b932409748c7c1af1d2e053bfd21",
    "6c5cabc71b5debac3e1b5bf3355a1fc36c16c2f48eef6123b15341433114cb7d",
    "11bfc3753e4a2a9873ed702700ebbb4f240c4e23a4022fe2ce73eda5b1586cdf",
  };
  int i = 0;
  for (const DesignStyle style :
       {DesignStyle::SingleSpacing, DesignStyle::DoubleSpacing, DesignStyle::Shielded})
    for (const CellKind kind : {CellKind::Inverter, CellKind::Buffer})
      for (const WireLayer layer : {WireLayer::Global, WireLayer::Intermediate})
        for (const bool effects : {true, false}) {
          LinkContext ctx;
          ctx.layer = layer;
          ctx.style = style;
          ctx.length = 4.5 * mm;
          ctx.input_slew = 80 * ps;
          ctx.wire_options.scattering = effects;
          ctx.wire_options.barrier = effects;
          ctx.wire_options.res_scale = 1.07;
          ctx.wire_options.cap_scale = 0.93;
          LinkDesign design;
          design.kind = kind;
          design.drive = kind == CellKind::Buffer ? 24 : 12;
          design.num_repeaters = 4;
          EXPECT_EQ(digest(monte_carlo_link(model, ctx, design, kSamples, 31 + i)),
                    kDieToDie[i])
              << design_style_name(style) << " kind " << static_cast<int>(kind)
              << " layer " << static_cast<int>(layer) << " effects " << effects;
          ++i;
        }

  const char* const kWithinDie[2] = {
    "fd99de76c8042b57f5f11e69a3cc7fc4fac2254185aba93a0ac176ff41125a74",
    "b38dba68ace740e52d5c6b294674e022737bd29c4107549b13c969e7a42df436",
  };
  int j = 0;
  for (const int repeaters : {3, 9}) {
    LinkContext ctx;
    ctx.length = 1.2 * mm * repeaters;
    ctx.wire_options.res_scale = 0.96;
    ctx.wire_options.cap_scale = 1.04;
    LinkDesign design;
    design.drive = 16;
    design.num_repeaters = repeaters;
    EXPECT_EQ(digest(monte_carlo_link_within_die(model, ctx, design, kSamples, 77)),
              kWithinDie[j])
        << repeaters << " repeaters";
    ++j;
  }
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
