// pim::deadline — cooperative cancellation and wall-clock budgets
// (docs/robustness.md "Deadlines & cancellation").
//
// Covers the token itself (budget arming, cancel flag, Scope nesting,
// GraceScope suppression), the exec engine's prefix-cutoff stop contract
// (completed sets and per-item values bit-identical at any thread
// count), and the graceful partial-result degradations: Monte-Carlo
// yield from the completed sample prefix, charlib sweeps patched through
// the quorum path, and cosi synthesis returning the best feasible sizing
// found. Deterministic stops come from the deadline-expire /
// cancel-midchunk fault sites — each item's fire pattern is a pure
// function of (site seed, item index), so the tests predict the cutoff
// by replaying the draw sequence instead of hardcoding seeds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/pim_api.hpp"
#include "cache/store.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "sta/calibrated.hpp"
#include "cosi/synthesis.hpp"
#include "deadline/deadline.hpp"
#include "exec/engine.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "obs/metrics.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "fit_options.hpp"

namespace pim {
namespace {

using namespace pim::unit;

class DeadlineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    deadline::reset();
    fault::clear();
    obs::registry().reset();
    exec::set_threads(0);
  }
  void TearDown() override {
    deadline::reset();
    fault::clear();
    obs::set_enabled(false);
    obs::registry().reset();
    exec::set_threads(0);
  }
};

// ----------------------------------------------------------------- token

TEST_F(DeadlineFixture, DisengagedTokenReportsNothing) {
  EXPECT_FALSE(deadline::engaged());
  EXPECT_FALSE(deadline::cancel_requested());
  EXPECT_EQ(deadline::remaining_ns(), INT64_MAX);
  EXPECT_EQ(deadline::check(), deadline::StopReason::none);
}

TEST_F(DeadlineFixture, BudgetArmsAndExpires) {
  deadline::set_budget_ms(3'600'000);
  EXPECT_TRUE(deadline::engaged());
  EXPECT_GT(deadline::remaining_ns(), 0);
  EXPECT_LE(deadline::remaining_ns(), 3'600'000'000'000LL);
  EXPECT_EQ(deadline::check(), deadline::StopReason::none);

  deadline::set_budget_ms(1);
  ::usleep(3000);
  EXPECT_EQ(deadline::remaining_ns(), 0);
  EXPECT_EQ(deadline::check(), deadline::StopReason::deadline_exceeded);

  deadline::set_budget_ms(0);  // <= 0 clears the budget
  EXPECT_FALSE(deadline::engaged());
  EXPECT_EQ(deadline::check(), deadline::StopReason::none);
}

TEST_F(DeadlineFixture, CancelBeatsTheClockAndSurvivesBudgetReset) {
  deadline::request_cancel();
  EXPECT_TRUE(deadline::engaged());
  EXPECT_TRUE(deadline::cancel_requested());
  EXPECT_EQ(deadline::check(), deadline::StopReason::cancelled);
  // A Scope arming/restoring a budget must not clear a pending cancel:
  // SIGINT has to survive into the finish path.
  {
    deadline::Scope budget(3'600'000);
    EXPECT_EQ(deadline::check(), deadline::StopReason::cancelled);
  }
  EXPECT_EQ(deadline::check(), deadline::StopReason::cancelled);
  deadline::reset();
  EXPECT_EQ(deadline::check(), deadline::StopReason::none);
}

TEST_F(DeadlineFixture, ScopeNestingKeepsTheTighterDeadline) {
  deadline::Scope outer(3'600'000);
  const int64_t outer_left = deadline::remaining_ns();
  {
    deadline::Scope inner(10);  // much tighter: must win
    EXPECT_LE(deadline::remaining_ns(), 10'000'000LL);
  }
  // Restored to the outer deadline, not cleared.
  EXPECT_GT(deadline::remaining_ns(), outer_left / 2);
  {
    deadline::Scope looser(7'200'000);  // must NOT loosen the outer budget
    EXPECT_LE(deadline::remaining_ns(), 3'600'000'000'000LL);
  }
}

TEST_F(DeadlineFixture, GraceScopeSuppressesAPendingStop) {
  deadline::request_cancel();
  {
    deadline::GraceScope grace;
    EXPECT_EQ(deadline::check(), deadline::StopReason::none);
    {
      deadline::GraceScope nested;
      EXPECT_EQ(deadline::check(), deadline::StopReason::none);
    }
    EXPECT_EQ(deadline::check(), deadline::StopReason::none);
  }
  EXPECT_EQ(deadline::check(), deadline::StopReason::cancelled);
}

TEST_F(DeadlineFixture, StopErrorsCarryCodeAndCounts) {
  const Error timeout = deadline::stop_error(deadline::StopReason::deadline_exceeded, 3, 10);
  EXPECT_EQ(timeout.code(), ErrorCode::deadline_exceeded);
  EXPECT_NE(std::string(timeout.what()).find("3/10"), std::string::npos);
  EXPECT_NE(std::string(timeout.what()).find("deadline exceeded"), std::string::npos);

  const Error cancel = deadline::stop_error(deadline::StopReason::cancelled, 0, 7);
  EXPECT_EQ(cancel.code(), ErrorCode::cancelled);
  EXPECT_NE(std::string(cancel.what()).find("0/7"), std::string::npos);

  EXPECT_EQ(deadline::error_code_for(deadline::StopReason::cancelled),
            ErrorCode::cancelled);
  EXPECT_STREQ(deadline::stop_reason_name(deadline::StopReason::deadline_exceeded),
               "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::deadline_exceeded), "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::cancelled), "cancelled");
}

TEST_F(DeadlineFixture, CancelChecksAreCountedWhenEngaged) {
  obs::set_enabled(true);
  obs::registry().reset();
  deadline::set_budget_ms(3'600'000);
  for (int i = 0; i < 5; ++i) (void)deadline::check();
  EXPECT_EQ(obs::registry().counter("cancel.checks").value(), 5);
  deadline::reset();
  // Disengaged fast path: no counter traffic at all.
  for (int i = 0; i < 5; ++i) (void)deadline::check();
  EXPECT_EQ(obs::registry().counter("cancel.checks").value(), 5);
}

// ------------------------------------------------------------------ exec

// Replays the fault harness's per-item draw sequence the way the engine
// polls it (one check per item under ScopedStream(i)): the first index
// whose site stream fires is the region's predicted prefix cutoff.
size_t predicted_cutoff(fault::Site site, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    fault::ScopedStream stream(i);
    if (fault::should_fire(site)) return i;
  }
  return n;
}

TEST_F(DeadlineFixture, FaultStopsHavePrefixCutoffAtAnyThreadCount) {
  constexpr size_t kItems = 400;
  const std::string spec = "deadline-expire:0.01:11";
  fault::configure(spec);
  const size_t cutoff = predicted_cutoff(fault::kDeadlineExpire, kItems);
  ASSERT_GT(cutoff, 0u) << "seed fires at item 0; pick another";
  ASSERT_LT(cutoff, kItems) << "seed never fires; pick another";

  for (int threads : {1, 2, 8}) {
    fault::configure(spec);  // reset fired tallies between runs
    exec::ParallelOptions opt;
    opt.threads = threads;
    const auto batch = exec::parallel_try_map<double>(
        kItems, [](size_t i) { return static_cast<double>(i) * 1.25; }, opt);
    EXPECT_EQ(batch.stop, deadline::StopReason::deadline_exceeded) << threads;
    EXPECT_EQ(batch.completed, cutoff) << threads;
    EXPECT_TRUE(batch.truncated());
    for (size_t i = 0; i < cutoff; ++i) {
      ASSERT_TRUE(batch.values[i].has_value()) << threads << " item " << i;
      EXPECT_EQ(*batch.values[i], static_cast<double>(i) * 1.25);
    }
    for (size_t i = cutoff; i < kItems; ++i)
      EXPECT_FALSE(batch.values[i].has_value()) << threads << " item " << i;
  }
}

TEST_F(DeadlineFixture, ParallelForThrowsTypedStopWithCompletedCount) {
  fault::configure("cancel-midchunk:1");
  try {
    exec::parallel_for(10, [](size_t) {});
    FAIL() << "expected cancelled";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::cancelled);
    EXPECT_NE(std::string(e.what()).find("0/10"), std::string::npos);
  }
}

TEST_F(DeadlineFixture, RealFailureBelowCutoffOutranksTheStop) {
  constexpr size_t kItems = 400;
  const std::string spec = "deadline-expire:0.01:11";
  fault::configure(spec);
  const size_t cutoff = predicted_cutoff(fault::kDeadlineExpire, kItems);
  ASSERT_GT(cutoff, 1u) << "seed fires too early; pick another";
  ASSERT_LT(cutoff, kItems) << "seed never fires; pick another";
  const size_t bad = cutoff / 2;
  const auto body = [bad](size_t i) {
    if (i == bad) fail("boom", ErrorCode::no_convergence);
    return static_cast<double>(i);
  };

  for (int threads : {1, 2, 8}) {
    // parallel_for raises the failure, not the stop: it would have been
    // raised without the stop too.
    fault::configure(spec);
    try {
      exec::parallel_for(kItems, [&](size_t i) { body(i); }, {.threads = threads});
      FAIL() << "expected the item failure";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::no_convergence) << threads;
    }
    // parallel_try_map keeps both: the failure, and the truncated prefix.
    fault::configure(spec);
    const auto batch = exec::parallel_try_map<double>(kItems, body, {.threads = threads});
    EXPECT_TRUE(batch.truncated()) << threads;
    EXPECT_EQ(batch.completed, cutoff) << threads;
    EXPECT_EQ(batch.failed, std::vector<size_t>{bad}) << threads;
    EXPECT_EQ(batch.surviving(), cutoff - 1) << threads;
  }
}

TEST_F(DeadlineFixture, StoppedRegionsRecordObsGauges) {
  obs::set_enabled(false);  // force_set contract: gauges land even when off
  fault::configure("deadline-expire:0.01:11");
  const auto batch =
      exec::parallel_try_map<int>(400, [](size_t i) { return static_cast<int>(i); });
  ASSERT_TRUE(batch.truncated());
  EXPECT_EQ(obs::registry().gauge("partial.items").value(),
            static_cast<double>(batch.completed));
}

// ------------------------------------------------------------ isolation
//
// Deadline state is per thread: concurrent requests on other threads
// keep their own budgets and grace, while the pool chunks of a region
// inherit the submitting thread's state.

// Arms an already-expired budget on the calling thread.
void arm_expired_budget() {
  deadline::set_budget_ms(1);
  ::usleep(3000);
  ASSERT_EQ(deadline::check(), deadline::StopReason::deadline_exceeded);
}

TEST_F(DeadlineFixture, ExpiredBudgetOnOneThreadLeavesAnotherThreadsRegionAlone) {
  std::promise<void> armed, finished;
  std::thread holder([&] {
    arm_expired_budget();
    armed.set_value();
    finished.get_future().wait();
    deadline::set_budget_ms(0);
  });
  armed.get_future().wait();

  std::atomic<size_t> ran{0};
  exec::ParallelOptions opt;
  opt.threads = 4;
  EXPECT_NO_THROW(exec::parallel_for(1000, [&](size_t) { ran.fetch_add(1); }, opt));
  EXPECT_EQ(ran.load(), 1000u);
  EXPECT_EQ(deadline::check(), deadline::StopReason::none);
  finished.set_value();
  holder.join();
}

TEST_F(DeadlineFixture, GraceOnOneThreadDoesNotHideAnotherThreadsExpiredBudget) {
  std::promise<void> graced, finished;
  std::thread holder([&] {
    deadline::GraceScope grace;
    graced.set_value();
    finished.get_future().wait();
  });
  graced.get_future().wait();

  arm_expired_budget();
  EXPECT_EQ(deadline::check(), deadline::StopReason::deadline_exceeded);
  exec::ParallelOptions opt;
  opt.threads = 4;
  const auto batch =
      exec::parallel_try_map<int>(100, [](size_t i) { return static_cast<int>(i); }, opt);
  EXPECT_EQ(batch.stop, deadline::StopReason::deadline_exceeded);
  EXPECT_EQ(batch.completed, 0u);
  finished.set_value();
  holder.join();
}

TEST_F(DeadlineFixture, PoolChunksInheritTheSubmittersExpiredBudget) {
  arm_expired_budget();
  // Another thread's request boundary disarms only that thread.
  std::thread([] { deadline::reset(); }).join();

  std::atomic<int> calls{0};
  exec::ParallelOptions opt;
  opt.threads = 4;
  const auto batch = exec::parallel_try_map<int>(
      1000,
      [&](size_t i) {
        calls.fetch_add(1);
        return static_cast<int>(i);
      },
      opt);
  EXPECT_EQ(calls.load(), 0) << "a pool chunk ran items past the expired budget";
  EXPECT_EQ(batch.stop, deadline::StopReason::deadline_exceeded);
  EXPECT_EQ(batch.completed, 0u);
}

TEST_F(DeadlineFixture, PoolChunksInheritBudgetAndGraceAndRestoreTheWorker) {
  exec::ParallelOptions opt;
  opt.threads = 4;
  {
    deadline::Scope budget(3'600'000);
    std::atomic<int> unbudgeted{0};
    exec::parallel_for(
        64,
        [&](size_t) {
          if (deadline::remaining_ns() == INT64_MAX) unbudgeted.fetch_add(1);
        },
        opt);
    EXPECT_EQ(unbudgeted.load(), 0);
  }
  {
    // A graced tail (cosi synthesis finalization) still completes its
    // pool work under an expired budget.
    arm_expired_budget();
    deadline::GraceScope grace;
    std::atomic<size_t> ran{0};
    EXPECT_NO_THROW(exec::parallel_for(1000, [&](size_t) { ran.fetch_add(1); }, opt));
    EXPECT_EQ(ran.load(), 1000u);
  }
  deadline::set_budget_ms(0);
  // The pool workers went back to their own (idle) state.
  std::atomic<int> engaged{0};
  exec::parallel_for(
      64, [&](size_t) { engaged.fetch_add(deadline::engaged() ? 1 : 0); }, opt);
  EXPECT_EQ(engaged.load(), 0);
}

// ------------------------------------------------------------- variation

TechnologyFit synthetic_fit(const Technology& tech) {
  TechnologyFit fit;
  fit.node = tech.node;
  fit.vdd = tech.vdd;
  RepeaterEdgeFit e;
  e.a0 = 5e-12;
  e.a1 = 0.05;
  e.rho0 = 2e-3;
  e.rho1 = 1e6;
  e.b0 = 2e-12;
  e.b1 = 0.3;
  e.b2 = 5e-4;
  fit.inv_rise = fit.inv_fall = fit.buf_rise = fit.buf_fall = e;
  fit.gamma = 7e-10;
  fit.leakage.n0 = fit.leakage.p0 = 1e-9;
  fit.leakage.n1 = fit.leakage.p1 = 1e-2;
  fit.area0 = 1e-12;
  fit.area1 = 1e-6;
  return fit;
}

TEST_F(DeadlineFixture, MonteCarloDegradesToCompletedPrefix) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;

  const MonteCarloResult clean = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_FALSE(clean.partial);
  EXPECT_EQ(clean.requested_samples, 200);
  ASSERT_EQ(clean.delays.size(), 200u);
  // The binomial CI matches the formula over the surviving samples.
  const double p = clean.yield_at(clean.mean_delay);
  EXPECT_NEAR(clean.yield_ci95(clean.mean_delay),
              1.96 * std::sqrt(p * (1.0 - p) / 200.0), 1e-12);

  const std::string spec = "cancel-midchunk:0.01:11";
  fault::configure(spec);
  const size_t cutoff = predicted_cutoff(fault::kCancelMidchunk, 200);
  ASSERT_GT(cutoff, 0u);
  ASSERT_LT(cutoff, 200u);

  fault::configure(spec);
  const MonteCarloResult mc = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_TRUE(mc.partial);
  EXPECT_EQ(mc.requested_samples, 200);
  EXPECT_EQ(mc.delays.size() + static_cast<size_t>(mc.failed_samples), cutoff);
  EXPECT_TRUE(std::isfinite(mc.mean_delay));
  EXPECT_GT(mc.mean_delay, 0.0);
  // Fewer samples, same estimator: the confidence interval widens.
  const double partial_p = mc.yield_at(mc.mean_delay);
  if (partial_p > 0.0 && partial_p < 1.0)
    EXPECT_GT(mc.yield_ci95(mc.mean_delay),
              1.96 * std::sqrt(partial_p * (1.0 - partial_p) / 200.0) - 1e-12);

  // The completed set and every per-sample value are thread-invariant.
  for (int threads : {1, 2, 8}) {
    exec::set_threads(threads);
    fault::configure(spec);
    const MonteCarloResult again = monte_carlo_link(model, ctx, design, 200, 5);
    EXPECT_EQ(again.delays.size(), mc.delays.size()) << threads;
    EXPECT_EQ(again.failed_samples, mc.failed_samples) << threads;
    for (size_t i = 0; i < mc.delays.size(); ++i)
      EXPECT_EQ(again.delays[i], mc.delays[i]) << threads << " sample " << i;
  }
  exec::set_threads(0);

  // A stop with zero completed samples cannot degrade: typed error.
  fault::configure("deadline-expire:1");
  try {
    monte_carlo_link(model, ctx, design, 50, 5);
    FAIL() << "expected deadline_exceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::deadline_exceeded);
  }
}

// --------------------------------------------------------------- charlib

TEST_F(DeadlineFixture, CharlibStopBelowQuorumIsTypedNotNoConvergence) {
  fault::configure("deadline-expire:1");  // stops every sweep at item 0
  CharacterizationOptions opt;
  opt.slew_axis = {20 * ps, 100 * ps};
  opt.fanout_axis = {2.0, 8.0};
  try {
    characterize_cell(technology(TechNode::N65), CellKind::Inverter, 8, opt);
    FAIL() << "expected deadline_exceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::deadline_exceeded);
  }
}

TEST_F(DeadlineFixture, CharlibPatchesTruncatedTailWhenQuorumHolds) {
  // Find a seed whose first fire lands on the LAST of the 2x2 sweep's
  // four points: cutoff 3 leaves 3 of 4 survivors (quorum 0.7 holds), and
  // both the rise and fall tables see the same per-item draw pattern.
  CharacterizationOptions opt;
  opt.slew_axis = {20 * ps, 100 * ps};
  opt.fanout_axis = {2.0, 8.0};
  uint64_t chosen = 0;
  for (uint64_t seed = 1; seed < 400 && chosen == 0; ++seed) {
    fault::configure("cancel-midchunk:0.3:" + std::to_string(seed));
    if (predicted_cutoff(fault::kCancelMidchunk, 4) == 3) chosen = seed;
  }
  ASSERT_NE(chosen, 0u) << "no seed with cutoff 3 in range";

  fault::configure("cancel-midchunk:0.3:" + std::to_string(chosen));
  const RepeaterCell cell =
      characterize_cell(technology(TechNode::N65), CellKind::Inverter, 8, opt);
  EXPECT_TRUE(cell.partial());
  EXPECT_TRUE(cell.rise.partial);
  // The truncated point was neighbor-patched: every table entry is a
  // finite, positive timing value.
  for (size_t i = 0; i < cell.rise.slew_axis.size(); ++i)
    for (size_t j = 0; j < cell.rise.load_axis.size(); ++j) {
      EXPECT_GT(cell.rise.delay(i, j), 0.0) << i << "," << j;
      EXPECT_TRUE(std::isfinite(cell.rise.delay(i, j)));
    }

  // Clean run for reference: the patched table differs only at the
  // truncated point's entries, everything below the cutoff is identical.
  fault::clear();
  const RepeaterCell ref =
      characterize_cell(technology(TechNode::N65), CellKind::Inverter, 8, opt);
  EXPECT_FALSE(ref.partial());
  EXPECT_EQ(cell.rise.delay(0, 0), ref.rise.delay(0, 0));
  EXPECT_EQ(cell.rise.delay(0, 1), ref.rise.delay(0, 1));
  EXPECT_EQ(cell.rise.delay(1, 0), ref.rise.delay(1, 0));
}

TEST_F(DeadlineFixture, CalibratedFitRefusesTruncatedLibraryAndNeverCaches) {
  // A fit has no partial semantics and its cache key carries no deadline
  // state: a stop that leaves charlib's quorum intact must surface the
  // typed error from calibrated_fit, and neither cache tier may
  // keep coefficients regressed from the patched tables.
  struct ScratchCache {
    std::string dir;
    ScratchCache() : dir(::testing::TempDir() + "pim_deadline_fit_cache") {
      std::filesystem::remove_all(dir);
      cache::set_dir(dir);
      cache::set_mode(cache::Mode::ReadWrite);
      cache::Store::global().clear_memory();
    }
    ~ScratchCache() {
      cache::Store::global().clear_memory();
      cache::reset_mode();
      cache::set_dir("");
      std::filesystem::remove_all(dir);
    }
  } scratch;

  CharacterizationOptions copt = trimmed_inverter_characterization();
  copt.slew_axis = {20 * ps, 100 * ps};
  copt.fanout_axis = {2.0, 8.0};
  const CompositionOptions comp = trimmed_composition();
  const Technology& base = technology(TechNode::N65);

  // Seed whose first fire lands on the last of the 2x2 sweep's four
  // points, so the quorum holds and characterization itself degrades to
  // a partial library instead of throwing below the fit layer.
  uint64_t chosen = 0;
  for (uint64_t seed = 1; seed < 400 && chosen == 0; ++seed) {
    fault::configure("cancel-midchunk:0.3:" + std::to_string(seed));
    if (predicted_cutoff(fault::kCancelMidchunk, 4) == 3) chosen = seed;
  }
  ASSERT_NE(chosen, 0u) << "no seed with cutoff 3 in range";
  fault::configure("cancel-midchunk:0.3:" + std::to_string(chosen));

  try {
    calibrated_fit(base, Corner{}, "", copt, comp);
    FAIL() << "expected cancelled";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::cancelled);
  }
  // Nothing reached the store (charlib itself never writes entries).
  EXPECT_EQ(cache::Store::global().memory_entries(), 0u);

  // A clean retry recomputes from scratch; bit-identity against a
  // cache-off ground truth proves no biased entry was served.
  fault::clear();
  const TechnologyFit clean = calibrated_fit(base, Corner{}, "", copt, comp);
  EXPECT_EQ(cache::Store::global().memory_entries(), 1u);
  cache::set_mode(cache::Mode::Off);
  const TechnologyFit truth = calibrated_fit(base, Corner{}, "", copt, comp);
  EXPECT_EQ(write_fit(clean), write_fit(truth));
}

// ------------------------------------------------------------------ cosi

TEST_F(DeadlineFixture, SynthesisKeepsBestFeasibleSizingOnCancel) {
  SocSpec spec;
  spec.name = "tiny";
  spec.die_width = 4 * mm;
  spec.die_height = 4 * mm;
  spec.data_width = 32;
  spec.cores = {{"a", 0.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"b", 3.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"c", 2.0 * mm, 3.5 * mm, 0.5 * mm, 0.5 * mm}};
  spec.flows = {{0, 1, 2e9}, {1, 2, 1e9}, {0, 2, 0.5e9}};
  const BakogluModel model(technology(TechNode::N65));
  NocSynthesisOptions opt;

  // cancel-midchunk:1 fires on the first merge-loop poll: phases 2 and
  // the finalization tail (GraceScope) still run, so the result is the
  // initial feasible network, marked partial, with zero merges.
  fault::configure("cancel-midchunk:1");
  const NocSynthesisResult r = synthesize_noc(spec, model, opt);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.merges_applied, 0);
  // The pre-merge topology is point-to-point: links exist, routers may not.
  EXPECT_FALSE(r.architecture.edges().empty());
  EXPECT_GT(r.metrics.total_power(), 0.0);

  // Same via the pending-cancel flag instead of the fault site.
  fault::clear();
  deadline::request_cancel();
  const NocSynthesisResult c = synthesize_noc(spec, model, opt);
  EXPECT_TRUE(c.partial);
  EXPECT_GT(c.metrics.total_power(), 0.0);
  deadline::reset();
}

// ------------------------------------------------------------------- api

TEST_F(DeadlineFixture, ApiSynthesisReportsPartialBestSizing) {
  api::SynthesisRequest req;
  req.spec = "dvopd";
  req.tech = "65nm";
  req.model = "bakoglu";  // closed-form: no characterization needed
  fault::configure("cancel-midchunk:1");
  const auto result = api::run_synthesis(req);
  ASSERT_TRUE(result.ok()) << result.error().what();
  EXPECT_TRUE(result.value().partial);
  EXPECT_GT(result.value().num_links, 0);
  EXPECT_GT(result.value().dynamic_power_mw, 0.0);
}

TEST_F(DeadlineFixture, ApiMapsZeroProgressStopsToTypedErrors) {
  // A charlib sweep stopped at item 0 has nothing to patch: the facade
  // surfaces the typed error instead of a fabricated partial result.
  api::CharlibRequest req;
  req.tech = "65nm";
  fault::configure("deadline-expire:1");
  const auto result = api::run_charlib(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::deadline_exceeded);
}

TEST_F(DeadlineFixture, ApiScopeArmsAndRestoresTheAmbientBudget) {
  // The facade arms the request's budget only for the call: an expired
  // per-request deadline must not leak into later requests.
  api::TechfileRequest req;
  req.tech = "45nm";
  req.deadline_ms = 3'600'000;
  ASSERT_TRUE(api::run_techfile(req).ok());
  EXPECT_FALSE(deadline::engaged());
  EXPECT_EQ(deadline::check(), deadline::StopReason::none);
}

}  // namespace
}  // namespace pim
