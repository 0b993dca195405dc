// pim::exec engine suite: thread-count resolution, full coverage of the
// parallel primitives, and the determinism contract — bit-identical
// results at any --threads count for seeded RNG streams, Monte-Carlo
// yield, characterization tables, and NoC synthesis, with and without
// injected faults. Also the concurrency-exactness guarantees: metric
// shards lose no counts and fault fire counts stay exact under threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cache/memoize.hpp"
#include "charlib/characterize.hpp"
#include "cosi/synthesis.hpp"
#include "cosi/testcases.hpp"
#include "exec/engine.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "obs/metrics.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

namespace pim {
namespace {

using namespace pim::unit;

class ExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::set_threads(0);
    fault::clear();
    obs::registry().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    exec::set_threads(0);
    fault::clear();
    obs::set_enabled(false);
    obs::registry().reset();
  }
};

// ---------------------------------------------------------- resolution

TEST_F(ExecFixture, ThreadResolutionPrecedence) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware_threads = hw == 0 ? 1 : static_cast<int>(hw);
  EXPECT_GE(exec::threads(), 1);

  setenv("PIM_THREADS", "5", 1);
  EXPECT_EQ(exec::threads(), 5);
  exec::set_threads(3);  // pinned beats the environment
  EXPECT_EQ(exec::threads(), 3);
  exec::set_threads(0);
  EXPECT_EQ(exec::threads(), 5);
  setenv("PIM_THREADS", "junk", 1);  // malformed -> hardware fallback
  EXPECT_EQ(exec::threads(), hardware_threads);
  unsetenv("PIM_THREADS");
  EXPECT_EQ(exec::threads(), hardware_threads);
}

// ---------------------------------------------------------- primitives

TEST_F(ExecFixture, ParallelForRunsEveryItemExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  exec::parallel_for(n, [&](size_t i) { hits[i].fetch_add(1); },
                     {.threads = 8});
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST_F(ExecFixture, ParallelMapKeepsItemOrder) {
  const auto out = exec::parallel_map<size_t>(
      257, [](size_t i) { return i * i; }, {.threads = 8});
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_F(ExecFixture, SeededStreamsAreThreadCountInvariant) {
  const uint64_t seed = 2026;
  const size_t n = 64;
  const auto draw = [&](int t) {
    const auto batch = exec::parallel_try_map_seeded<double>(
        n, seed, [](size_t, Rng& rng) { return rng.next_double(); }, {.threads = t});
    std::vector<double> out;
    for (const auto& v : batch.values) out.push_back(v.value());
    return out;
  };
  const std::vector<double> serial = draw(1);
  EXPECT_EQ(draw(2), serial);
  EXPECT_EQ(draw(8), serial);
  // The stream is a pure function of (seed, i), not of the schedule.
  for (size_t i = 0; i < n; ++i) {
    Rng expect(derive_stream_seed(seed, i));
    EXPECT_EQ(serial[i], expect.next_double()) << "item " << i;
  }
}

TEST_F(ExecFixture, FailFastRethrowsLowestFailingItem) {
  try {
    exec::parallel_for(
        100,
        [](size_t i) {
          if (i == 37 || i == 80)
            fail("boom at " + std::to_string(i), ErrorCode::internal);
        },
        {.threads = 8});
    FAIL() << "expected the item error to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::internal);
    EXPECT_NE(std::string(e.what()).find("parallel item #37"), std::string::npos)
        << e.what();
  }
}

TEST_F(ExecFixture, NonPimExceptionsAreWrapped) {
  try {
    exec::parallel_for(
        8, [](size_t i) { if (i == 3) throw std::runtime_error("plain"); },
        {.threads = 4});
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::internal);
    EXPECT_NE(std::string(e.what()).find("plain"), std::string::npos);
  }
}

TEST_F(ExecFixture, TryMapRecordsFailuresAscendingAndKeepsSurvivors) {
  const auto batch = exec::parallel_try_map<int>(
      50,
      [](size_t i) {
        if (i % 7 == 0) fail("multiple of seven", ErrorCode::bad_input);
        return static_cast<int>(2 * i);
      },
      {.threads = 8});
  ASSERT_EQ(batch.values.size(), 50u);
  std::vector<size_t> expect_failed;
  for (size_t i = 0; i < 50; i += 7) expect_failed.push_back(i);
  EXPECT_EQ(batch.failed, expect_failed);
  ASSERT_EQ(batch.errors.size(), expect_failed.size());
  EXPECT_FALSE(batch.truncated());
  EXPECT_EQ(batch.surviving(), 50u - expect_failed.size());
  EXPECT_EQ(batch.errors.front().code(), ErrorCode::bad_input);
  for (size_t i = 0; i < 50; ++i) {
    if (i % 7 == 0) {
      EXPECT_FALSE(batch.values[i].has_value());
    } else {
      ASSERT_TRUE(batch.values[i].has_value());
      EXPECT_EQ(*batch.values[i], static_cast<int>(2 * i));
    }
  }
}

TEST_F(ExecFixture, NestedRegionsRunInlineWithoutDeadlock) {
  std::atomic<int> total{0};
  exec::parallel_for(
      4,
      [&](size_t) {
        exec::parallel_for(
            8, [&](size_t) { total.fetch_add(1); }, {.threads = 8});
      },
      {.threads = 4});
  EXPECT_EQ(total.load(), 32);
}

TEST_F(ExecFixture, EmptyAndTinyRegionsWork) {
  exec::parallel_for(0, [](size_t) { FAIL() << "no items to run"; });
  const auto one = exec::parallel_map<int>(
      1, [](size_t) { return 41; }, {.threads = 8});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

// ------------------------------------------------------------ claiming

// A region with deliberately skewed item costs: item 0 stalls until item
// `wait_for` has started. Runners claim ascending blocks, so the runner
// holding item 0 is stuck while the others claim and run everything up
// to `wait_for` — items at the two ends are run by different runners, and
// item 0 finishes after `wait_for`.
class SkewedRegion {
 public:
  SkewedRegion(size_t n, size_t wait_for) : runner_(n), wait_for_(wait_for) {}

  /// Call first in the item body.
  void enter(size_t i) {
    runner_[i] = std::this_thread::get_id();
    if (i == wait_for_) started_.store(true);
    if (i != 0) return;
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!started_.load()) {
      if (std::chrono::steady_clock::now() > give_up) {
        timed_out_.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  bool timed_out() const { return timed_out_.load(); }
  std::thread::id runner(size_t i) const { return runner_[i]; }

 private:
  std::vector<std::thread::id> runner_;  // slot i written only by item i
  size_t wait_for_;
  std::atomic<bool> started_{false};
  std::atomic<bool> timed_out_{false};
};

TEST_F(ExecFixture, SkewedItemsEachRunOnceIntoTheirOwnSlot) {
  const size_t n = 1000;
  SkewedRegion region(n, n - 1);
  std::vector<std::atomic<int>> hits(n);
  const auto out = exec::parallel_map<size_t>(
      n,
      [&](size_t i) {
        region.enter(i);
        hits[i].fetch_add(1);
        return 3 * i + 1;
      },
      {.threads = 4});
  ASSERT_FALSE(region.timed_out()) << "no other runner claimed the last block";
  EXPECT_NE(region.runner(0), region.runner(n - 1));
  ASSERT_EQ(out.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
    EXPECT_EQ(out[i], 3 * i + 1) << "item " << i;
  }
  // One chunk record per runner; their item counts add up to the region.
  EXPECT_EQ(obs::registry().timer("exec.chunk.run").count(), 4);
  EXPECT_EQ(obs::registry().timer("exec.chunk.items").total_ns(), static_cast<int64_t>(n));
}

TEST_F(ExecFixture, TryMapFailuresFromDifferentRunnersComeBackAscending) {
  // Every item but the stalled one costs a short sleep, so the three free
  // runners keep claiming blocks side by side and their failures
  // interleave by index.
  const size_t n = 256;
  SkewedRegion region(n, n - 1);
  const auto planted = [](size_t i) { return i % 7 == 0; };
  const auto batch = exec::parallel_try_map<int>(
      n,
      [&](size_t i) {
        region.enter(i);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        if (planted(i)) fail("planted at " + std::to_string(i), ErrorCode::bad_input);
        return static_cast<int>(i);
      },
      {.threads = 4});
  ASSERT_FALSE(region.timed_out()) << "no other runner claimed the last block";
  // Item 0 failed last, on another runner than the tail's failures.
  EXPECT_NE(region.runner(0), region.runner(n - 1));
  std::vector<size_t> want;
  for (size_t i = 0; i < n; ++i)
    if (planted(i)) want.push_back(i);
  EXPECT_EQ(batch.failed, want);
  ASSERT_EQ(batch.errors.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k)
    EXPECT_NE(std::string(batch.errors[k].what()).find("planted at " + std::to_string(want[k])),
              std::string::npos);
  EXPECT_EQ(batch.surviving(), n - want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!planted(i)) {
      EXPECT_EQ(batch.values[i], static_cast<int>(i));
    }
  }
}

TEST_F(ExecFixture, ParallelForRethrowsTheLowestFailureEvenWhenItFailsLast) {
  const size_t n = 64;
  SkewedRegion region(n, 33);
  try {
    exec::parallel_for(
        n,
        [&](size_t i) {
          region.enter(i);
          if (i == 0 || i == 33) fail("planted at " + std::to_string(i), ErrorCode::internal);
        },
        {.threads = 4});
    FAIL() << "expected the item error to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("parallel item #0"), std::string::npos) << e.what();
  }
  ASSERT_FALSE(region.timed_out()) << "no other runner claimed item 33";
  EXPECT_NE(region.runner(0), region.runner(33));
}

// ------------------------------------------------------------- metrics

TEST_F(ExecFixture, MetricShardsLoseNoCounts) {
  const size_t n = 10000;
  exec::parallel_for(
      n, [](size_t) { PIM_COUNT("exec.test.items"); }, {.threads = 8});
  EXPECT_EQ(obs::registry().counter("exec.test.items").value(),
            static_cast<int64_t>(n));
}

TEST_F(ExecFixture, ChunkShardsMergeIntoTheSubmittersShard) {
  // A caller counting one request under its own shard sees every count
  // its pool chunks made, and nothing reaches the registry until it
  // flushes.
  obs::Counter& items = obs::registry().counter("exec.test.items");
  obs::Timer& timer = obs::registry().timer("exec.test.item.time");
  obs::MetricShard request;
  {
    obs::ShardScope scope(request);
    exec::parallel_for(
        1000,
        [&](size_t i) {
          items.add();
          timer.record_ns(static_cast<int64_t>(i));
        },
        {.threads = 4});
  }
  EXPECT_EQ(items.value(), 0);
  EXPECT_EQ(timer.count(), 0);
  EXPECT_EQ(request.counted(items), 1000);
  request.flush();
  EXPECT_EQ(items.value(), 1000);
  EXPECT_EQ(timer.count(), 1000);
  EXPECT_EQ(timer.max_ns(), 999);
}

TEST_F(ExecFixture, ShardMergedTimersAreBitIdenticalAtAnyThreadCount) {
  // Timer samples recorded inside a region are buffered per chunk and
  // merged at join; every aggregate — histogram buckets included — must
  // equal the serial recording no matter the schedule.
  const size_t n = 1000;
  const auto sample_ns = [](size_t i) {
    return static_cast<int64_t>(100 + 37 * (i % 13) * (i % 13));
  };

  obs::Timer& ref = obs::registry().timer("exec.test.ref.time");
  for (size_t i = 0; i < n; ++i) ref.record_ns(sample_ns(i));
  const int64_t want_count = ref.count();
  const int64_t want_total = ref.total_ns();
  const int64_t want_min = ref.min_ns();
  const int64_t want_max = ref.max_ns();
  std::vector<int64_t> want_buckets(obs::Timer::kBuckets);
  for (int k = 0; k < obs::Timer::kBuckets; ++k) want_buckets[k] = ref.bucket(k);

  obs::Timer& timer = obs::registry().timer("exec.test.span.time");
  for (int t : {1, 2, 8}) {
    timer.reset();
    exec::parallel_for(
        n, [&](size_t i) { timer.record_ns(sample_ns(i)); }, {.threads = t});
    EXPECT_EQ(timer.count(), want_count) << "threads=" << t;
    EXPECT_EQ(timer.total_ns(), want_total) << "threads=" << t;
    EXPECT_EQ(timer.min_ns(), want_min) << "threads=" << t;
    EXPECT_EQ(timer.max_ns(), want_max) << "threads=" << t;
    for (int k = 0; k < obs::Timer::kBuckets; ++k)
      EXPECT_EQ(timer.bucket(k), want_buckets[k]) << "threads=" << t
                                                  << " bucket " << k;
  }
}

TEST_F(ExecFixture, SchedulerMetricsCoverQueueWaitAndChunkShape) {
  // An explicit thread request forces the pool even on one core, so the
  // submitted chunks (every chunk but the caller's) record queue wait.
  const size_t n = 1000;
  exec::parallel_for(n, [](size_t) {}, {.threads = 4});

  obs::Timer& chunk_run = obs::registry().timer("exec.chunk.run");
  obs::Timer& chunk_items = obs::registry().timer("exec.chunk.items");
  obs::Timer& queue_wait = obs::registry().timer("exec.queue.wait");
  EXPECT_EQ(chunk_run.count(), 4);   // one span per chunk
  EXPECT_EQ(chunk_items.count(), 4);
  EXPECT_EQ(chunk_items.total_ns(), static_cast<int64_t>(n));  // items, not ns
  EXPECT_EQ(queue_wait.count(), 3);  // caller chunk 0 never queues

  // Region gauges: busy accumulates chunk time; imbalance is
  // slowest/mean, so 1.0 is its floor.
  EXPECT_GT(obs::registry().gauge("exec.thread.busy_ns").value(), 0.0);
  EXPECT_GE(obs::registry().gauge("exec.region.imbalance").value(), 1.0);

  // A serial region adds chunk spans but no queue wait.
  exec::parallel_for(16, [](size_t) {}, {.threads = 1});
  EXPECT_EQ(chunk_run.count(), 5);
  EXPECT_EQ(queue_wait.count(), 3);
}

// -------------------------------------------------------------- faults

TEST_F(ExecFixture, FaultFiresAreExactAndThreadCountInvariant) {
  const size_t n = 400;
  const auto pattern = [&](int t) {
    fault::configure("variation.sample:0.3:42");  // also resets fired counts
    std::vector<char> fired(n, 0);
    exec::parallel_for(
        n,
        [&](size_t i) {
          fired[i] = fault::should_fire(fault::kVariationSample) ? 1 : 0;
        },
        {.threads = t});
    return fired;
  };
  const std::vector<char> serial = pattern(1);
  int64_t expected_fired = 0;
  for (char f : serial) expected_fired += f;
  EXPECT_GT(expected_fired, 0);
  EXPECT_LT(expected_fired, static_cast<int64_t>(n));
  EXPECT_EQ(fault::fired_count(fault::kVariationSample), expected_fired);

  EXPECT_EQ(pattern(2), serial);
  EXPECT_EQ(fault::fired_count(fault::kVariationSample), expected_fired);
  EXPECT_EQ(pattern(8), serial);
  EXPECT_EQ(fault::fired_count(fault::kVariationSample), expected_fired);
  // The injected-fire counter is shard-buffered inside regions yet exact.
  EXPECT_EQ(obs::registry().counter("fault.variation.sample.injected").value(),
            3 * expected_fired);
}

// ------------------------------------------------- flow-level identity

// Hand-filled fit with representative magnitudes (as in test_faults):
// the determinism checks only need finite, positive closed-form numbers.
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

TEST_F(ExecFixture, MonteCarloYieldIsBitIdenticalAcrossThreadCounts) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;

  const auto run = [&](int t) {
    exec::set_threads(t);
    return monte_carlo_link(model, ctx, design, 400, 2026);
  };
  const MonteCarloResult serial = run(1);
  for (int t : {2, 8}) {
    const MonteCarloResult mc = run(t);
    EXPECT_EQ(mc.delays, serial.delays) << "threads=" << t;
    EXPECT_EQ(mc.mean_delay, serial.mean_delay);
    EXPECT_EQ(mc.sigma_delay, serial.sigma_delay);
    EXPECT_EQ(mc.mean_power, serial.mean_power);
    EXPECT_EQ(mc.failed_samples, serial.failed_samples);
  }

  // Same contract with faults injected: which samples fail is a pure
  // function of the site seed and the sample index.
  const auto run_faulty = [&](int t) {
    exec::set_threads(t);
    fault::configure("variation.sample:0.25:13");
    return monte_carlo_link(model, ctx, design, 400, 2026);
  };
  const MonteCarloResult f1 = run_faulty(1);
  EXPECT_GT(f1.failed_samples, 0);
  for (int t : {2, 8}) {
    const MonteCarloResult ft = run_faulty(t);
    EXPECT_EQ(ft.delays, f1.delays) << "threads=" << t;
    EXPECT_EQ(ft.failed_samples, f1.failed_samples);
  }

  // Within-die flavor draws many values per sample; same guarantee.
  exec::set_threads(1);
  fault::clear();
  const MonteCarloResult w1 = monte_carlo_link_within_die(model, ctx, design, 200, 7);
  exec::set_threads(8);
  const MonteCarloResult w8 = monte_carlo_link_within_die(model, ctx, design, 200, 7);
  EXPECT_EQ(w8.delays, w1.delays);
  EXPECT_EQ(w8.sigma_delay, w1.sigma_delay);
}

// The delays of a Monte-Carlo run, and the payload the cache stores for
// it, are the same bits at threads 1-4 at every size around the
// encode's fixed chunk: one sample, a chunk less one, a chunk, a chunk
// plus one, and a 20,000-sample yield run. The delays line is the one
// a serial writer gives: every value at 17 significant digits, in order.
TEST_F(ExecFixture, MonteCarloPayloadIsBitIdenticalAtEveryChunkBoundary) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;
  using Codec = cache::Payload<MonteCarloResult>;

  for (const size_t samples :
       {size_t{1}, kDelayChunk - 1, kDelayChunk, kDelayChunk + 1, size_t{20000}}) {
    exec::set_threads(1);
    const MonteCarloResult serial =
        monte_carlo_link(model, ctx, design, static_cast<int>(samples), 2026);
    const std::string serial_payload = Codec::encode(serial);
    ASSERT_EQ(serial.delays.size(), samples);
    std::string line = "delays";
    for (double d : serial.delays) line += ' ' + format_sig(d, 17);
    EXPECT_TRUE(serial_payload.ends_with("\n" + line + "\n")) << "samples=" << samples;
    EXPECT_EQ(Codec::decode(serial_payload).delays, serial.delays) << "samples=" << samples;
    for (int t = 2; t <= 4; ++t) {
      exec::set_threads(t);
      const MonteCarloResult mc =
          monte_carlo_link(model, ctx, design, static_cast<int>(samples), 2026);
      EXPECT_EQ(mc.delays, serial.delays) << "samples=" << samples << " threads=" << t;
      EXPECT_EQ(mc.mean_delay, serial.mean_delay);
      EXPECT_EQ(mc.sigma_delay, serial.sigma_delay);
      EXPECT_TRUE(Codec::encode(mc) == serial_payload)
          << "samples=" << samples << " threads=" << t;
    }
  }
}

TEST_F(ExecFixture, CharacterizationTablesAreBitIdenticalAcrossThreadCounts) {
  CharacterizationOptions opt;
  opt.slew_axis = {20 * ps, 100 * ps};
  opt.fanout_axis = {2.0, 8.0};
  const Technology& tech = technology(TechNode::N65);

  exec::set_threads(1);
  const RepeaterCell serial = characterize_cell(tech, CellKind::Inverter, 8, opt);
  exec::set_threads(8);
  const RepeaterCell threaded = characterize_cell(tech, CellKind::Inverter, 8, opt);

  EXPECT_EQ(threaded.input_cap, serial.input_cap);
  EXPECT_EQ(threaded.leakage_nmos, serial.leakage_nmos);
  EXPECT_EQ(threaded.area, serial.area);
  for (const auto table : {&RepeaterCell::rise, &RepeaterCell::fall}) {
    const TimingTable& a = serial.*table;
    const TimingTable& b = threaded.*table;
    ASSERT_EQ(b.delay.rows(), a.delay.rows());
    ASSERT_EQ(b.delay.cols(), a.delay.cols());
    for (size_t i = 0; i < a.delay.rows(); ++i)
      for (size_t j = 0; j < a.delay.cols(); ++j) {
        EXPECT_EQ(b.delay(i, j), a.delay(i, j)) << i << "," << j;
        EXPECT_EQ(b.out_slew(i, j), a.out_slew(i, j)) << i << "," << j;
      }
  }
}

TEST_F(ExecFixture, SynthesisTopologyIsIdenticalAcrossThreadCounts) {
  const SocSpec spec = mpeg4_spec();
  const BakogluModel model(technology(TechNode::N65));

  exec::set_threads(1);
  const NocSynthesisResult serial = synthesize_noc(spec, model);
  exec::set_threads(8);
  const NocSynthesisResult threaded = synthesize_noc(spec, model);

  EXPECT_EQ(threaded.merges_applied, serial.merges_applied);
  EXPECT_EQ(threaded.architecture.router_count(), serial.architecture.router_count());
  EXPECT_EQ(threaded.metrics.total_power(), serial.metrics.total_power());
  const auto& na = serial.architecture.nodes();
  const auto& nb = threaded.architecture.nodes();
  ASSERT_EQ(nb.size(), na.size());
  for (size_t i = 0; i < na.size(); ++i) {
    EXPECT_EQ(nb[i].x, na[i].x) << "node " << i;
    EXPECT_EQ(nb[i].y, na[i].y) << "node " << i;
  }
  const auto& ea = serial.architecture.edges();
  const auto& eb = threaded.architecture.edges();
  ASSERT_EQ(eb.size(), ea.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(eb[i].a, ea[i].a) << "edge " << i;
    EXPECT_EQ(eb[i].b, ea[i].b) << "edge " << i;
    EXPECT_EQ(eb[i].alive, ea[i].alive) << "edge " << i;
  }
}

}  // namespace
}  // namespace pim
