// Tests for the observability subsystem: metrics registry, scoped timers,
// trace buffer bounding, and the JSON/CSV reporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/textfile.hpp"

namespace pim::obs {
namespace {

// reset() zeroes values but keeps registrations alive (call sites cache
// handles), so tests locate their own metrics by name rather than
// asserting on registry-wide sizes.
const TimerSnapshot* find_timer(const MetricsSnapshot& snap, const std::string& name) {
  for (const TimerSnapshot& t : snap.timers)
    if (t.name == name) return &t;
  return nullptr;
}

const int64_t* find_counter(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return &v;
  return nullptr;
}

// Every test starts from a zeroed, enabled registry and empty trace buffer;
// collection is switched back off on exit so other suites see the default.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry().reset();
    clear_trace();
    set_enabled(true);
  }
  void TearDown() override {
    set_trace_enabled(false);
    set_enabled(false);
    registry().reset();
    clear_trace();
  }
};

TEST_F(ObsTest, CounterRegistrationAndIncrement) {
  Counter& c = registry().counter("test.counter.hits");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name returns the same counter.
  EXPECT_EQ(&registry().counter("test.counter.hits"), &c);
  EXPECT_EQ(registry().counter("test.counter.hits").value(), 42);
}

TEST_F(ObsTest, CounterIgnoredWhenDisabled) {
  Counter& c = registry().counter("test.counter.gated");
  set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 0);
  set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge& g = registry().gauge("test.gauge.level");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST_F(ObsTest, TimerRecordsDurations) {
  Timer& t = registry().timer("test.timer.span");
  t.record_ns(1000);
  t.record_ns(3000);
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* found = find_timer(snap, "test.timer.span");
  ASSERT_NE(found, nullptr);
  const TimerSnapshot& ts = *found;
  EXPECT_EQ(ts.count, 2);
  EXPECT_EQ(ts.total_ns, 4000);
  EXPECT_EQ(ts.min_ns, 1000);
  EXPECT_EQ(ts.max_ns, 3000);
  EXPECT_DOUBLE_EQ(ts.mean_ns(), 2000.0);
  EXPECT_GE(ts.quantile_ns(0.99), ts.quantile_ns(0.5));
  EXPECT_LE(ts.quantile_ns(1.0), ts.max_ns);
}

TEST_F(ObsTest, ScopedTimerMeasuresSomething) {
  Timer& t = registry().timer("test.timer.scoped");
  {
    ScopedTimer st(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* ts = find_timer(snap, "test.timer.scoped");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, 1);
  EXPECT_GE(ts->total_ns, 1'000'000);  // at least the 1 ms sleep
}

TEST_F(ObsTest, ConcurrentIncrementsAreLossless) {
  Counter& c = registry().counter("test.counter.concurrent");
  Timer& t = registry().timer("test.timer.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int k = 0; k < kIters; ++k) {
        c.add();
        t.record_ns(100 + k % 7);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kIters);
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* ts = find_timer(snap, "test.timer.concurrent");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, static_cast<int64_t>(kThreads) * kIters);
}

TEST_F(ObsTest, ConcurrentRegistrationReturnsStableHandles) {
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      Counter& c = registry().counter("test.counter.race");
      c.add();
      seen[static_cast<size_t>(i)] = &c;
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[size_t(i)], seen[0]);
  EXPECT_EQ(registry().counter("test.counter.race").value(), kThreads);
}

TEST_F(ObsTest, JsonReportRoundTrips) {
  registry().counter("alpha.beta.count").add(7);
  registry().gauge("alpha.beta.level").set(1.5);
  registry().timer("alpha.beta.time").record_ns(2500);
  const std::string json = metrics_to_json(registry().snapshot());

  const JsonValue root = parse_json(json);
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  const JsonValue* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, "pim.metrics.v1");

  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* beta = counters->find("alpha.beta.count");
  ASSERT_NE(beta, nullptr);
  EXPECT_DOUBLE_EQ(beta->number, 7.0);

  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("alpha.beta.level"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("alpha.beta.level")->number, 1.5);

  const JsonValue* timers = root.find("timers");
  ASSERT_NE(timers, nullptr);
  const JsonValue* t = timers->find("alpha.beta.time");
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t->find("count"), nullptr);
  EXPECT_DOUBLE_EQ(t->find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(t->find("total_ns")->number, 2500.0);
  ASSERT_NE(t->find("p50_ns"), nullptr);
  ASSERT_NE(t->find("p99_ns"), nullptr);
}

TEST(JsonNumber, MatchesPercentGOrPercent17g) {
  // The rule json_number keeps: %g when sscanf reads it back exactly, else
  // %.17g; non-finite values render as 0. Random bit patterns cover every
  // exponent, subnormals and both zeros.
  const auto reference = [](double v) -> std::string {
    if (!std::isfinite(v)) return "0";
    char full[32], shorter[32];
    std::snprintf(full, sizeof full, "%.17g", v);
    std::snprintf(shorter, sizeof shorter, "%g", v);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    return back == v ? shorter : full;
  };
  std::mt19937_64 bits(20261017);
  for (int i = 0; i < 120000; ++i) {
    const double v = std::bit_cast<double>(bits());
    ASSERT_EQ(json_number(v), reference(v)) << std::hex << std::bit_cast<uint64_t>(v);
  }
  for (double v : {0.0, -0.0, 1.5, 0.1, 1e300, 4.9e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 1.0 / 0.0, std::nan("")})
    EXPECT_EQ(json_number(v), reference(v)) << v;
}

// Each parser check's exact message and code for one bad document. The
// messages are built only when a check fails; an expected character is
// reported at the offset of the character found in its place.
TEST(JsonReader, ErrorMessagesArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"{\"a\" 1}", "json: expected ':' at offset 5"},
      {"{\"a\":1 \"b\":2}", "json: expected ',' at offset 7"},
      {"[1 2]", "json: expected ',' at offset 3"},
      {"{1:2}", "json: expected '\"' at offset 1"},
      {"{\"a\":1,}", "json: expected '\"' at offset 7"},
      {"nul", "json: bad literal at offset 0"},
      {"[tru]", "json: bad literal at offset 1"},
      {"{} x", "json: trailing content at offset 3"},
      {"{\"a\" :1}x", "json: trailing content at offset 8"},
      {"", "json: unexpected end of input"},
      {" [ 1 , 2 ", "json: unexpected end of input"},
      {"[,]", "json: expected a value at offset 1"},
      {"\"abc", "json: unterminated string"},
      {"\"a\\q\"", "json: bad escape '\\q'"},
      {"[-]", "json: bad number '-'"},
  };
  for (const auto& [text, message] : cases) {
    try {
      parse_json(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.message(), message) << text;
      EXPECT_EQ(e.code(), ErrorCode::internal) << text;
    }
  }
}

TEST(JsonReader, NumbersKeepTheAcceptSetOfStod) {
  // Out of range for stod (ERANGE) even where from_chars would take the
  // value, as it does the two subnormals.
  for (const char* bad : {"1e999", "1e-400", "1e-310", "4.9e-324", "-1e999", "-", "+", "."}) {
    try {
      parse_json(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.message(), std::string("json: bad number '") + bad + "'");
    }
  }
  const struct {
    const char* text;
    double value;
  } good[] = {{"+1", 1.0},
              {"-0", -0.0},
              {"0e999", 0.0},
              {"2.5E-3", 2.5e-3},
              {"1e308", 1e308},
              {"2.2250738585072014e-308", 2.2250738585072014e-308}};
  for (const auto& [text, value] : good) {
    const JsonValue v = parse_json(text);
    ASSERT_EQ(v.kind, JsonValue::Kind::Number) << text;
    EXPECT_EQ(std::bit_cast<uint64_t>(v.number), std::bit_cast<uint64_t>(value)) << text;
  }
}

TEST_F(ObsTest, JsonEscapesAwkwardNames) {
  registry().counter("weird.\"name\"\\with\nstuff").add(1);
  const std::string json = metrics_to_json(registry().snapshot());
  const JsonValue root = parse_json(json);  // must not throw
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("weird.\"name\"\\with\nstuff"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("weird.\"name\"\\with\nstuff")->number, 1.0);
}

TEST_F(ObsTest, TraceBufferRecordsNestedSpans) {
  set_trace_enabled(true, 64);
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete innermost-first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST_F(ObsTest, TraceBufferIsBounded) {
  set_trace_enabled(true, 8);
  for (int i = 0; i < 20; ++i) TraceSpan span("bounded");
  EXPECT_EQ(trace_events().size(), 8u);
  EXPECT_EQ(trace_dropped(), 12u);
  clear_trace();
  EXPECT_TRUE(trace_events().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

// A full buffer truncates the trace silently while recording; the flush
// says so once, naming the dropped count and the capacity. A complete
// trace flushes without a word.
TEST_F(ObsTest, TruncatedTraceFlushWarnsOnce) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pim_obs_truncated.trace.json").string();
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Warn);
  set_trace_enabled(true, 8);
  for (int i = 0; i < 20; ++i) TraceSpan span("bounded");

  testing::internal::CaptureStderr();
  save_trace(path);
  const std::string warned = testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find("12 spans were dropped past the buffer's capacity of 8"),
            std::string::npos)
      << warned;
  EXPECT_EQ(std::count(warned.begin(), warned.end(), '\n'), 1) << warned;
  EXPECT_EQ(parse_json(read_text_file(path, "test")).find("traceEvents")->items.size(), 8u);

  clear_trace();
  testing::internal::CaptureStderr();
  save_trace(path);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  set_log_level(saved);
  std::filesystem::remove(path);
}

TEST_F(ObsTest, ChromeTraceJsonParses) {
  set_trace_enabled(true, 64);
  {
    TraceSpan span("chrome.export");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::string json = trace_to_chrome_json(trace_events());
  const JsonValue root = parse_json(json);
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::Array);
  ASSERT_EQ(events->items.size(), 1u);
  const JsonValue& ev = events->items[0];
  EXPECT_EQ(ev.find("name")->text, "chrome.export");
  EXPECT_EQ(ev.find("ph")->text, "X");
  EXPECT_GT(ev.find("dur")->number, 0.0);
}

TEST_F(ObsTest, ResetZeroesButKeepsRegistrations) {
  // reset() must keep the registered objects alive (call sites cache
  // references in function-local statics) and only zero their values.
  Counter& c = registry().counter("kept.after.reset");
  Timer& t = registry().timer("kept.after.timer");
  c.add(5);
  t.record_ns(1);
  registry().reset();
  EXPECT_EQ(c.value(), 0);
  const MetricsSnapshot snap = registry().snapshot();
  const int64_t* cv = find_counter(snap, "kept.after.reset");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(*cv, 0);
  const TimerSnapshot* ts = find_timer(snap, "kept.after.timer");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, 0);
  EXPECT_EQ(ts->total_ns, 0);
  (void)t;
  // The handle is still the registered object.
  c.add(2);
  EXPECT_EQ(registry().counter("kept.after.reset").value(), 2);
}

TEST_F(ObsTest, MacroCachesHandleAndCounts) {
  for (int i = 0; i < 5; ++i) PIM_COUNT("macro.cached.count");
  PIM_COUNT_N("macro.cached.count", 10);
  EXPECT_EQ(registry().counter("macro.cached.count").value(), 15);
}

// --- histogram quantile math -------------------------------------------

TEST_F(ObsTest, BucketOfFollowsLog2Boundaries) {
  // Bucket k holds [2^k, 2^(k+1)); 0 and 1 both land in bucket 0.
  EXPECT_EQ(Timer::bucket_of(0), 0);
  EXPECT_EQ(Timer::bucket_of(1), 0);
  EXPECT_EQ(Timer::bucket_of(2), 1);
  EXPECT_EQ(Timer::bucket_of(3), 1);
  EXPECT_EQ(Timer::bucket_of(4), 2);
  EXPECT_EQ(Timer::bucket_of(7), 2);
  EXPECT_EQ(Timer::bucket_of(8), 3);
  EXPECT_EQ(Timer::bucket_of(1023), 9);
  EXPECT_EQ(Timer::bucket_of(1024), 10);
  // Everything past 2^47 saturates into the last bucket.
  EXPECT_EQ(Timer::bucket_of(int64_t{1} << 47), Timer::kBuckets - 1);
  EXPECT_EQ(Timer::bucket_of(INT64_MAX), Timer::kBuckets - 1);
}

TEST_F(ObsTest, QuantileOfEmptyTimerIsZero) {
  registry().timer("quant.empty.time");
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* ts = find_timer(snap, "quant.empty.time");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, 0);
  EXPECT_DOUBLE_EQ(ts->quantile_ns(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ts->quantile_ns(0.99), 0.0);
}

TEST_F(ObsTest, QuantileSingleSampleClampsToMax) {
  // 1000 ns lands in bucket 9 (upper bound 1024); the quantile clamps the
  // bucket upper bound to the observed max, so it reports 1000 exactly.
  Timer& t = registry().timer("quant.single.time");
  t.record_ns(1000);
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* ts = find_timer(snap, "quant.single.time");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->buckets.size(), 1u);
  EXPECT_EQ(ts->buckets[0].first, 1024);
  EXPECT_DOUBLE_EQ(ts->quantile_ns(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(ts->quantile_ns(1.0), 1000.0);
}

TEST_F(ObsTest, QuantileWalksBucketsInOrder) {
  // 90 fast samples (bucket upper 16) and 10 slow ones: the median sits
  // in the fast bucket, the p99 in the slow one.
  Timer& t = registry().timer("quant.mixed.time");
  for (int i = 0; i < 90; ++i) t.record_ns(10);
  for (int i = 0; i < 10; ++i) t.record_ns(1'000'000);
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* ts = find_timer(snap, "quant.mixed.time");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, 100);
  EXPECT_DOUBLE_EQ(ts->quantile_ns(0.5), 16.0);
  EXPECT_DOUBLE_EQ(ts->quantile_ns(0.99), 1'000'000.0);  // clamped to max
}

TEST_F(ObsTest, SaturatedSampleStaysInLastBucket) {
  Timer& t = registry().timer("quant.saturated.time");
  t.record_ns(INT64_MAX);
  EXPECT_EQ(t.bucket(Timer::kBuckets - 1), 1);
  const MetricsSnapshot snap = registry().snapshot();
  const TimerSnapshot* ts = find_timer(snap, "quant.saturated.time");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->max_ns, INT64_MAX);
  // The last bucket's nominal upper bound (2^48) is below max here, so
  // the estimate is the bound — finite, not max-clamped.
  EXPECT_DOUBLE_EQ(ts->quantile_ns(1.0), static_cast<double>(int64_t{1} << 48));
}

TEST_F(ObsTest, NegativeDurationsClampToZero) {
  Timer& t = registry().timer("quant.negative.time");
  t.record_ns(-5);
  EXPECT_EQ(t.count(), 1);
  EXPECT_EQ(t.total_ns(), 0);
  EXPECT_EQ(t.min_ns(), 0);
  EXPECT_EQ(t.bucket(0), 1);
}

// --- shard-buffered timers ---------------------------------------------

TEST_F(ObsTest, ShardBuffersTimerSamplesUntilFlush) {
  Timer& t = registry().timer("shard.buffered.time");
  MetricShard shard;
  {
    ShardScope scope(shard);
    t.record_ns(100);
    t.record_ns(200);
    // Buffered: nothing has reached the shared timer yet.
    EXPECT_EQ(t.count(), 0);
  }
  // Scope exit restores the slot but does not flush.
  EXPECT_EQ(t.count(), 0);
  shard.flush();
  EXPECT_EQ(t.count(), 2);
  EXPECT_EQ(t.total_ns(), 300);
  EXPECT_EQ(t.min_ns(), 100);
  EXPECT_EQ(t.max_ns(), 200);
  EXPECT_EQ(t.bucket(Timer::bucket_of(100)), 1);
  EXPECT_EQ(t.bucket(Timer::bucket_of(200)), 1);
}

TEST_F(ObsTest, ShardMergedTimerIsBitIdenticalToDirect) {
  // The same sample sequence recorded directly and through a shard must
  // produce identical count/total/min/max and identical histograms.
  Timer& direct = registry().timer("shard.direct.time");
  Timer& sharded = registry().timer("shard.merged.time");
  MetricShard shard;
  for (int i = 0; i < 1000; ++i) {
    const int64_t ns = 100 + 37 * (i % 13) * (i % 13);
    direct.record_ns(ns);
    ShardScope scope(shard);
    sharded.record_ns(ns);
  }
  shard.flush();
  EXPECT_EQ(sharded.count(), direct.count());
  EXPECT_EQ(sharded.total_ns(), direct.total_ns());
  EXPECT_EQ(sharded.min_ns(), direct.min_ns());
  EXPECT_EQ(sharded.max_ns(), direct.max_ns());
  for (int k = 0; k < Timer::kBuckets; ++k)
    EXPECT_EQ(sharded.bucket(k), direct.bucket(k)) << "bucket " << k;
}

TEST_F(ObsTest, ShardFlushIntoAParentMovesEveryDelta) {
  Counter& c = registry().counter("shard.parent.count");
  Timer& t = registry().timer("shard.parent.time");
  MetricShard parent;
  MetricShard child;
  {
    ShardScope scope(parent);
    c.add(2);
    t.record_ns(50);
  }
  {
    ShardScope scope(child);
    c.add(3);
    t.record_ns(400);
    t.record_ns(10);
  }
  EXPECT_EQ(child.counted(c), 3);
  child.flush(&parent);
  EXPECT_EQ(child.counted(c), 0);
  EXPECT_EQ(parent.counted(c), 5);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(t.count(), 0);
  parent.flush();
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(t.count(), 3);
  EXPECT_EQ(t.total_ns(), 460);
  EXPECT_EQ(t.min_ns(), 10);
  EXPECT_EQ(t.max_ns(), 400);
  EXPECT_EQ(t.bucket(Timer::bucket_of(400)), 1);
}

TEST_F(ObsTest, ShardScopeRestoresPreviousSlot) {
  MetricShard outer_shard;
  MetricShard inner_shard;
  EXPECT_EQ(shard_slot(), nullptr);
  {
    ShardScope outer(outer_shard);
    EXPECT_EQ(shard_slot(), &outer_shard);
    {
      ShardScope inner(inner_shard);
      EXPECT_EQ(shard_slot(), &inner_shard);
    }
    EXPECT_EQ(shard_slot(), &outer_shard);
  }
  EXPECT_EQ(shard_slot(), nullptr);
}

// --- process gauges and the run ledger ---------------------------------

TEST_F(ObsTest, ForceSetStoresEvenWhenDisabled) {
  Gauge& g = registry().gauge("proc.test.level");
  set_enabled(false);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);  // regular set is gated
  g.force_set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);  // force_set is not
}

TEST_F(ObsTest, ProcessGaugesAreAlwaysAvailable) {
  set_enabled(false);  // even with collection off
  update_process_gauges();
  const MetricsSnapshot snap = registry().snapshot();
  double rss = -1.0, wall = -1.0;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "proc.peak_rss_bytes") rss = v;
    if (name == "proc.wall_ns") wall = v;
  }
  EXPECT_GT(rss, 0.0);   // a running process has resident pages
  EXPECT_GT(wall, 0.0);  // monotonic clock has advanced since start
}

TEST_F(ObsTest, LedgerRecordJsonCarriesRunContext) {
  registry().counter("cache.hit").add(3);
  registry().counter("cache.miss").add(1);
  registry().timer("ledger.span.time").record_ns(500);

  LedgerRecord record;
  record.command = "yield";
  record.flags = {{"out-dir", "/tmp/x"}, {"profile", ""}};
  record.positionals = {"design.json"};
  record.corners = "tt,ff";
  record.cache_mode = "auto";
  record.exit_code = 2;
  record.threads = 4;
  record.wall_ns = 123456;

  const JsonValue root = parse_json(ledger_record_json(record));
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  EXPECT_EQ(root.find("schema")->text, "pim.ledger.v1");
  EXPECT_EQ(root.find("command")->text, "yield");
  EXPECT_EQ(root.find("corners")->text, "tt,ff");
  EXPECT_DOUBLE_EQ(root.find("exit_code")->number, 2.0);
  EXPECT_DOUBLE_EQ(root.find("threads")->number, 4.0);
  EXPECT_DOUBLE_EQ(root.find("wall_ns")->number, 123456.0);
  EXPECT_GT(root.find("peak_rss_bytes")->number, 0.0);
  // ISO-8601 UTC timestamp.
  ASSERT_NE(root.find("ts"), nullptr);
  EXPECT_EQ(root.find("ts")->text.size(), 20u);
  EXPECT_EQ(root.find("ts")->text.back(), 'Z');

  const JsonValue* version = root.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_FALSE(version->find("pim")->text.empty());

  const JsonValue* flags = root.find("flags");
  ASSERT_NE(flags, nullptr);
  EXPECT_EQ(flags->find("out-dir")->text, "/tmp/x");

  const JsonValue* cache = root.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("mode")->text, "auto");
  EXPECT_DOUBLE_EQ(cache->find("hit")->number, 3.0);
  EXPECT_DOUBLE_EQ(cache->find("miss")->number, 1.0);

  const JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* timers = metrics->find("timers");
  ASSERT_NE(timers, nullptr);
  const JsonValue* span = timers->find("ledger.span.time");
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->find("count")->number, 1.0);
  ASSERT_NE(span->find("p50_ns"), nullptr);
  ASSERT_NE(span->find("p99_ns"), nullptr);
}

TEST_F(ObsTest, AppendLedgerRecordAccumulatesJsonLines) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pim_obs_ledger_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "sub" / "ledger.jsonl").string();

  LedgerRecord record;
  record.command = "first";
  append_ledger_record(path, record);  // creates parent directories
  record.command = "second";
  record.exit_code = 3;
  append_ledger_record(path, record);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = parse_json(lines[0]);
  const JsonValue second = parse_json(lines[1]);
  EXPECT_EQ(first.find("command")->text, "first");
  EXPECT_EQ(second.find("command")->text, "second");
  EXPECT_DOUBLE_EQ(second.find("exit_code")->number, 3.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pim::obs
