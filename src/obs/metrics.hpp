// Process-global metrics registry: named counters, gauges, and
// histogram-backed timers.
//
// Design constraints (see docs/observability.md):
//  - Hot-path updates are a relaxed atomic plus an enabled check; when
//    collection is disabled (the default) every update degenerates to a
//    single relaxed load and branch, so instrumented code paths run at
//    their uninstrumented speed.
//  - Metric handles returned by the registry are valid for the life of
//    the process, so call sites cache them in function-local statics
//    (the PIM_COUNT / PIM_OBS_SPAN macros do this).
//  - Everything is thread-safe. Counters/gauges/timers update with
//    relaxed atomics, so concurrent writers are race-free; parallel hot
//    loops additionally install per-thread MetricShards (the exec engine
//    does this per runner) that buffer counter deltas AND timer samples
//    locally and merge them exactly at join, keeping even the atomic
//    traffic off the hot path while totals stay exact.
//
// Names follow the `subsystem.noun.verb` scheme, e.g.
// "spice.newton.iterations" or "buffering.candidate.count".
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pim::obs {

/// Globally enables/disables metric collection. Off by default.
void set_enabled(bool on);

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

class Counter;
class Timer;

/// Number of log-2 histogram buckets per Timer (bucket k counts values
/// in [2^k, 2^(k+1)) ns; 2^48 ns ~ 3.3 days, plenty). A namespace-level
/// constant so MetricShard can size its buffered deltas before Timer is
/// defined.
inline constexpr int kTimerBuckets = 48;

/// Exact per-thread aggregate of Timer::record_ns calls buffered by a
/// MetricShard: the same count/total/min/max/bucket state a Timer keeps,
/// accumulated without atomics and merged in one pass at flush.
struct TimerDelta {
  Timer* timer = nullptr;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t min_ns = INT64_MAX;
  int64_t max_ns = 0;
  int64_t buckets[kTimerBuckets] = {};

  void merge(const TimerDelta& other) {
    count += other.count;
    total_ns += other.total_ns;
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
    for (int k = 0; k < kTimerBuckets; ++k) buckets[k] += other.buckets[k];
  }
};

/// Per-thread metric buffer for parallel hot loops. A worker thread that
/// installs a shard (via ShardScope — the exec engine does this per
/// runner) turns every Counter::add and Timer::record_ns on that thread
/// into a plain non-atomic accumulation into a small local table;
/// flush() merges the buffered state into the shared atomics in one pass
/// per metric. Totals stay exact — histogram bucket counts included, so
/// reported quantiles are bit-identical at any thread count — and the
/// hot path touches no lock and no shared cache line.
class MetricShard {
 public:
  void add(Counter& counter, int64_t delta);
  void record(Timer& timer, int64_t ns);

  /// Applies every buffered delta to its metric — or, given `parent`,
  /// moves it into that shard, which keeps buffering it — and empties
  /// this shard.
  void flush(MetricShard* parent = nullptr);

  /// The delta buffered for `counter` since the last flush.
  int64_t counted(const Counter& counter) const;

 private:
  TimerDelta& delta_for(Timer& timer);

  // Hot loops touch a handful of distinct metrics, so a linear scan over
  // a small vector beats hashing.
  std::vector<std::pair<Counter*, int64_t>> deltas_;
  std::vector<TimerDelta> timers_;
};

/// This thread's active shard slot (null when no shard is installed —
/// the default; updates then go straight to the shared atomics).
inline MetricShard*& shard_slot() {
  thread_local MetricShard* shard = nullptr;
  return shard;
}

/// Installs `shard` as this thread's active shard for the scope; restores
/// the previous slot on exit. Does NOT flush — the owner decides when the
/// buffered deltas merge (the exec engine flushes at the join).
class ShardScope {
 public:
  explicit ShardScope(MetricShard& shard) : prev_(shard_slot()) {
    shard_slot() = &shard;
  }
  ~ShardScope() { shard_slot() = prev_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  MetricShard* prev_;
};

/// Monotonically increasing event tally.
class Counter {
 public:
  void add(int64_t delta = 1) {
    if (!enabled()) return;
    if (MetricShard* shard = shard_slot()) {
      shard->add(*this, delta);
      return;
    }
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

  /// Applies a shard-buffered delta directly to the shared atomic,
  /// bypassing the shard path (used by MetricShard::flush).
  void merge(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

inline void MetricShard::add(Counter& counter, int64_t delta) {
  for (auto& [slot, buffered] : deltas_) {
    if (slot == &counter) {
      buffered += delta;
      return;
    }
  }
  deltas_.emplace_back(&counter, delta);
}

/// Last-value-wins measurement (also supports accumulation).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  /// Stores regardless of the collection switch — for process-level
  /// readings (peak RSS, wall clock) that ledger records and reports
  /// carry even when hot-path collection is off.
  void force_set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    if (!enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Wall-time accumulator with count/total/min/max plus a power-of-two
/// histogram (bucket k counts values in [2^k, 2^(k+1))), from which
/// quantiles are estimated at reporting time. The unit is nanoseconds
/// for duration timers, but the histogram is unit-agnostic — some
/// metrics record sizes (cache.entry.bytes) or counts (exec.chunk.items)
/// to get the same exact distribution machinery.
class Timer {
 public:
  static constexpr int kBuckets = kTimerBuckets;

  void record_ns(int64_t ns) {
    if (!enabled()) return;
    if (ns < 0) ns = 0;
    if (MetricShard* shard = shard_slot()) {
      shard->record(*this, ns);
      return;
    }
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    atomic_min(min_ns_, ns);
    atomic_max(max_ns_, ns);
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t total_ns() const { return total_ns_.load(std::memory_order_relaxed); }
  int64_t min_ns() const {
    const int64_t v = min_ns_.load(std::memory_order_relaxed);
    return count() == 0 ? 0 : v;
  }
  int64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }
  int64_t bucket(int k) const { return buckets_[k].load(std::memory_order_relaxed); }

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
    min_ns_.store(INT64_MAX, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  static int bucket_of(int64_t ns) {
    int k = 0;
    while (ns > 1 && k < kBuckets - 1) {
      ns >>= 1;
      ++k;
    }
    return k;
  }

  /// Applies a shard-buffered aggregate directly to the shared atomics,
  /// bypassing the shard path (used by MetricShard::flush).
  void merge(const TimerDelta& delta) {
    count_.fetch_add(delta.count, std::memory_order_relaxed);
    total_ns_.fetch_add(delta.total_ns, std::memory_order_relaxed);
    atomic_min(min_ns_, delta.min_ns);
    atomic_max(max_ns_, delta.max_ns);
    for (int k = 0; k < kBuckets; ++k)
      if (delta.buckets[k] != 0)
        buckets_[k].fetch_add(delta.buckets[k], std::memory_order_relaxed);
  }

 private:
  static void atomic_min(std::atomic<int64_t>& slot, int64_t v) {
    int64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<int64_t>& slot, int64_t v) {
    int64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> total_ns_{0};
  std::atomic<int64_t> min_ns_{INT64_MAX};
  std::atomic<int64_t> max_ns_{0};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

inline TimerDelta& MetricShard::delta_for(Timer& timer) {
  for (TimerDelta& d : timers_)
    if (d.timer == &timer) return d;
  timers_.emplace_back();
  timers_.back().timer = &timer;
  return timers_.back();
}

inline void MetricShard::record(Timer& timer, int64_t ns) {
  TimerDelta& slot = delta_for(timer);
  ++slot.count;
  slot.total_ns += ns;
  if (ns < slot.min_ns) slot.min_ns = ns;
  if (ns > slot.max_ns) slot.max_ns = ns;
  ++slot.buckets[Timer::bucket_of(ns)];
}

inline void MetricShard::flush(MetricShard* parent) {
  for (auto& [slot, buffered] : deltas_) {
    if (buffered == 0) continue;
    if (parent != nullptr)
      parent->add(*slot, buffered);
    else
      slot->merge(buffered);
  }
  deltas_.clear();
  for (const TimerDelta& d : timers_) {
    if (d.count == 0) continue;
    if (parent != nullptr)
      parent->delta_for(*d.timer).merge(d);
    else
      d.timer->merge(d);
  }
  timers_.clear();
}

inline int64_t MetricShard::counted(const Counter& counter) const {
  for (const auto& [slot, buffered] : deltas_)
    if (slot == &counter) return buffered;
  return 0;
}

/// Point-in-time copy of one timer, taken for reporting.
struct TimerSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;
  /// (bucket upper bound [ns], count) for the nonzero buckets only.
  std::vector<std::pair<int64_t, int64_t>> buckets;

  double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
  }
  /// Quantile estimate from the log-2 histogram (bucket upper bounds).
  double quantile_ns(double q) const;
};

/// Point-in-time copy of the whole registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<TimerSnapshot> timers;
};

/// Owns every metric for the process. Registration takes a mutex; the
/// returned references never move or expire.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (registrations survive). For tests and
  /// repeated bench phases. To count one request in a shared process,
  /// run it under its own MetricShard instead (pimd does, per request).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

inline MetricsRegistry& registry() { return MetricsRegistry::global(); }

}  // namespace pim::obs

/// Hot-path counter increment: resolves the counter once per call site,
/// then performs one relaxed atomic add (or a plain branch when
/// collection is disabled).
#define PIM_COUNT(name) PIM_COUNT_N(name, 1)
#define PIM_COUNT_N(name, n)                                                  \
  do {                                                                        \
    static ::pim::obs::Counter& pim_obs_counter_ =                            \
        ::pim::obs::registry().counter(name);                                 \
    pim_obs_counter_.add(n);                                                  \
  } while (0)
