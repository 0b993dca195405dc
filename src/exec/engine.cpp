#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"

namespace pim::exec {
namespace {

// ------------------------------------------------------------ threads

std::atomic<int>& pinned_threads() {
  static std::atomic<int> pinned{0};
  return pinned;
}

int env_threads() {
  const char* env = std::getenv("PIM_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  // A malformed value must not abort the process at an arbitrary point;
  // it just falls back to the hardware default.
  try {
    const long n = parse_long(env);
    return n >= 1 ? static_cast<int>(n) : 0;
  } catch (const Error&) {
    return 0;
  }
}

// -------------------------------------------------------------- pool

// Work-queue thread pool shared by every parallel region. Workers are
// spawned lazily up to the largest count any region has requested and
// parked on the queue's condition variable between regions; the
// destructor (static destruction at process exit) drains and joins them.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void ensure_workers(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < n) workers_.emplace_back([this] { worker_loop(); });
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

// True while this thread is running items of some region; nested
// regions then run inline instead of re-entering the pool.
bool& in_region() {
  thread_local bool inside = false;
  return inside;
}

// ------------------------------------------------------------ claims

// Hands out ascending contiguous blocks of [0, n) from one atomic cursor.
// Once closed — a runner recorded a stop, or a failure under fail_fast —
// no further block is handed out. Blocks are claimed in ascending order,
// so when a runner stops or fails at item i, every block starting below
// i has already been claimed, and its runner finishes it: prefix-cutoff
// and lowest-failure semantics hold whichever runner ran which block.
class Cursor {
 public:
  Cursor(size_t n, size_t block) : n_(n), block_(block) {}

  /// Claims the next block into [begin, end); false when none is left.
  bool claim(size_t& begin, size_t& end) {
    if (closed_.load()) return false;
    begin = next_.fetch_add(block_);
    if (begin >= n_) return false;
    end = std::min(n_, begin + block_);
    return true;
  }

  void close() { closed_.store(true); }

 private:
  const size_t n_;
  const size_t block_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> closed_{false};
};

struct RunnerResult {
  std::vector<detail::ItemFailure> failures;  // ascending within the runner
  // Item index at which a deadline/cancel stop triggered (the item did
  // NOT run); SIZE_MAX when the runner ran every block it claimed.
  size_t stop_index = SIZE_MAX;
  deadline::StopReason stop = deadline::StopReason::none;
  size_t items = 0;          // items in the blocks this runner claimed
  obs::MetricShard metrics;  // merged by the submitting thread after the join
};

// Runs one item under its fault stream, after the deadline/cancel poll.
// Returns false when the runner must stop: a stop, or a failure under
// fail_fast.
bool run_item(size_t i, bool fail_fast, const std::function<void(size_t)>& body,
              RunnerResult& result) {
  fault::ScopedStream stream(i);
  // Poll under the item's fault stream so the injected stop sites draw
  // index-pure streams — which items trigger a stop is then identical at
  // any thread count (docs/robustness.md).
  const deadline::StopReason stop = deadline::check();
  if (stop != deadline::StopReason::none) {
    result.stop = stop;
    result.stop_index = i;
    return false;
  }
  try {
    body(i);
    return true;
  } catch (const Error& e) {
    result.failures.push_back({i, e});
  } catch (const std::exception& e) {
    result.failures.push_back(
        {i, Error(std::string("parallel item threw a non-pim exception: ") + e.what(),
                  ErrorCode::internal)});
  } catch (...) {
    result.failures.push_back(
        {i, Error("parallel item threw an unknown exception", ErrorCode::internal)});
  }
  return !fail_fast;
}

// Claims blocks until none is left and runs their items on the current
// thread under the submitting thread's deadline state, with one metric
// shard for the whole runner. A runner that stops closes the cursor; it
// never leaves a claimed block early otherwise.
void run_claims(Cursor& cursor, bool fail_fast, const deadline::State& inherited,
                const std::function<void(size_t)>& body, RunnerResult& result) {
  deadline::InheritScope inherit(inherited);
  obs::ShardScope scope(result.metrics);
  const bool was_inside = in_region();
  in_region() = true;
  size_t begin = 0, end = 0;
  bool running = true;
  while (running && cursor.claim(begin, end)) {
    result.items += end - begin;
    for (size_t i = begin; running && i < end; ++i)
      running = run_item(i, fail_fast, body, result);
  }
  if (!running) cursor.close();
  in_region() = was_inside;
}

// --------------------------------------------------- scheduler metrics

// exec.* scheduler metrics (docs/observability.md). Handles resolve once;
// recording happens once per runner or region, OUTSIDE the runner's
// MetricShard (which run_claims uninstalls before returning), so the
// disabled path costs one relaxed load + branch per runner — nothing per
// item or block.
struct ExecMetrics {
  obs::Timer& queue_wait = obs::registry().timer("exec.queue.wait");
  obs::Timer& chunk_run = obs::registry().timer("exec.chunk.run");
  obs::Timer& chunk_items = obs::registry().timer("exec.chunk.items");
  obs::Gauge& busy = obs::registry().gauge("exec.thread.busy_ns");
  obs::Gauge& idle = obs::registry().gauge("exec.thread.idle_ns");
  obs::Gauge& imbalance = obs::registry().gauge("exec.region.imbalance");

  static ExecMetrics& get() {
    static ExecMetrics m;
    return m;
  }
};

// run_claims plus instrumentation: queue-wait latency (`queued_ns` is the
// submit timestamp; < 0 means the runner never sat in the pool queue —
// serial regions and the calling thread's runner), runner wall time, the
// runner's item count, and a chrome-trace span carrying the worker's real
// thread id. Every runner records once, even one that found no block left.
// Returns the runner's duration in ns (0 when collection is off).
int64_t run_claims_instr(Cursor& cursor, bool fail_fast, const deadline::State& inherited,
                         const std::function<void(size_t)>& body, RunnerResult& result,
                         int64_t queued_ns) {
  const bool timing = obs::enabled();
  const bool tracing = obs::trace_enabled();
  if (!timing && !tracing) {
    run_claims(cursor, fail_fast, inherited, body, result);
    return 0;
  }
  ExecMetrics& m = ExecMetrics::get();
  const int64_t start = obs::now_ns();
  if (timing && queued_ns >= 0) m.queue_wait.record_ns(start - queued_ns);
  run_claims(cursor, fail_fast, inherited, body, result);
  const int64_t dur = obs::now_ns() - start;
  if (timing) {
    m.chunk_run.record_ns(dur);
    m.chunk_items.record_ns(static_cast<int64_t>(result.items));
  }
  obs::record_trace_event("exec.chunk.run", start, dur);
  return dur;
}

// std::thread::hardware_concurrency, with a floor of 1.
int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace

void set_threads(int n) { pinned_threads().store(n < 0 ? 0 : n, std::memory_order_relaxed); }

int threads() {
  const int pinned = pinned_threads().load(std::memory_order_relaxed);
  if (pinned >= 1) return pinned;
  const int env = env_threads();
  if (env >= 1) return env;
  return hardware_threads();
}

namespace detail {

namespace {

// Reduces runner results into the region outcome: cutoff = the minimum
// stop index over runners (completed set = [0, cutoff)), stop reason from
// that runner, and only failures below the cutoff survive, ascending by
// item. Runs on the submitting thread after the join, so it merges the
// runner shards into that thread's shard (or the globals) with no lock;
// the shards hold integer sums only, so the merge order does not matter.
RegionOutcome reduce_runners(size_t n, std::vector<RunnerResult>& results) {
  RegionOutcome out;
  out.cutoff = n;
  for (RunnerResult& r : results) {
    r.metrics.flush(obs::shard_slot());
    if (r.stop_index < out.cutoff) {
      out.cutoff = r.stop_index;
      out.stop = r.stop;
    }
  }
  // Failures at or above the cutoff belong to discarded items and are
  // dropped with them.
  for (RunnerResult& r : results)
    for (ItemFailure& f : r.failures)
      if (f.item < out.cutoff) out.failures.push_back(std::move(f));
  std::sort(out.failures.begin(), out.failures.end(),
            [](const ItemFailure& a, const ItemFailure& b) { return a.item < b.item; });
  if (out.stop != deadline::StopReason::none)
    deadline::record_stop_metrics(out.cutoff);
  return out;
}

}  // namespace

RegionOutcome run_region(size_t n, const ParallelOptions& options,
                         bool fail_fast,
                         const std::function<void(size_t)>& body) {
  if (n == 0) return {{}, deadline::StopReason::none, 0};
  const size_t want = std::min(
      static_cast<size_t>(options.threads >= 1 ? options.threads : threads()), n);
  const deadline::State inherited = deadline::current();

  // Serial (or nested) regions run the identical per-item code path on
  // this thread as one block, so results are bit-identical to any
  // parallel schedule.
  if (want == 1 || in_region()) {
    std::vector<RunnerResult> results(1);
    Cursor cursor(n, n);
    run_claims_instr(cursor, fail_fast, inherited, body, results[0], /*queued_ns=*/-1);
    return reduce_runners(n, results);
  }

  const bool timing = obs::enabled();
  const int64_t region_start = timing ? obs::now_ns() : 0;

  // About eight blocks per runner: small enough that a runner stuck on a
  // costly block leaves the rest to the others, large enough that the
  // cursor is touched rarely.
  Cursor cursor(n, std::max<size_t>(1, n / (8 * want)));
  std::vector<RunnerResult> results(want);
  // One slot per runner, written only by that runner; read after the join
  // to derive the region's busy/idle/imbalance gauges.
  std::vector<int64_t> runner_dur(want, 0);

  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  } join{{}, {}, want - 1};

  ThreadPool& pool = ThreadPool::instance();
  pool.ensure_workers(want - 1);
  for (size_t r = 1; r < want; ++r) {
    const int64_t submit_ns = timing ? obs::now_ns() : -1;
    pool.submit([&, r, submit_ns] {
      runner_dur[r] =
          run_claims_instr(cursor, fail_fast, inherited, body, results[r], submit_ns);
      // Notify under the lock: the caller destroys `join` as soon as it
      // observes remaining == 0, which it can only do after we release
      // the mutex — so the condition variable outlives this call.
      {
        std::lock_guard<std::mutex> lock(join.mu);
        --join.remaining;
        join.cv.notify_one();
      }
    });
  }
  // The calling thread is runner 0, then joins.
  runner_dur[0] =
      run_claims_instr(cursor, fail_fast, inherited, body, results[0], /*queued_ns=*/-1);
  {
    std::unique_lock<std::mutex> lock(join.mu);
    join.cv.wait(lock, [&] { return join.remaining == 0; });
  }

  if (timing) {
    const int64_t wall = obs::now_ns() - region_start;
    int64_t busy = 0, max_dur = 0;
    for (int64_t d : runner_dur) {
      busy += d;
      max_dur = std::max(max_dur, d);
    }
    ExecMetrics& m = ExecMetrics::get();
    // busy/idle accumulate over the run; idle is the time the region's
    // thread slots were not running items (queue wait, join).
    m.busy.add(static_cast<double>(busy));
    const int64_t idle = static_cast<int64_t>(want) * wall - busy;
    m.idle.add(static_cast<double>(idle > 0 ? idle : 0));
    // Imbalance = slowest runner / mean runner (1.0 = perfectly even); a
    // per-region reading, last region wins.
    if (busy > 0)
      m.imbalance.set(static_cast<double>(max_dur) * static_cast<double>(want) /
                      static_cast<double>(busy));
  }

  return reduce_runners(n, results);
}

void rethrow_first(const ItemFailure& failure) {
  throw failure.error.with_context("parallel item #" + std::to_string(failure.item));
}

}  // namespace detail
}  // namespace pim::exec
