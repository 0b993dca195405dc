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

// True while this thread is executing a chunk of some region; nested
// regions then run inline instead of re-entering the pool.
bool& in_region() {
  thread_local bool inside = false;
  return inside;
}

// ------------------------------------------------------------- chunks

struct ChunkResult {
  std::vector<detail::ItemFailure> failures;  // ascending within the chunk
  // First item index at which a deadline/cancel stop triggered (the item
  // did NOT run); SIZE_MAX when the chunk ran to its end.
  size_t stop_index = SIZE_MAX;
  deadline::StopReason stop = deadline::StopReason::none;
  obs::MetricShard metrics;  // merged by the submitting thread after the join
};

// Runs one contiguous chunk of items on the current thread under the
// submitting thread's deadline state: per-item fault stream, per-item
// deadline/cancel poll, per-chunk metric shard, and per-item error
// capture. fail_fast stops the chunk at its first failure.
void run_chunk(size_t begin, size_t end, bool fail_fast, const deadline::State& inherited,
               const std::function<void(size_t)>& body, ChunkResult& result) {
  deadline::InheritScope inherit(inherited);
  obs::ShardScope scope(result.metrics);
  const bool was_inside = in_region();
  in_region() = true;
  for (size_t i = begin; i < end; ++i) {
    fault::ScopedStream stream(i);
    // Poll under the item's fault stream so the injected stop sites draw
    // index-pure streams — which items trigger a stop is then identical
    // at any thread count (docs/robustness.md).
    const deadline::StopReason stop = deadline::check();
    if (stop != deadline::StopReason::none) {
      result.stop = stop;
      result.stop_index = i;
      break;
    }
    try {
      body(i);
    } catch (const Error& e) {
      result.failures.push_back({i, e});
      if (fail_fast) break;
    } catch (const std::exception& e) {
      result.failures.push_back(
          {i, Error(std::string("parallel item threw a non-pim exception: ") + e.what(),
                    ErrorCode::internal)});
      if (fail_fast) break;
    } catch (...) {
      result.failures.push_back(
          {i, Error("parallel item threw an unknown exception", ErrorCode::internal)});
      if (fail_fast) break;
    }
  }
  in_region() = was_inside;
}

// --------------------------------------------------- scheduler metrics

// exec.* scheduler metrics (docs/observability.md). Handles resolve once;
// recording happens once per chunk or region, OUTSIDE the chunk's
// MetricShard (which run_chunk uninstalls before returning), so the
// disabled path costs one relaxed load + branch per chunk — nothing per
// item.
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

// run_chunk plus instrumentation: queue-wait latency (`queued_ns` is the
// submit timestamp; < 0 means the chunk never sat in the pool queue —
// serial regions and the caller-run chunk 0), chunk wall time, chunk size
// histogram, and a chrome-trace span carrying the worker's real thread
// id. Returns the chunk duration in ns (0 when collection is off).
int64_t run_chunk_instr(size_t begin, size_t end, bool fail_fast,
                        const deadline::State& inherited,
                        const std::function<void(size_t)>& body,
                        ChunkResult& result, int64_t queued_ns) {
  const bool timing = obs::enabled();
  const bool tracing = obs::trace_enabled();
  if (!timing && !tracing) {
    run_chunk(begin, end, fail_fast, inherited, body, result);
    return 0;
  }
  ExecMetrics& m = ExecMetrics::get();
  const int64_t start = obs::now_ns();
  if (timing) {
    if (queued_ns >= 0) m.queue_wait.record_ns(start - queued_ns);
    m.chunk_items.record_ns(static_cast<int64_t>(end - begin));
  }
  run_chunk(begin, end, fail_fast, inherited, body, result);
  const int64_t dur = obs::now_ns() - start;
  if (timing) m.chunk_run.record_ns(dur);
  obs::record_trace_event("exec.chunk.run", start, dur);
  return dur;
}

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

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

// Reduces chunk results into the region outcome: cutoff = the minimum
// stop index over chunks (completed set = [0, cutoff)), stop reason from
// that chunk, and only failures below the cutoff survive. Runs on the
// submitting thread after the join, so it merges the chunk shards into
// that thread's shard (or the globals), in chunk order, with no lock.
// Single-chunk regions pass a span of one.
RegionOutcome reduce_chunks(size_t n, std::vector<ChunkResult>& results) {
  RegionOutcome out;
  out.cutoff = n;
  for (ChunkResult& r : results) {
    r.metrics.flush(obs::shard_slot());
    if (r.stop_index < out.cutoff) {
      out.cutoff = r.stop_index;
      out.stop = r.stop;
    }
  }
  // Chunks are contiguous ascending index ranges, so concatenating their
  // failure lists in chunk order keeps item order ascending. Failures at
  // or above the cutoff belong to discarded items and are dropped with
  // them.
  for (ChunkResult& r : results)
    for (ItemFailure& f : r.failures)
      if (f.item < out.cutoff) out.failures.push_back(std::move(f));
  if (out.stop != deadline::StopReason::none)
    deadline::record_stop_metrics(out.cutoff);
  return out;
}

}  // namespace

RegionOutcome run_region(size_t n, const ParallelOptions& options,
                         bool fail_fast,
                         const std::function<void(size_t)>& body) {
  if (n == 0) return {{}, deadline::StopReason::none, 0};
  size_t want = static_cast<size_t>(options.threads >= 1 ? options.threads : threads());
  const size_t grain = options.grain == 0 ? 1 : options.grain;
  want = std::min(want, (n + grain - 1) / grain);
  if (want < 1) want = 1;
  const deadline::State inherited = deadline::current();

  // Serial (or nested) regions run the identical per-item code path on
  // this thread, so results are bit-identical to any parallel schedule.
  if (want == 1 || in_region()) {
    std::vector<ChunkResult> results(1);
    run_chunk_instr(0, n, fail_fast, inherited, body, results[0], /*queued_ns=*/-1);
    return reduce_chunks(n, results);
  }

  const bool timing = obs::enabled();
  const int64_t region_start = timing ? obs::now_ns() : 0;

  const size_t chunk = (n + want - 1) / want;  // ceil; last chunk clipped
  std::vector<ChunkResult> results(want);
  // One slot per chunk, written only by the chunk's runner; read after
  // the join to derive the region's busy/idle/imbalance gauges.
  std::vector<int64_t> chunk_dur(want, 0);

  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  } join{{}, {}, want - 1};

  ThreadPool& pool = ThreadPool::instance();
  pool.ensure_workers(want - 1);
  for (size_t c = 1; c < want; ++c) {
    const int64_t submit_ns = timing ? obs::now_ns() : -1;
    pool.submit([&, c, submit_ns] {
      const size_t begin = c * chunk;
      const size_t end = std::min(n, begin + chunk);
      if (begin < end)
        chunk_dur[c] =
            run_chunk_instr(begin, end, fail_fast, inherited, body, results[c], submit_ns);
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
  // The calling thread takes chunk 0, then joins.
  chunk_dur[0] = run_chunk_instr(0, std::min(n, chunk), fail_fast, inherited, body,
                                 results[0], /*queued_ns=*/-1);
  {
    std::unique_lock<std::mutex> lock(join.mu);
    join.cv.wait(lock, [&] { return join.remaining == 0; });
  }

  if (timing) {
    const int64_t wall = obs::now_ns() - region_start;
    int64_t busy = 0, max_dur = 0;
    for (int64_t d : chunk_dur) {
      busy += d;
      max_dur = std::max(max_dur, d);
    }
    ExecMetrics& m = ExecMetrics::get();
    // busy/idle accumulate over the run; idle is the time the region's
    // thread slots were not executing chunk bodies (queue wait, join).
    m.busy.add(static_cast<double>(busy));
    const int64_t idle = static_cast<int64_t>(want) * wall - busy;
    m.idle.add(static_cast<double>(idle > 0 ? idle : 0));
    // Imbalance = slowest chunk / mean chunk (1.0 = perfectly even); a
    // per-region reading, last region wins.
    if (busy > 0)
      m.imbalance.set(static_cast<double>(max_dur) * static_cast<double>(want) /
                      static_cast<double>(busy));
  }

  return reduce_chunks(n, results);
}

void rethrow_first(const ItemFailure& failure) {
  throw failure.error.with_context("parallel item #" + std::to_string(failure.item));
}

}  // namespace detail
}  // namespace pim::exec
