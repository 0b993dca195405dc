// Shared parallel execution core: a work-queue thread pool under
// deterministic-by-construction data-parallel primitives.
//
// Every hot loop in the repo (characterization deck sweeps, Monte-Carlo
// yield sampling, NoC merge-candidate evaluation, bench repetition) is a
// sweep over independent items, so they all run through this one engine
// instead of growing ad-hoc threads per subsystem. Determinism contract
// (docs/parallelism.md):
//
//  - Static chunking: items [0, n) are split into T contiguous chunks by
//    index. Which thread runs a chunk is scheduler-dependent; which items
//    form a chunk is not, and no item's computation depends on another's.
//  - Ordered reduction: results land in a slot vector by item index and
//    callers reduce in index order after the join, so sums, argmins, and
//    "first failure" are identical at any thread count.
//  - Per-item seeded RNG streams: the seeded variants hand item i an
//    Rng(derive_stream_seed(seed, i)) — SplitMix64 substreams that are a
//    pure function of (seed, i), never of execution order.
//  - Fault injection stays deterministic: each item runs under a
//    fault::ScopedStream(i), so armed sites fire on the same items at any
//    thread count (see util/faultinject.hpp).
//  - Metrics stay exact: each chunk buffers counter increments AND timer
//    samples (histogram buckets included) in its own obs::MetricShard,
//    which the submitting thread merges after the join, in chunk order,
//    into its own active shard (or the globals when it has none) — no
//    lock, no shared cache line on the hot path, reported
//    totals/quantiles are bit-identical at any thread count, and a
//    caller that counts one request under a shard sees all of it. The engine itself exports exec.* scheduler
//    metrics (queue-wait/chunk histograms, busy/idle/imbalance gauges)
//    when collection is on — see docs/observability.md.
//
// Error semantics: parallel_for / parallel_map are fail-fast — the error
// of the LOWEST failing item index is rethrown after the join (chunks
// stop at their first failure; later items of other chunks may still have
// run, which is fine because items are side-effect-free by contract).
// parallel_try_map implements the PR-2 skip-and-record degradation
// semantics: every failure is captured per item and returned alongside
// the surviving values, ascending by item index.
//
// Deadlines & cancellation (docs/robustness.md): every chunk runs under
// the submitting thread's deadline state (its budget and grace depth,
// deadline::InheritScope), and every item boundary polls
// pim::deadline::check() under the item's fault stream. A stop is
// reported with *prefix-cutoff* semantics: each chunk records the first
// item index at which the stop triggered, the region's cutoff is the
// minimum over chunks, the completed set is exactly [0, cutoff), and any
// results computed at indices >= cutoff are discarded. Since per-item
// work is index-pure, every item below the cutoff carries a bit-identical
// result at any thread count; with the fault-injected stop sites the
// cutoff itself is also thread-count-invariant. parallel_for/map raise a
// typed deadline_exceeded/cancelled Error carrying the completed count
// (a failure below the cutoff takes precedence — it would have been
// raised without the stop too); parallel_try_map returns the truncated
// BatchResult with stop/completed set so callers can degrade gracefully.
//
// Thread count: threads() resolves set_threads() > PIM_THREADS >
// std::thread::hardware_concurrency, and the CLI's global --threads flag
// feeds set_threads(). Nested parallel regions run inline on the calling
// worker (no pool re-entry), so composed code cannot deadlock the queue.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "deadline/deadline.hpp"
#include "util/error.hpp"
#include "util/expected.hpp"
#include "util/rng.hpp"

namespace pim::exec {

/// std::thread::hardware_concurrency, with a floor of 1.
int hardware_threads();

/// Pins the process-wide default thread count; 0 restores the automatic
/// resolution (PIM_THREADS env, else hardware_threads()).
void set_threads(int n);

/// The resolved default thread count for parallel regions.
int threads();

/// Per-call knobs for the parallel primitives.
struct ParallelOptions {
  /// Worker count for this region; 0 uses the global threads() default.
  int threads = 0;
  /// Minimum items per chunk: regions with fewer than 2*grain items run
  /// on proportionally fewer threads (a 3-item sweep never spins up 8
  /// workers). Chunking stays static either way.
  size_t grain = 1;
};

namespace detail {

/// One captured failure: the item index and the pim::Error it threw.
struct ItemFailure {
  size_t item;
  Error error;
};

/// Everything a region produced: captured failures (all below the
/// cutoff), plus the cooperative-stop outcome. When stop == none the
/// cutoff equals n (every item ran).
struct RegionOutcome {
  std::vector<ItemFailure> failures;  ///< ascending by item index, < cutoff
  deadline::StopReason stop = deadline::StopReason::none;
  size_t cutoff = 0;  ///< completed items are exactly [0, cutoff)
};

/// Core runner: executes body(i) for i in [0, n) over static contiguous
/// chunks on the shared pool, with per-item fault streams, per-item
/// deadline/cancel polls under the caller's deadline state, and
/// per-chunk metric shards merged into the caller's. fail_fast stops
/// each chunk at its first failure.
RegionOutcome run_region(size_t n, const ParallelOptions& options,
                         bool fail_fast,
                         const std::function<void(size_t)>& body);

[[noreturn]] void rethrow_first(const ItemFailure& failure);

}  // namespace detail

/// Runs body(i) for every i in [0, n). Rethrows the lowest failing item's
/// error (with the item index appended to its context) after the join.
inline void parallel_for(size_t n, const std::function<void(size_t)>& body,
                         const ParallelOptions& options = {}) {
  auto outcome = detail::run_region(n, options, /*fail_fast=*/true, body);
  if (!outcome.failures.empty()) detail::rethrow_first(outcome.failures.front());
  if (outcome.stop != deadline::StopReason::none)
    throw deadline::stop_error(outcome.stop, outcome.cutoff, n);
}

/// parallel_for with a per-item RNG stream derived from (seed, i).
inline void parallel_for_seeded(size_t n, uint64_t seed,
                                const std::function<void(size_t, Rng&)>& body,
                                const ParallelOptions& options = {}) {
  parallel_for(
      n,
      [&](size_t i) {
        Rng rng(derive_stream_seed(seed, i));
        body(i, rng);
      },
      options);
}

/// Maps fn over [0, n) into a vector ordered by item index (R must be
/// default-constructible). Fail-fast error semantics as parallel_for.
template <typename R>
std::vector<R> parallel_map(size_t n, const std::function<R(size_t)>& fn,
                            const ParallelOptions& options = {}) {
  std::vector<R> out(n);
  parallel_for(n, [&](size_t i) { out[i] = fn(i); }, options);
  return out;
}

/// Outcome of a skip-and-record batch: values for surviving items (by
/// index), plus the failed indices and their errors, ascending. When a
/// deadline/cancel stop truncated the batch, `stop` says why and
/// `completed` is the prefix cutoff: values at indices >= completed are
/// nullopt (discarded even if computed) and every failure index is below
/// it.
template <typename R>
struct BatchResult {
  std::vector<std::optional<R>> values;  ///< size n; nullopt where failed/cut
  std::vector<size_t> failed;            ///< ascending item indices
  std::vector<Error> errors;             ///< errors[k] belongs to failed[k]
  deadline::StopReason stop = deadline::StopReason::none;
  size_t completed = 0;  ///< prefix cutoff; == values.size() when stop == none

  bool all_ok() const { return failed.empty() && stop == deadline::StopReason::none; }
  size_t surviving() const { return completed - failed.size(); }
  /// Lowest failing item's error. Only valid when !failed.empty().
  const Error& first_error() const { return errors.front(); }
  bool truncated() const { return stop != deadline::StopReason::none; }

  /// All values when every item survived, else the first error (a real
  /// failure outranks the stop) — for call sites that want
  /// Expected-style propagation instead of degradation.
  Expected<std::vector<R>> into_expected() && {
    if (!failed.empty()) return Expected<std::vector<R>>(errors.front());
    if (truncated())
      return Expected<std::vector<R>>(
          deadline::stop_error(stop, completed, values.size()));
    std::vector<R> out;
    out.reserve(values.size());
    for (auto& v : values) out.push_back(std::move(*v));
    return Expected<std::vector<R>>(std::move(out));
  }
};

/// Maps fn over [0, n), recording per-item failures instead of aborting
/// the batch (PR-2 degradation semantics; the caller enforces any quorum).
template <typename R>
BatchResult<R> parallel_try_map(size_t n, const std::function<R(size_t)>& fn,
                                const ParallelOptions& options = {}) {
  BatchResult<R> out;
  out.values.resize(n);
  auto outcome = detail::run_region(
      n, options, /*fail_fast=*/false, [&](size_t i) { out.values[i] = fn(i); });
  out.stop = outcome.stop;
  out.completed = outcome.cutoff;
  // Prefix-cutoff discard: a chunk past the cutoff may have computed some
  // values before its own stop triggered; dropping them keeps the
  // completed set exactly [0, cutoff) at any thread count.
  for (size_t i = out.completed; i < n; ++i) out.values[i].reset();
  out.failed.reserve(outcome.failures.size());
  out.errors.reserve(outcome.failures.size());
  for (auto& f : outcome.failures) {
    out.failed.push_back(f.item);
    out.errors.push_back(std::move(f.error));
  }
  return out;
}

/// parallel_try_map with a per-item RNG stream derived from (seed, i).
template <typename R>
BatchResult<R> parallel_try_map_seeded(size_t n, uint64_t seed,
                                       const std::function<R(size_t, Rng&)>& fn,
                                       const ParallelOptions& options = {}) {
  return parallel_try_map<R>(
      n,
      [&](size_t i) {
        Rng rng(derive_stream_seed(seed, i));
        return fn(i, rng);
      },
      options);
}

}  // namespace pim::exec
