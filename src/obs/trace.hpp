// RAII timing spans and a bounded in-memory trace buffer.
//
// ScopedTimer records one wall-time sample into a registry Timer.
// TraceSpan does the same and, when tracing is enabled, also appends a
// completed event (name, start, duration, thread, nesting depth) to the
// process-global trace buffer, which serializes to Chrome
// `chrome://tracing` / Perfetto JSON (see obs/report.hpp).
//
// The buffer is bounded: once full, new events are counted as dropped
// instead of growing memory without limit inside long runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pim::obs {

/// Monotonic nanoseconds since an arbitrary process-local epoch.
int64_t now_ns();

/// Records `now - start` into a Timer at scope exit. Skips the clock
/// reads entirely when collection is disabled at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(&timer), start_ns_(enabled() ? now_ns() : 0), active_(enabled()) {}
  ~ScopedTimer() {
    if (active_) timer_->record_ns(now_ns() - start_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  int64_t start_ns_;
  bool active_;
};

/// One completed span in the trace buffer. `name` must outlive the
/// buffer; span call sites pass string literals.
struct TraceEvent {
  const char* name;
  int64_t start_ns;
  int64_t dur_ns;
  uint32_t tid;    // small per-thread id, stable within the process
  uint16_t depth;  // nesting depth on that thread at span entry
};

/// Enables/disables trace-event capture (independent of metric
/// collection; a TraceSpan still records its Timer when only metrics are
/// on). `capacity` bounds the buffer; events past it are dropped.
void set_trace_enabled(bool on, size_t capacity = 1 << 16);
bool trace_enabled();

/// Copy of the captured events, in completion order.
std::vector<TraceEvent> trace_events();

/// Number of events discarded because the buffer was full.
size_t trace_dropped();

/// The buffer's capacity, in events.
size_t trace_capacity();

/// Empties the buffer and zeroes the dropped tally.
void clear_trace();

/// Appends an already-timed complete event attributed to the calling
/// thread — for call sites (the exec engine's runners) that measure
/// the interval themselves because the duration also feeds metrics.
/// No-op unless tracing is enabled. `name` must be a string literal.
void record_trace_event(const char* name, int64_t start_ns, int64_t dur_ns);

/// ScopedTimer that also emits a TraceEvent when tracing is enabled.
class TraceSpan {
 public:
  TraceSpan(Timer& timer, const char* name);
  /// Resolves the timer by name on every construction; fine for
  /// once-per-command spans, wrong for per-iteration hot paths (use the
  /// PIM_OBS_SPAN macro there).
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Timer* timer_;
  const char* name_;
  int64_t start_ns_;
  bool timing_;
  bool tracing_;
};

}  // namespace pim::obs

/// Hot-path span: resolves the timer once per call site, then times the
/// enclosing scope (and traces it when tracing is enabled).
#define PIM_OBS_CONCAT_INNER(a, b) a##b
#define PIM_OBS_CONCAT(a, b) PIM_OBS_CONCAT_INNER(a, b)
#define PIM_OBS_SPAN(name)                                                    \
  static ::pim::obs::Timer& PIM_OBS_CONCAT(pim_obs_timer_, __LINE__) =        \
      ::pim::obs::registry().timer(name);                                     \
  ::pim::obs::TraceSpan PIM_OBS_CONCAT(pim_obs_span_, __LINE__)(              \
      PIM_OBS_CONCAT(pim_obs_timer_, __LINE__), name)
