#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace pim::obs {
namespace {

struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  size_t capacity = 1 << 16;
  size_t dropped = 0;
  std::atomic<bool> on{false};
};

TraceBuffer& buffer() {
  static TraceBuffer b;
  return b;
}

// Real OS thread id, so exec worker spans line up with what `top -H`,
// perf, and core dumps report. Falls back to a process-local sequential
// id where no kernel tid is available.
uint32_t this_thread_id() {
#ifdef __linux__
  thread_local const uint32_t id =
      static_cast<uint32_t>(::syscall(SYS_gettid));
  return id;
#else
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
#endif
}

thread_local uint16_t t_depth = 0;

}  // namespace

int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void set_trace_enabled(bool on, size_t capacity) {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.capacity = capacity == 0 ? 1 : capacity;
  b.events.reserve(std::min(b.capacity, size_t{1} << 12));
  b.on.store(on, std::memory_order_relaxed);
}

bool trace_enabled() { return buffer().on.load(std::memory_order_relaxed); }

std::vector<TraceEvent> trace_events() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  return b.events;
}

size_t trace_dropped() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  return b.dropped;
}

size_t trace_capacity() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  return b.capacity;
}

void clear_trace() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.events.clear();
  b.dropped = 0;
}

void record_trace_event(const char* name, int64_t start_ns, int64_t dur_ns) {
  if (!trace_enabled()) return;
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.events.size() >= b.capacity) {
    ++b.dropped;
    return;
  }
  b.events.push_back({name, start_ns, dur_ns, this_thread_id(), t_depth});
}

TraceSpan::TraceSpan(Timer& timer, const char* name)
    : timer_(&timer),
      name_(name),
      timing_(enabled()),
      tracing_(trace_enabled()) {
  start_ns_ = (timing_ || tracing_) ? now_ns() : 0;
  if (tracing_) ++t_depth;
}

TraceSpan::TraceSpan(const char* name) : TraceSpan(registry().timer(name), name) {}

TraceSpan::~TraceSpan() {
  if (!timing_ && !tracing_) return;
  const int64_t end = now_ns();
  if (timing_) timer_->record_ns(end - start_ns_);
  if (!tracing_) return;
  --t_depth;
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.events.size() >= b.capacity) {
    ++b.dropped;
    return;
  }
  b.events.push_back({name_, start_ns_, end - start_ns_, this_thread_id(), t_depth});
}

}  // namespace pim::obs
