// In-memory spans for the traced benchmark run.
//
// The benchmark records one span around each call it makes into a layer
// of pim (charlib, sta, variation, cache, api, serve, ...), from its own
// files; nothing inside the library is instrumented by it. Spans carry a
// name, start, end, parent span and request id; they stay in memory while
// the workload runs and are written as a chrome://tracing file at the
// end. A span's self time is its duration minus the part of it that its
// child spans cover.
//
// A disabled Tracer records nothing and its Scope costs one branch, so
// the untimed bookkeeping stays out of the untraced run.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/// Nanoseconds on the steady clock.
int64_t now_ns();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        ///< index of the parent span, -1 for a root
  int64_t request = -1;   ///< request / design / calibration id, -1 if none
  int lane = 0;           ///< chrome://tracing thread row
};

/// Per-name aggregate of span self times.
struct SelfTime {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording (the traced run's untraced baseline).
  /// Call only while no span is open.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling (main) thread; its parent is the
  /// innermost span still open. Returns the span id, -1 when disabled.
  int open(const std::string& name, int64_t request = -1);
  void close(int id);

  /// Adds an already-timed span (e.g. a request timed from its scheduled
  /// send by a generator thread). Thread-safe.
  int add(const std::string& name, int64_t start_ns, int64_t end_ns, int parent,
          int64_t request, int lane);

  /// RAII span on the main thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, int64_t request = -1)
        : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name, request) : -1) {}
    ~Scope() {
      if (id_ >= 0) tracer_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  size_t size() const;

  /// Self time per span name.
  std::map<std::string, SelfTime> self_times() const;

  /// Writes the spans as Chrome trace-event JSON. Returns false on an I/O
  /// failure.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans of the main thread
};

}  // namespace e2e
