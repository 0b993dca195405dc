// Reporters: serialize the metrics registry to JSON and the trace
// buffer to Chrome `chrome://tracing` JSON.
//
// Also exposes a minimal JSON reader (objects, arrays, strings, numbers,
// booleans, null) for the wire codec, tests and validation scripts,
// without an external dependency.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pim::obs {

/// `"..."` — JSON string literal with escaping. Shared by the report
/// writers, the run ledger, and the bench harness so every artifact
/// escapes identically.
std::string json_quote(const std::string& s);

/// Shortest double rendering that reparses exactly (never inf/nan).
std::string json_number(double v);

/// Machine-readable registry dump. Shape:
///   { "schema": "pim.metrics.v1",
///     "counters": {"name": 123, ...},
///     "gauges":   {"name": 1.5, ...},
///     "timers":   {"name": {"count": n, "total_ns": ..., "mean_ns": ...,
///                           "min_ns": ..., "max_ns": ...,
///                           "p50_ns": ..., "p99_ns": ...}, ...} }
std::string metrics_to_json(const MetricsSnapshot& snapshot);

/// Chrome trace-event JSON ("traceEvents" array of complete "X" events,
/// microsecond timestamps) loadable in chrome://tracing and Perfetto.
std::string trace_to_chrome_json(const std::vector<TraceEvent>& events);

/// Snapshot the global registry / trace buffer and write to `path`,
/// throwing pim::Error on I/O failure.
void save_metrics_json(const std::string& path);
void save_trace(const std::string& path);

/// Minimal parsed-JSON tree for report validation.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<std::pair<std::string, JsonValue>> members;  // objects
  std::vector<JsonValue> items;                            // arrays

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Parses one JSON document, throwing pim::Error on malformed input.
/// Objects and arrays nest at most 64 deep; a deeper document is
/// rejected as bad_input naming the limit.
JsonValue parse_json(const std::string& text);

}  // namespace pim::obs
