// Reporters: serialize the metrics registry to JSON and the trace
// buffer to Chrome `chrome://tracing` JSON.
//
// Also exposes a minimal JSON reader (objects, arrays, strings, numbers,
// booleans, null) for the wire codec, tests and validation scripts,
// without an external dependency.
#pragma once

#include <string>
#include <string_view>
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

/// In-place forms for writers that build one output string: append the
/// bytes json_number(v) returns, or the escaped body of json_quote(s)
/// without its quotes.
void append_json_number(std::string& out, double v);
void append_json_escaped(std::string& out, std::string_view s);

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
  const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document, throwing pim::Error on malformed input.
/// Objects and arrays nest at most 64 deep; a deeper document is
/// rejected as bad_input naming the limit.
JsonValue parse_json(const std::string& text);

}  // namespace pim::obs
