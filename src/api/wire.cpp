#include "api/wire.hpp"

#include <charconv>
#include <cmath>
#include <concepts>
#include <iterator>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace pim::api::wire {
namespace {

using obs::JsonValue;
using obs::json_quote;

// ---------------------------------------------------------------------------
// Field bindings: one function per struct, shared verbatim by the
// writer and the reader, so the two directions cannot disagree on a
// field name or ordering. Adding a struct member means adding exactly
// one line here (and nothing else) — absent members keep defaults on
// decode, which is the additive-evolution rule from docs/api.md.
// ---------------------------------------------------------------------------

template <typename T> void append_struct(std::string& out, T& value);
template <typename T> T decode_struct(const JsonValue& object, const std::string& who);

// Integral wire fields, excluding bool (which has its own JSON kind).
template <typename T>
concept WireInt = std::integral<T> && !std::same_as<T, bool>;

// True when `d` is an integer T holds exactly; casting any other double to
// T is undefined. T's range is [-2^digits, 2^digits) (from 0 when
// unsigned), and both bounds are exact doubles.
template <WireInt T>
bool representable(double d) {
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  return std::nearbyint(d) == d && d >= (std::is_signed_v<T> ? -limit : 0.0) && d < limit;
}

// Converts a JSON number to T, rejecting a fractional or out-of-range
// value as bad_input with a message naming the field.
template <WireInt T>
T checked_integer(double d, const std::string& who, const char* name) {
  if (!representable<T>(d))
    fail(ErrorCode::bad_input,
         {who, ": field '", name, "' ",
          std::nearbyint(d) == d ? "is out of range" : "must be an integer"});
  return static_cast<T>(d);
}

// Appends an integer's decimal digits, as std::to_string renders them.
template <WireInt T>
void append_integer(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// ---------------------------------------------------------------------------
// Writer: canonical object text — no whitespace, declaration order.
// ---------------------------------------------------------------------------

// Appends one object to the string it was given: the constructor opens
// it, finish() closes it. Nested structs are written into the same
// string, so a response is built in one buffer.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) { out_ += '{'; }

  void field(const char* name, const std::string& v) {
    key(name);
    out_ += '"';
    obs::append_json_escaped(out_, v);
    out_ += '"';
  }
  void field(const char* name, bool v) { key(name); out_ += v ? "true" : "false"; }
  void field(const char* name, double v) {
    key(name);
    obs::append_json_number(out_, v);
  }
  template <WireInt T>
  void field(const char* name, T v) {
    key(name);
    append_integer(out_, v);
  }
  void field(const char* name, LinkSpec& v) { object(name, v); }
  template <typename T>
  void field(const char* name, std::vector<T>& v) {
    key(name);
    out_ += '[';
    bool first = true;
    for (T& item : v) {
      if (!first) out_ += ',';
      first = false;
      if constexpr (WireInt<T>)
        append_integer(out_, item);
      else
        append_struct(out_, item);
    }
    out_ += ']';
  }
  /// A nested struct, written through its bind().
  template <typename T>
  void object(const char* name, T& v) {
    key(name);
    append_struct(out_, v);
  }
  /// Pre-serialized JSON (nested envelopes, error objects).
  void raw(const char* name, const std::string& json) { key(name); out_ += json; }

  void finish() { out_ += '}'; }

 private:
  // Field names are plain identifiers: they need no escaping.
  void key(const char* name) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += name;
    out_ += "\":";
  }

  std::string& out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Reader: strict object decode. Absent members keep defaults; unknown
// and duplicate members are rejected in finish(), so a typo'd request
// field fails loudly instead of silently running the default.
// ---------------------------------------------------------------------------

class JsonReader {
 public:
  JsonReader(const JsonValue& object, std::string who)
      : object_(object), who_(std::move(who)), used_(object.members.size(), false) {
    require(object_.kind == JsonValue::Kind::Object, ErrorCode::bad_input, who_,
            ": expected a JSON object");
  }

  /// Marks an envelope routing key (op, id) as consumed without
  /// binding it to a struct field.
  void consume(const char* name) { (void)lookup(name); }

  void field(const char* name, std::string& v) {
    if (const JsonValue* m = lookup(name)) {
      expect(*m, JsonValue::Kind::String, name, "a string");
      v = m->text;
    }
  }
  void field(const char* name, bool& v) {
    if (const JsonValue* m = lookup(name)) {
      expect(*m, JsonValue::Kind::Bool, name, "a boolean");
      v = m->boolean;
    }
  }
  void field(const char* name, double& v) {
    if (const JsonValue* m = lookup(name)) {
      expect(*m, JsonValue::Kind::Number, name, "a number");
      v = m->number;
    }
  }
  template <WireInt T>
  void field(const char* name, T& v) {
    if (const JsonValue* m = lookup(name)) v = integer<T>(*m, name);
  }
  void field(const char* name, LinkSpec& v) {
    if (const JsonValue* m = lookup(name))
      v = decode_struct<LinkSpec>(*m, who_ + "." + name);
  }
  template <typename T>
  void field(const char* name, std::vector<T>& v) {
    const JsonValue* m = lookup(name);
    if (m == nullptr) return;
    expect(*m, JsonValue::Kind::Array, name, "an array");
    v.clear();
    for (const JsonValue& item : m->items) {
      if constexpr (WireInt<T>)
        v.push_back(integer<T>(item, name));
      else
        v.push_back(decode_struct<T>(item, who_ + "." + name));
    }
  }

  /// Rejects every member no field()/consume() claimed.
  void finish() const {
    for (size_t i = 0; i < object_.members.size(); ++i)
      require(used_[i], ErrorCode::bad_input, who_, ": unknown field '",
              object_.members[i].first, "'");
  }

 private:
  const JsonValue* lookup(const char* name) {
    for (size_t i = 0; i < object_.members.size(); ++i) {
      if (!used_[i] && object_.members[i].first == name) {
        used_[i] = true;
        return &object_.members[i].second;
      }
    }
    return nullptr;
  }

  void expect(const JsonValue& value, JsonValue::Kind kind, const char* name,
              const char* what) const {
    require(value.kind == kind, ErrorCode::bad_input, who_, ": field '", name,
            "' must be ", what);
  }

  template <WireInt T>
  T integer(const JsonValue& value, const char* name) const {
    expect(value, JsonValue::Kind::Number, name, "an integer");
    return checked_integer<T>(value.number, who_, name);
  }

  const JsonValue& object_;
  std::string who_;
  std::vector<bool> used_;
};

// ---------------------------------------------------------------------------
// Per-struct bindings
// ---------------------------------------------------------------------------

template <typename B> void bind(B& b, LinkSpec& v) {
  b.field("tech", v.tech);
  b.field("length_mm", v.length_mm);
  b.field("style", v.style);
  b.field("input_slew_ps", v.input_slew_ps);
  b.field("drive", v.drive);
  b.field("repeaters", v.repeaters);
  b.field("coeffs_path", v.coeffs_path);
  b.field("corner", v.corner);
}

template <typename B> void bind(B& b, TechfileRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("tech", v.tech);
}

template <typename B> void bind(B& b, CharlibRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("tech", v.tech);
  b.field("drives", v.drives);
  b.field("want_fit", v.want_fit);
  b.field("corner", v.corner);
}

template <typename B> void bind(B& b, FitRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("tech", v.tech);
  b.field("coeffs_path", v.coeffs_path);
  b.field("corner", v.corner);
}

template <typename B> void bind(B& b, LinkEvalRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
  b.field("golden", v.golden);
}

template <typename B> void bind(B& b, BufferRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
  b.field("weight", v.weight);
  b.field("budget_ps", v.budget_ps);
}

template <typename B> void bind(B& b, YieldRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
  b.field("samples", v.samples);
  b.field("seed", v.seed);
}

template <typename B> void bind(B& b, NoiseRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
}

template <typename B> void bind(B& b, TimerRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
}

template <typename B> void bind(B& b, CornersRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
  b.field("corners", v.corners);
  b.field("target_period_ps", v.target_period_ps);
}

template <typename B> void bind(B& b, ExportRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("link", v.link);
  b.field("want_deck", v.want_deck);
  b.field("want_spef", v.want_spef);
}

template <typename B> void bind(B& b, SynthesisRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("spec", v.spec);
  b.field("tech", v.tech);
  b.field("model", v.model);
  b.field("mesh", v.mesh);
  b.field("rows", v.rows);
  b.field("cols", v.cols);
  b.field("want_dot", v.want_dot);
  b.field("coeffs_path", v.coeffs_path);
  b.field("corners", v.corners);
}

template <typename B> void bind(B& b, InvalidateRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("tech", v.tech);
  b.field("apply", v.apply);
}

template <typename B> void bind(B& b, CacheAdminRequest& v) {
  b.field("api_version", v.api_version);
  b.field("deadline_ms", v.deadline_ms);
  b.field("action", v.action);
  b.field("budget_bytes", v.budget_bytes);
}

template <typename B> void bind(B& b, TechfileResult& v) {
  b.field("text", v.text);
}

template <typename B> void bind(B& b, CharlibResult& v) {
  b.field("liberty_text", v.liberty_text);
  b.field("fit_text", v.fit_text);
  b.field("partial", v.partial);
}

template <typename B> void bind(B& b, FitResult& v) {
  b.field("fit_text", v.fit_text);
}

template <typename B> void bind(B& b, LinkEvalResult& v) {
  b.field("tech_name", v.tech_name);
  b.field("style_name", v.style_name);
  b.field("repeaters", v.repeaters);
  b.field("miller_factor", v.miller_factor);
  b.field("delay_ps", v.delay_ps);
  b.field("output_slew_ps", v.output_slew_ps);
  b.field("power_mw", v.power_mw);
  b.field("area_um2", v.area_um2);
  b.field("has_golden", v.has_golden);
  b.field("golden_delay_ps", v.golden_delay_ps);
  b.field("golden_slew_ps", v.golden_slew_ps);
  b.field("golden_nodes", v.golden_nodes);
  b.field("model_error_pct", v.model_error_pct);
}

template <typename B> void bind(B& b, BufferResult& v) {
  b.field("feasible", v.feasible);
  b.field("kind", v.kind);
  b.field("drive", v.drive);
  b.field("repeaters", v.repeaters);
  b.field("miller_factor", v.miller_factor);
  b.field("evaluations", v.evaluations);
  b.field("delay_ps", v.delay_ps);
  b.field("power_mw", v.power_mw);
  b.field("area_um2", v.area_um2);
}

template <typename B> void bind(B& b, YieldResult& v) {
  b.field("samples", v.samples);
  b.field("failed_samples", v.failed_samples);
  b.field("requested_samples", v.requested_samples);
  b.field("nominal_delay_ps", v.nominal_delay_ps);
  b.field("mean_delay_ps", v.mean_delay_ps);
  b.field("sigma_delay_ps", v.sigma_delay_ps);
  b.field("p90_delay_ps", v.p90_delay_ps);
  b.field("p99_delay_ps", v.p99_delay_ps);
  b.field("yield_at_nominal", v.yield_at_nominal);
  b.field("yield_ci95", v.yield_ci95);
  b.field("partial", v.partial);
}

template <typename B> void bind(B& b, NoiseResult& v) {
  b.field("tech_name", v.tech_name);
  b.field("style_name", v.style_name);
  b.field("golden_peak_mv", v.golden_peak_mv);
  b.field("golden_peak_pct_vdd", v.golden_peak_pct_vdd);
  b.field("model_peak_mv", v.model_peak_mv);
  b.field("model_error_pct", v.model_error_pct);
}

template <typename B> void bind(B& b, TimerResult& v) {
  b.field("tech_name", v.tech_name);
  b.field("repeaters", v.repeaters);
  b.field("awe_delay_ps", v.awe_delay_ps);
  b.field("awe_slew_ps", v.awe_slew_ps);
  b.field("elmore_delay_ps", v.elmore_delay_ps);
  b.field("partial", v.partial);
}

template <typename B> void bind(B& b, CornerTimingRow& v) {
  b.field("corner", v.corner);
  b.field("delay_ps", v.delay_ps);
  b.field("output_slew_ps", v.output_slew_ps);
  b.field("slack_ps", v.slack_ps);
  b.field("noise_peak_mv", v.noise_peak_mv);
}

template <typename B> void bind(B& b, CornersResult& v) {
  b.field("tech_name", v.tech_name);
  b.field("style_name", v.style_name);
  b.field("repeaters", v.repeaters);
  b.field("target_period_ps", v.target_period_ps);
  b.field("corners", v.corners);
  b.field("worst_corner", v.worst_corner);
  b.field("worst_slack_ps", v.worst_slack_ps);
}

template <typename B> void bind(B& b, ExportResult& v) {
  b.field("deck_text", v.deck_text);
  b.field("deck_nodes", v.deck_nodes);
  b.field("spef_text", v.spef_text);
}

template <typename B> void bind(B& b, SynthesisResult& v) {
  b.field("spec_name", v.spec_name);
  b.field("tech_name", v.tech_name);
  b.field("model_name", v.model_name);
  b.field("dynamic_power_mw", v.dynamic_power_mw);
  b.field("leakage_power_mw", v.leakage_power_mw);
  b.field("worst_link_delay_ps", v.worst_link_delay_ps);
  b.field("delay_budget_ps", v.delay_budget_ps);
  b.field("area_mm2", v.area_mm2);
  b.field("num_links", v.num_links);
  b.field("num_routers", v.num_routers);
  b.field("avg_hops", v.avg_hops);
  b.field("max_hops", v.max_hops);
  b.field("merges_applied", v.merges_applied);
  b.field("partial", v.partial);
  b.field("dot_text", v.dot_text);
}

template <typename B> void bind(B& b, InvalidateKindRow& v) {
  b.field("kind", v.kind);
  b.field("dirty", v.dirty);
  b.field("reuse", v.reuse);
}

template <typename B> void bind(B& b, InvalidateResult& v) {
  b.field("manifests", v.manifests);
  b.field("dirty_keys", v.dirty_keys);
  b.field("reuse_keys", v.reuse_keys);
  b.field("evicted", v.evicted);
  b.field("applied", v.applied);
  b.field("kinds", v.kinds);
}

template <typename B> void bind(B& b, CacheKindRow& v) {
  b.field("kind", v.kind);
  b.field("entries", v.entries);
  b.field("payload_bytes", v.payload_bytes);
  b.field("manifest_bytes", v.manifest_bytes);
}

template <typename B> void bind(B& b, CacheAdminResult& v) {
  b.field("action", v.action);
  b.field("dir", v.dir);
  b.field("kinds", v.kinds);
  b.field("total_bytes", v.total_bytes);
  b.field("scanned_entries", v.scanned_entries);
  b.field("removed_entries", v.removed_entries);
  b.field("removed_bytes", v.removed_bytes);
  b.field("kept_bytes", v.kept_bytes);
  b.field("entries", v.entries);
  b.field("manifests", v.manifests);
  b.field("orphan_manifests", v.orphan_manifests);
  b.field("unmanifested_entries", v.unmanifested_entries);
  b.field("corrupt_manifests", v.corrupt_manifests);
  b.field("scrubbed", v.scrubbed);
}

template <typename T>
void append_struct(std::string& out, T& value) {
  JsonWriter w(out);
  bind(w, value);
  w.finish();
}

template <typename T>
std::string struct_text(T& value) {
  std::string out;
  append_struct(out, value);
  return out;
}

template <typename T>
T decode_struct(const JsonValue& object, const std::string& who) {
  JsonReader r(object, who);
  T value{};
  bind(r, value);
  r.finish();
  return value;
}

// ---------------------------------------------------------------------------
// Ops (generated from PIM_API_OPS in pim_api.hpp)
// ---------------------------------------------------------------------------

// Wire op names, index-aligned with AnyRequest and AnyResult.
constexpr const char* kOpNames[] = {
#define PIM_WIRE_OP_NAME(Req, Res, wire_name, entry) wire_name,
    PIM_API_OPS(PIM_WIRE_OP_NAME)
#undef PIM_WIRE_OP_NAME
};
static_assert(std::size(kOpNames) == std::variant_size_v<AnyRequest>);

// Decodes one request envelope into its struct. `top_level` envelopes
// own the routing keys (op, id); batch item envelopes carry an op but
// no id (the batch response is index-aligned instead).
template <typename T>
T decode_request(const JsonValue& envelope, const std::string& who, bool top_level) {
  JsonReader r(envelope, who);
  r.consume("op");
  if (top_level) r.consume("id");
  T value{};
  bind(r, value);
  r.finish();
  check_version(value.api_version, who);
  return value;
}

AnyRequest decode_any(const std::string& op, const JsonValue& envelope,
                      const std::string& who, bool top_level) {
#define PIM_WIRE_DECODE(Req, Res, wire_name, entry) \
  if (op == wire_name) return decode_request<Req>(envelope, who, top_level);
  PIM_API_OPS(PIM_WIRE_DECODE)
#undef PIM_WIRE_DECODE
  std::string expected;
  for (const char* name : kOpNames) expected += std::string(name) + ", ";
  fail(who + ": unknown op '" + op + "' (expected " + expected + "or " + kBatchOp + ")",
       ErrorCode::bad_input);
}

BatchRequest decode_batch(const JsonValue& envelope, const std::string& who) {
  JsonReader r(envelope, who);
  r.consume("op");
  r.consume("id");
  BatchRequest batch;
  r.field("api_version", batch.api_version);
  r.field("deadline_ms", batch.deadline_ms);
  const JsonValue* items = envelope.find("items");
  r.consume("items");
  r.finish();
  check_version(batch.api_version, who);
  require(items != nullptr && items->kind == JsonValue::Kind::Array, ErrorCode::bad_input,
          who, ": field 'items' must be an array of request envelopes");
  for (size_t i = 0; i < items->items.size(); ++i) {
    const JsonValue& item = items->items[i];
    const std::string item_who = who + ".items[" + std::to_string(i) + "]";
    require(item.kind == JsonValue::Kind::Object, ErrorCode::bad_input, item_who,
            ": expected a JSON object");
    const JsonValue* op = item.find("op");
    require(op != nullptr && op->kind == JsonValue::Kind::String, ErrorCode::bad_input,
            item_who, ": field 'op' is required");
    require(op->text != kBatchOp, ErrorCode::bad_input, item_who,
            ": batches cannot nest batches");
    batch.items.push_back(decode_any(op->text, item, item_who, /*top_level=*/false));
  }
  return batch;
}

JsonValue parse_wire_json(const std::string& line) {
  try {
    return obs::parse_json(line);
  } catch (const Error& e) {
    // Whatever code the parser used, at the wire a malformed line is a
    // caller usage error, not a file-format problem.
    throw Error("wire: malformed JSON request line: " + e.message(),
                ErrorCode::bad_input);
  }
}

// Writes the result alternative as the envelope's "result" member.
void result_member(JsonWriter& w, const AnyResult& result) {
  std::visit(
      [&](const auto& value) {
        w.object("result", const_cast<std::decay_t<decltype(value)>&>(value));
      },
      result);
}

// Appends one batch item entry: {"op":...,"ok":...,"result"/"error":{...}}.
void append_batch_item(std::string& out, const std::string& op,
                       const Expected<AnyResult>& item) {
  JsonWriter w(out);
  w.field("op", op);
  w.field("ok", item.ok());
  if (item.ok())
    result_member(w, item.value());
  else
    w.raw("error", error_to_json(item.error()));
  w.finish();
}

// Appends the request's own fields to an envelope that already holds its
// routing keys, and closes it.
void request_fields(JsonWriter& w, const AnyRequest& request) {
  std::visit([&](const auto& v) { bind(w, const_cast<std::decay_t<decltype(v)>&>(v)); },
             request);
  w.finish();
}

RequestLine request_from_envelope(const JsonValue& envelope) {
  require(envelope.kind == JsonValue::Kind::Object,
          "wire: request line must be a JSON object", ErrorCode::bad_input);
  RequestLine out;
  if (const JsonValue* id = envelope.find("id")) {
    require(id->kind == JsonValue::Kind::Number, "wire: field 'id' must be an integer",
            ErrorCode::bad_input);
    out.has_id = true;
    out.id = checked_integer<int64_t>(id->number, "wire", "id");
  }
  const JsonValue* op = envelope.find("op");
  require(op != nullptr && op->kind == JsonValue::Kind::String,
          "wire: field 'op' is required", ErrorCode::bad_input);
  out.op = op->text;
  const std::string who = "wire." + out.op;
  if (out.op == kBatchOp) {
    out.is_batch = true;
    out.batch = decode_batch(envelope, who);
  } else {
    out.request = decode_any(out.op, envelope, who, /*top_level=*/true);
  }
  return out;
}

// The one best-effort identity reader: an id that is not an integer in
// int64 range, or an op that is not a string, stays absent.
Identity identity_of(const JsonValue& envelope) {
  Identity out;
  if (envelope.kind != JsonValue::Kind::Object) return out;
  if (const JsonValue* v = envelope.find("id");
      v != nullptr && v->kind == JsonValue::Kind::Number &&
      representable<int64_t>(v->number)) {
    out.has_id = true;
    out.id = static_cast<int64_t>(v->number);
  }
  if (const JsonValue* v = envelope.find("op");
      v != nullptr && v->kind == JsonValue::Kind::String)
    out.op = v->text;
  return out;
}

}  // namespace

std::string op_of(const AnyRequest& request) { return kOpNames[request.index()]; }

std::string op_of(const AnyResult& result) { return kOpNames[result.index()]; }

template <typename T>
std::string to_json(const T& value) {
  return struct_text(const_cast<T&>(value));
}

template <typename T>
T from_json(const std::string& text, const std::string& who) {
  return decode_struct<T>(parse_wire_json(text), who);
}

// The codec is instantiated for exactly the facade surface; anything
// else fails to link, which keeps the wire contract enumerable.
#define PIM_WIRE_INSTANTIATE(T)              \
  template std::string to_json<T>(const T&); \
  template T from_json<T>(const std::string&, const std::string&);
#define PIM_WIRE_INSTANTIATE_OP(Req, Res, wire_name, entry) \
  PIM_WIRE_INSTANTIATE(Req) PIM_WIRE_INSTANTIATE(Res)
PIM_API_OPS(PIM_WIRE_INSTANTIATE_OP)
PIM_WIRE_INSTANTIATE(LinkSpec)
PIM_WIRE_INSTANTIATE(CornerTimingRow)
PIM_WIRE_INSTANTIATE(InvalidateKindRow)
PIM_WIRE_INSTANTIATE(CacheKindRow)
#undef PIM_WIRE_INSTANTIATE_OP
#undef PIM_WIRE_INSTANTIATE

std::string write_request_line(int64_t id, const AnyRequest& request) {
  std::string out;
  JsonWriter w(out);
  w.field("op", op_of(request));
  w.field("id", id);
  request_fields(w, request);
  return out;
}

std::string write_request_line(int64_t id, const BatchRequest& request) {
  std::string items = "[";
  for (size_t i = 0; i < request.items.size(); ++i) {
    if (i > 0) items += ',';
    JsonWriter item(items);
    item.field("op", op_of(request.items[i]));
    request_fields(item, request.items[i]);
  }
  items += ']';
  std::string out;
  JsonWriter w(out);
  w.field("op", std::string(kBatchOp));
  w.field("id", id);
  w.field("api_version", request.api_version);
  w.field("deadline_ms", request.deadline_ms);
  w.raw("items", items);
  w.finish();
  return out;
}

Identity read_identity(const std::string& line) {
  try {
    return identity_of(obs::parse_json(line));
  } catch (...) {
    return {};
  }
}

RequestLine parse_request_line(const std::string& line) {
  return request_from_envelope(parse_wire_json(line));
}

std::string write_result_line(const RequestLine& request,
                              const Expected<AnyResult>& result) {
  if (!result.ok())
    return write_error_line(request.has_id, request.id, request.op, result.error());
  std::string out;
  JsonWriter w(out);
  if (request.has_id) w.field("id", request.id);
  w.field("op", request.op);
  w.field("ok", true);
  result_member(w, result.value());
  w.finish();
  return out;
}

std::string write_batch_result_line(const RequestLine& request,
                                    const Expected<BatchResult>& result) {
  if (!result.ok())
    return write_error_line(request.has_id, request.id, request.op, result.error());
  const BatchResult& batch = result.value();
  std::string out;
  JsonWriter w(out);
  if (request.has_id) w.field("id", request.id);
  w.field("op", request.op);
  w.field("ok", true);
  std::string body = "{\"failed\":" + std::to_string(batch.failed) +
                     ",\"partial_items\":" + std::to_string(batch.partial_items) +
                     ",\"partial\":" + (batch.partial ? "true" : "false") +
                     ",\"items\":[";
  for (size_t i = 0; i < batch.items.size(); ++i) {
    if (i > 0) body += ',';
    // The op comes from the request item (the result, when it errored,
    // has no alternative to name); sizes are equal by run_batch's
    // contract, with a defensive fallback just in case.
    const std::string op = i < request.batch.items.size()
                               ? op_of(request.batch.items[i])
                               : std::string("?");
    append_batch_item(body, op, batch.items[i]);
  }
  body += "]}";
  w.raw("result", body);
  w.finish();
  return out;
}

std::string write_error_line(bool has_id, int64_t id, const std::string& op,
                             const Error& error) {
  std::string out;
  JsonWriter w(out);
  if (has_id) w.field("id", id);
  if (!op.empty()) w.field("op", op);
  w.field("ok", false);
  w.raw("error", error_to_json(error));
  w.finish();
  return out;
}

std::string error_to_json(const Error& error) {
  std::string out;
  JsonWriter w(out);
  w.field("code", std::string(error_code_name(error.code())));
  w.field("exit_code", exit_code_for(error.code()));
  w.field("message", error.message());
  std::string context = "[";
  for (size_t i = 0; i < error.context().size(); ++i) {
    if (i > 0) context += ',';
    context += json_quote(error.context()[i]);
  }
  context += ']';
  w.raw("context", context);
  w.finish();
  return out;
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::bad_input: return 2;
    case ErrorCode::internal: return 4;
    case ErrorCode::deadline_exceeded:
    case ErrorCode::cancelled: return 5;
    default: return 3;
  }
}

std::string execute_line(const std::string& line) {
  // Armed fault sites draw from a stream seeded by the line's own bytes,
  // so which requests fault never depends on arrival order, on the
  // requests before it or on the worker count. A disarmed run installs
  // nothing.
  std::optional<fault::ScopedStream> fault_stream;
  if (fault::armed()) fault_stream.emplace(fault::content_stream(line));
  Identity identity;
  try {
    const JsonValue envelope = parse_wire_json(line);
    // Best-effort identity before the strict decode, so even a decode
    // error echoes whatever id/op the caller sent.
    identity = identity_of(envelope);
    const RequestLine request = request_from_envelope(envelope);
    return request.is_batch ? write_batch_result_line(request, run_batch(request.batch))
                            : write_result_line(request, run_any(request.request));
  } catch (const Error& e) {
    return write_error_line(identity.has_id, identity.id, identity.op, e);
  } catch (const std::exception& e) {
    return write_error_line(identity.has_id, identity.id, identity.op,
                            Error(std::string("wire: ") + e.what(), ErrorCode::internal));
  }
}

}  // namespace pim::api::wire
