#include "obs/report.hpp"

#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/ledger.hpp"
#include "util/error.hpp"
#include "util/textfile.hpp"

namespace pim::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_escaped(out, s);
  return out;
}

}  // namespace

// Shortest-ish double formatting that stays valid JSON (no inf/nan): the
// bytes of %g when they reparse exactly, else of %.17g.
void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6).ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  if (back != v)
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr;
  out.append(buf, end);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

std::string json_quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

std::string metrics_to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"pim.metrics.v1\",\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(snapshot.counters[i].first)
       << "\": " << snapshot.counters[i].second;
  }
  os << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(snapshot.gauges[i].first)
       << "\": " << json_number(snapshot.gauges[i].second);
  }
  os << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"timers\": {";
  for (size_t i = 0; i < snapshot.timers.size(); ++i) {
    const TimerSnapshot& t = snapshot.timers[i];
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(t.name) << "\": {"
       << "\"count\": " << t.count << ", \"total_ns\": " << t.total_ns
       << ", \"mean_ns\": " << json_number(t.mean_ns()) << ", \"min_ns\": " << t.min_ns
       << ", \"max_ns\": " << t.max_ns
       << ", \"p50_ns\": " << json_number(t.quantile_ns(0.5))
       << ", \"p99_ns\": " << json_number(t.quantile_ns(0.99)) << "}";
  }
  os << (snapshot.timers.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string trace_to_chrome_json(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    os << (i ? ",\n" : "\n") << "{\"ph\": \"X\", \"name\": \"" << json_escape(e.name)
       << "\", \"cat\": \"pim\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << json_number(static_cast<double>(e.start_ns) / 1e3)
       << ", \"dur\": " << json_number(static_cast<double>(e.dur_ns) / 1e3)
       << ", \"args\": {\"depth\": " << e.depth << "}}";
  }
  os << (events.empty() ? "" : "\n") << "],\n\"displayTimeUnit\": \"ns\"}\n";
  return os.str();
}

void save_metrics_json(const std::string& path) {
  update_process_gauges();
  write_text_file(path, metrics_to_json(registry().snapshot()), "obs");
}

void save_trace(const std::string& path) {
  write_text_file(path, trace_to_chrome_json(trace_events()), "obs");
}

// ---------------------------------------------------------------------------
// Minimal JSON reader.

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), ErrorCode::internal,
            "json: trailing content at offset ", pos_);
    return v;
  }

 private:
  char peek() {
    skip_ws();
    require(pos_ < text_.size(), "json: unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  void expect(char c) {
    // The offset named is the one before peek() skips whitespace.
    const size_t at = pos_;
    require(peek() == c, ErrorCode::internal, "json: expected '", c, "' at offset ", at);
    ++pos_;
  }

  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // Each level recurses, so an unbounded document (a line of 200,000
      // '[') would overflow the stack. No report or wire shape nests
      // deeper than a handful of levels.
      if (depth_ == kMaxDepth)
        fail("json: nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels at offset " + std::to_string(pos_),
             ErrorCode::bad_input);
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::String;
      v.text = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') return parse_keyword(c == 't' ? "true" : "false", c == 't');
    if (c == 'n') {
      match_keyword("null");
      return JsonValue{};
    }
    return parse_number();
  }

  JsonValue parse_keyword(const char* word, bool value) {
    match_keyword(word);
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = value;
    return v;
  }

  void match_keyword(std::string_view word) {
    require(text_.compare(pos_, word.size(), word) == 0, ErrorCode::internal,
            "json: bad literal at offset ", pos_);
    pos_ += word.size();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    if (consume('}')) return v;
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      if (consume('}')) return v;
      expect(',');
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    if (consume(']')) return v;
    while (true) {
      v.items.push_back(parse_value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "json: unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), "json: truncated \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::stoul(text_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          // Reports only emit control characters this way; keep it simple
          // and store the low byte (valid for code points < 0x80).
          out += static_cast<char>(code & 0x7f);
          break;
        }
        default:
          fail("json: bad escape '\\" + std::string(1, esc) + "'");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
      ++pos_;
    require(pos_ > start, ErrorCode::internal, "json: expected a value at offset ",
            start);
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const std::errc ec =
        std::from_chars(text_.data() + start, text_.data() + pos_, v.number).ec;
    // std::stod decides the rest: it also takes a leading '+', and it
    // rejects the subnormals from_chars takes (ERANGE).
    if (ec == std::errc{} && (v.number == 0.0 || std::abs(v.number) > DBL_MIN)) return v;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("json: bad number '" + text_.substr(start, pos_ - start) + "'");
    }
    return v;
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< objects and arrays currently open
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse_document(); }

}  // namespace pim::obs
