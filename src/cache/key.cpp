#include "cache/key.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>

#include "cache/manifest.hpp"
#include "util/strings.hpp"

namespace pim::cache {
namespace {

constexpr char kUnitSep = '\x1f';    // between field name and value
constexpr char kRecordSep = '\x1e';  // after each field
constexpr char kEscape = '\x1d';     // before an escaped byte

// A separator or the escape byte: what a name or value must not carry
// raw, or one field could spell two.
bool is_special(char c) { return static_cast<unsigned char>(c - kEscape) < 3; }

// Eight bytes a step, since every key field passes through here: XOR
// with 0x1c maps 0x1c..0x1f to 0..3, and (w - 4) & ~w & 0x80 sets a
// byte's top bit only if some byte is below 4. A 0x1c byte also trips
// it, which is harmless: escaped() leaves that byte as it is.
bool has_special(std::string_view bytes) {
  constexpr uint64_t kOnes = 0x0101010101010101;
  uint64_t hit = 0;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    w ^= 0x1c * kOnes;
    hit |= (w - 4 * kOnes) & ~w & (0x80 * kOnes);
  }
  for (; i < bytes.size(); ++i) hit |= is_special(bytes[i]);
  return hit != 0;
}

// Each special byte b written as kEscape, b ^ 0x40.
std::string escaped(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    if (is_special(c)) {
      out += kEscape;
      out += static_cast<char>(c ^ 0x40);
    } else {
      out += c;
    }
  }
  return out;
}

// std::to_chars(args...) into `buf`, as a view: a numeric field's text
// without a std::string per field. 32 chars hold any double at 17
// digits and any 64-bit integer.
template <typename... Args>
std::string_view render(char (&buf)[32], Args... args) {
  const char* end = std::to_chars(buf, buf + sizeof buf, args...).ptr;
  return std::string_view(buf, static_cast<size_t>(end - buf));
}

}  // namespace

KeyBuilder::KeyBuilder(std::string kind) : kind_(std::move(kind)) {
  internal_ = true;
  hasher_.update("pim-cache");
  field("format", static_cast<int64_t>(kFormatVersion));
  field("kind", kind_);
  internal_ = false;
}

void KeyBuilder::note_param(std::string_view name, std::string_view value) {
  if (internal_) return;
  params_hasher_.update(name);
  params_hasher_.update(&kUnitSep, 1);
  params_hasher_.update(value);
  params_hasher_.update(&kRecordSep, 1);
  has_params_ = true;
}

KeyBuilder& KeyBuilder::append(std::string_view name, std::string_view value) {
  hasher_.update(name);
  hasher_.update(&kUnitSep, 1);
  hasher_.update(value);
  hasher_.update(&kRecordSep, 1);
  note_param(name, value);
  return *this;
}

KeyBuilder& KeyBuilder::field(std::string_view name, std::string_view value) {
  // A field without special bytes hashes as it always has, so its key
  // keeps its hex.
  if (has_special(name) || has_special(value)) [[unlikely]]
    return append(escaped(name), escaped(value));
  return append(name, value);
}

KeyBuilder& KeyBuilder::field_number(std::string_view name, std::string_view text) {
  // A rendered number holds no special byte; only the name is checked.
  if (has_special(name)) [[unlikely]] return append(escaped(name), text);
  return append(name, text);
}

KeyBuilder& KeyBuilder::field(std::string_view name, double value) {
  // 17 significant digits: the canonical exactly-round-tripping render,
  // the same characters as format_sig(value, 17).
  char buf[32];
  return field_number(name, render(buf, value, std::chars_format::general, 17));
}

KeyBuilder& KeyBuilder::field(std::string_view name, int64_t value) {
  char buf[32];
  return field_number(name, render(buf, value));
}

KeyBuilder& KeyBuilder::field(std::string_view name, const std::vector<double>& values) {
  std::string joined;
  for (double v : values) {
    if (!joined.empty()) joined.push_back(',');
    append_sig(joined, v, 17);
  }
  return field(name, std::string_view(joined));
}

KeyBuilder& KeyBuilder::field(std::string_view name, const std::vector<int>& values) {
  std::string joined;
  for (int v : values) {
    if (!joined.empty()) joined.push_back(',');
    joined += std::to_string(v);
  }
  return field(name, std::string_view(joined));
}

KeyBuilder& KeyBuilder::facet(std::string_view type, std::string_view name,
                              std::string_view id) {
  internal_ = true;
  std::string field_name(type);
  field_name += ':';
  field_name += name;
  field(field_name, id);
  internal_ = false;
  if (Tracked* scope = Tracked::current())
    scope->facet(Facet{std::string(type), std::string(name), std::string(id)});
  return *this;
}

KeyBuilder& KeyBuilder::model(std::string_view signature,
                              const std::vector<CacheKey>& provenance) {
  if (Tracked* scope = Tracked::current())
    for (const CacheKey& key : provenance) scope->upstream(key);
  return field("model", signature);
}

CacheKey KeyBuilder::finish() {
  if (Tracked* scope = Tracked::current()) {
    if (has_params_)
      scope->facet(Facet{"params", kind_, params_hasher_.hex_digest()});
    scope->facet(Facet{"format", "version", std::to_string(kFormatVersion)});
  }
  CacheKey key;
  key.kind = kind_;
  key.hex = hasher_.hex_digest();
  return key;
}

}  // namespace pim::cache
