#include "cache/key.hpp"

#include <charconv>

#include "cache/manifest.hpp"
#include "util/strings.hpp"

namespace pim::cache {
namespace {

constexpr char kUnitSep = '\x1f';    // between field name and value
constexpr char kRecordSep = '\x1e';  // after each field

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
  raw("pim-cache");
  field("format", static_cast<int64_t>(kFormatVersion));
  field("kind", kind_);
  internal_ = false;
}

void KeyBuilder::raw(std::string_view bytes) { hasher_.update(bytes); }

void KeyBuilder::note_param(std::string_view name, std::string_view value) {
  if (internal_) return;
  params_hasher_.update(name);
  params_hasher_.update(&kUnitSep, 1);
  params_hasher_.update(value);
  params_hasher_.update(&kRecordSep, 1);
  has_params_ = true;
}

KeyBuilder& KeyBuilder::field(std::string_view name, std::string_view value) {
  raw(name);
  hasher_.update(&kUnitSep, 1);
  raw(value);
  hasher_.update(&kRecordSep, 1);
  note_param(name, value);
  return *this;
}

KeyBuilder& KeyBuilder::field(std::string_view name, double value) {
  // 17 significant digits: the canonical exactly-round-tripping render,
  // the same characters as format_sig(value, 17).
  char buf[32];
  return field(name, render(buf, value, std::chars_format::general, 17));
}

KeyBuilder& KeyBuilder::field(std::string_view name, int64_t value) {
  char buf[32];
  return field(name, render(buf, value));
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
