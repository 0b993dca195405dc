#include "cache/manifest.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pim::cache {
namespace {

// Facet fields are joined with the unit separator: corner ids contain
// '|' and spaces are conceivable in techfile names, but an ASCII control
// character never survives into either.
constexpr char kUnitSep = '\x1f';

thread_local Tracked* g_scope = nullptr;

}  // namespace

std::string encode_manifest(const Manifest& manifest) {
  std::ostringstream os;
  os << "pim-manifest v" << kFormatVersion << "\n";
  os << "kind " << manifest.key.kind << "\n";
  os << "key " << manifest.key.hex << "\n";
  os << "cost_ns " << manifest.cost_ns << "\n";
  for (const Facet& f : manifest.facets)
    os << "facet " << f.type << kUnitSep << f.name << kUnitSep << f.id << "\n";
  for (const CacheKey& k : manifest.upstream)
    os << "upstream " << k.kind << " " << k.hex << "\n";
  return os.str();
}

Expected<Manifest> decode_manifest(std::string_view file) {
  auto bad = [](const std::string& what) {
    return Error("cache manifest: " + what, ErrorCode::io_parse);
  };
  Manifest m;
  bool saw_magic = false, saw_kind = false, saw_key = false, saw_cost = false;
  size_t lineno = 0;
  while (!file.empty()) {
    const size_t nl = file.find('\n');
    if (nl == std::string_view::npos) return bad("missing trailing newline");
    const std::string line(file.substr(0, nl));
    file.remove_prefix(nl + 1);
    ++lineno;
    if (lineno == 1) {
      if (line != "pim-manifest v" + std::to_string(kFormatVersion))
        return bad("unsupported format '" + line + "'");
      saw_magic = true;
      continue;
    }
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) return bad("malformed line " + std::to_string(lineno));
    const std::string tag = line.substr(0, sp);
    const std::string rest = line.substr(sp + 1);
    if (tag == "kind") {
      m.key.kind = rest;
      saw_kind = true;
    } else if (tag == "key") {
      m.key.hex = rest;
      saw_key = true;
    } else if (tag == "cost_ns") {
      try {
        m.cost_ns = parse_long(rest);
      } catch (const Error&) {
        return bad("malformed cost_ns '" + rest + "'");
      }
      saw_cost = true;
    } else if (tag == "facet") {
      const size_t a = rest.find(kUnitSep);
      const size_t b = a == std::string::npos ? a : rest.find(kUnitSep, a + 1);
      if (b == std::string::npos) return bad("malformed facet '" + rest + "'");
      Facet f;
      f.type = rest.substr(0, a);
      f.name = rest.substr(a + 1, b - a - 1);
      f.id = rest.substr(b + 1);
      m.facets.push_back(std::move(f));
    } else if (tag == "upstream") {
      const size_t us = rest.find(' ');
      if (us == std::string::npos) return bad("malformed upstream '" + rest + "'");
      m.upstream.push_back(CacheKey{rest.substr(0, us), rest.substr(us + 1)});
    } else {
      return bad("unknown tag '" + tag + "'");
    }
  }
  if (!saw_magic || !saw_kind || !saw_key || !saw_cost)
    return bad("truncated header");
  if (m.key.hex.size() != 64) return bad("malformed key digest");
  return m;
}

Tracked::Tracked() : start_ns_(obs::now_ns()), parent_(g_scope) { g_scope = this; }

Tracked::~Tracked() { g_scope = parent_; }

Tracked* Tracked::current() { return g_scope; }

void Tracked::facet(Facet f) {
  if (std::find(facets_.begin(), facets_.end(), f) != facets_.end()) return;
  facets_.push_back(std::move(f));
}

void Tracked::upstream(const CacheKey& key) {
  for (const CacheKey& k : upstream_)
    if (k.kind == key.kind && k.hex == key.hex) return;
  upstream_.push_back(key);
}

void Tracked::publish(const CacheKey& key) const {
  if (parent_ != nullptr) parent_->upstream(key);
}

Manifest Tracked::manifest(const CacheKey& key) const {
  Manifest m;
  m.key = key;
  m.facets = facets_;
  m.upstream = upstream_;
  m.cost_ns = obs::now_ns() - start_ns_;
  return m;
}

}  // namespace pim::cache
