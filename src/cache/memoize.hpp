// cache::memoize — the one memoized-compute path of every cached flow and
// the only caller of Store::get/put outside src/cache (docs/caching.md).
// It opens the provenance scope before make_key() runs, decodes a hit via
// Payload<T> and lets on_hit(T&) validate it (throwing Error rejects it).
// A digest-valid payload that fails either way counts `cache.corrupt`
// once, is erased, and is recomputed. Partial results (a true `partial`
// member) are never stored or published; every other result is published
// to the enclosing scope. Payload<T> defaults to `name value` lines from
// T's field binding `bind(B&, T&)`, shared by the writer and the reader;
// doubles at 17 significant digits keep hits bit-identical.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cache/manifest.hpp"
#include "cache/store.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pim::cache {

/// Integers, enums and bools are written as their integer value.
class PayloadWriter {
 public:
  void field(const char* name, double v);
  template <typename T>
  void field(const char* name, T v) {
    line(name, std::to_string(static_cast<long long>(v)));
  }
  /// One line: the name, then each value after a space.
  void field(const char* name, const std::vector<double>& v);
  std::string finish() { return std::move(out_); }

 private:
  void line(const char* name, std::string_view value);
  std::string out_;
};

/// Throws Error on a missing or malformed field. `text` must outlive it.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view text) : text_(text) {}
  void field(const char* name, double& v);
  template <typename T>
  void field(const char* name, T& v) { v = static_cast<T>(parse_long(values(name))); }
  void field(const char* name, std::vector<double>& v);

 private:
  std::string_view values(const char* name) const;  ///< the line after the name
  std::string_view text_;
};

/// T's payload codec: its field binding, unless specialized for a type
/// that keeps its own format.
template <typename T>
struct Payload {
  static std::string encode(const T& value) {
    PayloadWriter w;
    bind(w, const_cast<T&>(value));  // the writer only reads
    return w.finish();
  }
  static T decode(std::string_view text) {
    PayloadReader r(text);
    T value;
    bind(r, value);
    return value;
  }
};

template <typename T, typename KeyFn, typename ComputeFn,
          typename HitFn = decltype([](T&) {})>
T memoize(KeyFn&& make_key, ComputeFn&& compute, HitFn&& on_hit = {}) {
  const Tracked scope;
  const CacheKey key = make_key();
  Store& store = Store::global();
  if (std::optional<std::string> payload = store.get(key)) {
    try {
      T hit = Payload<T>::decode(*payload);
      on_hit(hit);
      scope.publish(key);
      return hit;
    } catch (const Error& e) {
      // The store verified the digest, so only this layer sees the
      // corruption; scrub it so an uncached recompute leaves a clean miss.
      PIM_COUNT("cache.corrupt");
      log_warn("cache: dropping unparsable ", key.kind, " entry: ", e.what());
      store.erase(key);
    }
  }
  T value = compute();
  if constexpr (requires { value.partial; })
    if (value.partial) return value;
  store.put(key, Payload<T>::encode(value));
  scope.publish(key);
  return value;
}

}  // namespace pim::cache
