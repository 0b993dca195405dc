// cache::memoize — the one memoized-compute path of every cached flow and
// the only caller of Store::get/put outside src/cache (docs/caching.md).
// It opens the provenance scope before make_key() runs, decodes a hit via
// Payload<T> and lets on_hit(T&) validate it (throwing Error rejects it).
// A digest-valid payload that fails either way counts `cache.corrupt`
// once, is erased, and is recomputed. Partial results (a true `partial`
// member) are never stored or published; every other result is published
// to the enclosing scope. The key build, the encode and the decode are
// timed once per call as the `cache.key`, `cache.encode` and
// `cache.decode` spans. Payload<T> defaults to T's field binding
// `bind(B&, T&)` as block text (util/blocktext.hpp) at depth 0, doubles at
// 17 significant digits so hits are bit-identical.
#pragma once

#include <string>
#include <string_view>

#include "cache/manifest.hpp"
#include "cache/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/blocktext.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace pim::cache {

/// T's payload codec: its field binding as block text at depth 0, unless
/// specialized for a type that keeps its own format.
template <typename T>
struct Payload {
  static std::string encode(const T& value) {
    blocktext::Writer w(17);
    bind(w, const_cast<T&>(value));  // the writer only reads
    return w.finish();
  }
  static T decode(std::string_view text) {
    blocktext::Reader r(text, "cache payload");
    T value;
    bind(r, value);
    r.finish();
    return value;
  }
};

template <typename T, typename KeyFn, typename ComputeFn,
          typename HitFn = decltype([](T&) {})>
T memoize(KeyFn&& make_key, ComputeFn&& compute, HitFn&& on_hit = {}) {
  const Tracked scope;
  const CacheKey key = [&] {
    PIM_OBS_SPAN("cache.key");
    return make_key();
  }();
  Store& store = Store::global();
  if (std::optional<std::string> payload = store.get(key)) {
    try {
      T hit = [&] {
        PIM_OBS_SPAN("cache.decode");
        return Payload<T>::decode(*payload);
      }();
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
  const std::string text = [&] {
    PIM_OBS_SPAN("cache.encode");
    return Payload<T>::encode(value);
  }();
  store.put(key, text);
  scope.publish(key);
  return value;
}

}  // namespace pim::cache
