// Canonical cache-key derivation: a CacheKey is the SHA-256 of a
// deterministic serialization of every input that determines a result
// (tech file bytes, deck parameters, coefficient tables, link specs,
// seeds), plus a `kind` tag and the cache format version.
//
// Canonicalization rules (docs/caching.md):
//  - fields are emitted in the order the call site appends them, each as
//    `name US value RS` (ASCII unit/record separators), so reordering or
//    renaming a field changes the key;
//  - doubles render with 17 significant digits — the shortest form that
//    round-trips IEEE-754 exactly — so a key never depends on printf
//    quirks of shorter precisions;
//  - the format version and kind are folded into the hash itself, so a
//    layout change invalidates every old entry instead of misreading it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/sha256.hpp"
#include "util/version.hpp"

namespace pim::cache {

/// Bump when the canonicalization or any cached payload layout changes;
/// folded into every key, so old entries become unreachable (not
/// misread) after an upgrade. The number itself lives in
/// util/version.hpp so artifact stamping (ledger, bench harness) can
/// read it without pulling in the cache layer.
inline constexpr int kFormatVersion = kCacheFormatVersion;

/// A finished key: the kind tag (directory / entry header) plus the
/// 64-hex-character digest.
struct CacheKey {
  std::string kind;
  std::string hex;
};

/// Accumulates named fields into a canonical digest.
///
/// Provenance capture (cache/manifest.hpp): facet() hashes a typed input
/// exactly like a field AND records it into the innermost cache::Tracked
/// scope, so a manifest can never claim inputs the key does not cover.
/// Plain field() calls are folded into a secondary params digest
/// that finish() records as one "params" facet — an edit to any loose
/// deck knob shows up as a params change without per-knob bookkeeping.
class KeyBuilder {
 public:
  /// `kind` tags what the key addresses ("fit", "buffering", "mc", ...).
  explicit KeyBuilder(std::string kind);

  KeyBuilder& field(std::string_view name, std::string_view value);
  KeyBuilder& field(std::string_view name, double value);
  KeyBuilder& field(std::string_view name, int64_t value);
  KeyBuilder& field(std::string_view name, int value) {
    return field(name, static_cast<int64_t>(value));
  }
  KeyBuilder& field(std::string_view name, bool value) {
    return field(name, static_cast<int64_t>(value ? 1 : 0));
  }
  KeyBuilder& field(std::string_view name, const std::vector<double>& values);
  KeyBuilder& field(std::string_view name, const std::vector<int>& values);

  /// A typed provenance facet: hashed into the key as field
  /// "<type>:<name>" = id, and captured into the active Tracked scope
  /// (no-op outside one). Use for the inputs invalidation reasons about:
  /// tech content hashes, corner ids, fit hashes, sampling plans.
  KeyBuilder& facet(std::string_view type, std::string_view name, std::string_view id);

  /// field("model", signature), plus each of `provenance` (the keys of
  /// the cached artifacts the model was built from) as an upstream edge
  /// of the active Tracked scope.
  KeyBuilder& model(std::string_view signature, const std::vector<CacheKey>& provenance);

  /// Finalizes the digest, recording the rolled-up "params" facet and the
  /// format-version facet into the active Tracked scope. The builder is
  /// spent afterwards.
  CacheKey finish();

 private:
  void raw(std::string_view bytes);
  void note_param(std::string_view name, std::string_view value);

  std::string kind_;
  Sha256 hasher_;
  Sha256 params_hasher_;
  bool has_params_ = false;
  bool internal_ = false;  ///< true while emitting preamble/facet fields
};

}  // namespace pim::cache
