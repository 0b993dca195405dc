// Provenance manifests: the metadata that turns the opaque key->blob
// store into an artifact graph.
//
// Every cached entry is written together with a Manifest describing what
// it was computed FROM: a set of typed input facets (tech content hash,
// corner cache_id, deck-parameter hash, fit-coefficient hash, sampling
// plan, format version) plus the CacheKeys of upstream cached artifacts
// it derived from. Manifests are a sidecar file next to the entry
// (store.hpp), written before it and fail-open like everything else in
// this layer — a run with no manifests is merely un-invalidatable, never
// broken.
//
// Capture is automatic, not hand-maintained: a cached wrapper opens a
// `Tracked` scope, and every KeyBuilder::facet() call both hashes the
// value into the key AND records it into the scope, so the provenance a
// manifest claims can never drift from the inputs the key actually
// covers. Plain field() calls roll up into one "params" facet at
// finish() for the same reason. Nested wrappers (cosi -> buffering)
// record their resolved artifact keys into the parent scope via
// publish(); a model carries the keys of the fits it was built from, and
// KeyBuilder::model() adds those. That is how the upstream edges of the
// graph appear.
//
// The dirty rule (invalidate.hpp): a facet is *changed* when a manifest
// holds the same (type, name) with a different id. Same type+name+id is
// an unchanged input; a (type, name) the manifest never consumed is
// irrelevant to it. Upstream edges then propagate dirtiness down the
// graph to a fixpoint (a stale fit drags its buffering searches and
// Monte-Carlo runs along).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/key.hpp"
#include "util/expected.hpp"

namespace pim::cache {

/// One typed input of a cached computation. `type` is the facet class
/// ("tech", "corner", "fit", "samples", "params", "format"), `name` the
/// logical identity within it (which tech, which corner), and `id` the
/// content: an edit changes the id while type+name stay put, which is
/// exactly the dirty signal.
struct Facet {
  std::string type;
  std::string name;
  std::string id;

  bool operator==(const Facet& o) const {
    return type == o.type && name == o.name && id == o.id;
  }
};

/// The provenance record of one cached entry.
struct Manifest {
  CacheKey key;                    ///< the entry this manifest describes
  std::vector<Facet> facets;       ///< typed inputs, in capture order
  std::vector<CacheKey> upstream;  ///< cached artifacts this one derived from
  int64_t cost_ns = 0;             ///< wall time of the compute that produced it
};

/// Serializes a manifest as the sidecar file image (pim-manifest v<N>).
std::string encode_manifest(const Manifest& manifest);

/// Parses and validates a sidecar image. Errors use the io_parse
/// taxonomy; a version/layout mismatch is a parse failure (fail-open at
/// every caller).
Expected<Manifest> decode_manifest(std::string_view file);

/// RAII provenance scope for one cached wrapper. Scopes nest per thread
/// (thread-local stack): KeyBuilder::facet() records into the innermost
/// scope, and publish() additionally reports the finished artifact to the
/// PARENT scope as an upstream edge — which is how a cosi link search
/// learns it consumed a specific buffering entry, and a model builder
/// learns which fit key its coefficients resolved to.
class Tracked {
 public:
  Tracked();
  ~Tracked();
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;

  /// Innermost scope on this thread, or nullptr when no cached wrapper
  /// is active (facet capture is then a no-op).
  static Tracked* current();

  /// Records a consumed facet. Duplicate (type, name, id) triples are
  /// deduplicated; capture order is otherwise preserved.
  void facet(Facet f);

  /// Records a direct upstream artifact dependency.
  void upstream(const CacheKey& key);

  /// Reports the finished artifact under `key`: records it as an
  /// upstream edge of the parent scope (if any). Call once the entry is
  /// resolved — cache hit and fresh compute alike, so the graph is
  /// complete from either path.
  void publish(const CacheKey& key) const;

  /// The manifest for an entry produced under this scope, with cost_ns
  /// set to the wall time since the scope opened.
  Manifest manifest(const CacheKey& key) const;

  const std::vector<Facet>& facets() const { return facets_; }
  const std::vector<CacheKey>& upstream_keys() const { return upstream_; }

 private:
  std::vector<Facet> facets_;
  std::vector<CacheKey> upstream_;
  int64_t start_ns_ = 0;
  Tracked* parent_ = nullptr;
};

}  // namespace pim::cache
