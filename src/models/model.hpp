// Abstract interconnect-model interface.
//
// COSI-OCC and the buffering optimizer are written against this
// interface, so swapping the paper's proposed model for a baseline (or an
// ablated variant) changes *only* the numbers the optimization sees —
// which is exactly the experiment of paper Table III.
#pragma once

#include <string>
#include <vector>

#include "cache/key.hpp"
#include "models/link.hpp"
#include "tech/technology.hpp"

namespace pim {

/// Predicts delay/power/area of buffered links in one technology.
class InterconnectModel {
 public:
  virtual ~InterconnectModel() = default;

  /// Model name for tables ("proposed", "bakoglu", "pamunuwa").
  virtual const std::string& name() const = 0;

  /// The technology this model instance is bound to.
  virtual const Technology& tech() const = 0;

  /// Evaluates one candidate link implementation.
  virtual LinkEstimate evaluate(const LinkContext& context,
                                const LinkDesign& design) const = 0;

  /// Stable content signature covering everything evaluate() depends on
  /// besides (context, design) — model name, technology, and any fitted
  /// coefficients — for the pim::cache result store. Models returning ""
  /// (the default) opt out of result caching.
  virtual std::string cache_signature() const { return {}; }

  /// Keys of the cached fit artifacts this instance was built from. The
  /// cached wrappers record them as upstream edges of every entry keyed
  /// by cache_signature(), so a stale fit drags its downstream results
  /// along. Empty (the default) for models built from no cached fit.
  virtual std::vector<cache::CacheKey> provenance() const { return {}; }
};

}  // namespace pim
