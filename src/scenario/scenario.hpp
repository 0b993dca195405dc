// First-class process corners — the pim::scenario layer.
//
// A Corner is a named operating point of the fab + environment: slow or
// fast devices, dense or sparse dielectric, hot or cold, high or low
// supply. It is expressed as multiplicative derating factors around the
// nominal technology descriptor (1.0 everywhere = nominal), so every
// layer that consumes a Technology can be evaluated "at a corner" by
// derating the descriptor once and running the exact same code path —
// there is no separate nominal flow.
//
// A ScenarioSet is the corner collection one signs off against: the
// built-in set carries nominal plus the four classic device corners
// (SS/FF/SF/FS); tech files may override it with a `corners { ... }`
// block (docs/corners.md).
//
// Downstream contract (threaded through the whole stack):
//  - tech:      Technology::derated(corner) + corner_technology() registry
//  - charlib:   characterization/fitting runs against the derated
//               descriptor; per-corner results are content-cached with the
//               corner id folded into the cache key (sta/calibrated)
//  - models:    CornerModelSet / WorstCornerModel (models/corners.hpp)
//  - sta:       signoff_corners() multi-corner slack analysis (sta/corners.hpp)
//  - variation: monte_carlo_link_at_corner() samples around a corner
//  - cosi:      synthesis sizes links against the worst corner
//  - obs:       per-corner metrics under "corner.<name>.*"
#pragma once

#include <string>
#include <vector>

namespace pim {

/// One process corner: multiplicative derating factors around the
/// nominal descriptor (1.0 = nominal) plus environment tags. Device
/// strength is split by polarity so the mixed SF/FS corners exist.
struct Corner {
  std::string name = "nominal";
  double nmos_strength = 1.0;  ///< scales NMOS saturation current
  double pmos_strength = 1.0;  ///< scales PMOS saturation current
  double device_cap = 1.0;     ///< scales gate + junction capacitance
  double leakage = 1.0;        ///< scales the fitted leakage power
  double wire_res = 1.0;       ///< scales bulk wire resistivity
  double wire_cap = 1.0;       ///< scales the ILD permittivity
  double temperature_c = 25.0; ///< tag: characterization temperature [C]
  double vdd_scale = 1.0;      ///< scales the supply voltage

  /// True when every derating factor is exactly 1.0 — i.e. the corner
  /// describes the nominal operating point regardless of its name.
  bool is_nominal() const;

  /// Canonical "name|factor|..." id covering the name and every factor
  /// at full precision. Folded into cache keys so two corners share
  /// cached results only when they are the same corner, and renaming or
  /// re-tuning a corner re-keys everything derived from it.
  std::string cache_id() const;
};

/// True when `a` and `b` are one corner identity: the same name and
/// bit-identical factors, which is when their cache_id()s are equal. It
/// builds neither id, so a lookup by corner allocates nothing.
bool same_corner(const Corner& a, const Corner& b);

/// The corner collection a technology is signed off against. Order is
/// meaningful: the first corner is the reference (nominal by
/// convention), and "all" resolves in set order.
class ScenarioSet {
 public:
  /// Empty set; assign or parse corners into it.
  ScenarioSet() = default;

  /// Takes ownership of `corners`; names must be unique and non-empty.
  explicit ScenarioSet(std::vector<Corner> corners);

  /// nominal + SS/FF/SF/FS with representative derating magnitudes
  /// (docs/corners.md lists the exact factors).
  static const ScenarioSet& builtin();

  const std::vector<Corner>& corners() const { return corners_; }
  bool empty() const { return corners_.empty(); }
  size_t size() const { return corners_.size(); }

  /// The corner named `name`, or nullptr.
  const Corner* find(const std::string& name) const;

  /// The corner named `name`; throws pim::Error (bad_input) listing the
  /// known names when absent.
  const Corner& corner(const std::string& name) const;

  /// Resolves a CLI-style corner spec against this set:
  ///   ""          -> { corner("nominal") }
  ///   "all"       -> every corner, in set order
  ///   "a,b,c"     -> those corners, in spec order (throws on unknowns)
  std::vector<Corner> resolve(const std::string& spec) const;

 private:
  std::vector<Corner> corners_;
};

}  // namespace pim
