#include "cosi/spec.hpp"

#include "util/error.hpp"

namespace pim {

void SocSpec::validate() const {
  require(!cores.empty(), "SocSpec: no cores");
  require(data_width >= 1, "SocSpec: data width must be positive");
  require(die_width > 0.0 && die_height > 0.0, "SocSpec: die dimensions must be positive");
  for (const Core& c : cores) {
    require(!c.name.empty(), "SocSpec: core without a name");
    require(c.x >= 0.0 && c.x <= die_width && c.y >= 0.0 && c.y <= die_height,
            "SocSpec: core '" + c.name + "' outside the die");
  }
  const int n = static_cast<int>(cores.size());
  for (const Flow& f : flows) {
    require(f.src >= 0 && f.src < n && f.dst >= 0 && f.dst < n,
            "SocSpec: flow endpoint out of range");
    require(f.src != f.dst, "SocSpec: self-flow");
    require(f.bandwidth > 0.0, "SocSpec: flow bandwidth must be positive");
  }
}

double SocSpec::total_bandwidth() const {
  double acc = 0.0;
  for (const Flow& f : flows) acc += f.bandwidth;
  return acc;
}

}  // namespace pim
