#include "scenario/scenario.hpp"

#include <bit>
#include <cstdint>
#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pim {

bool Corner::is_nominal() const {
  return nmos_strength == 1.0 && pmos_strength == 1.0 && device_cap == 1.0 &&
         leakage == 1.0 && wire_res == 1.0 && wire_cap == 1.0 && vdd_scale == 1.0;
}

std::string Corner::cache_id() const {
  // 17 significant digits round-trip IEEE-754 doubles exactly, so the id
  // — and hence every cache key it is folded into — is a pure function
  // of the corner's value, never of formatting quirks.
  std::string id = name;
  for (double f : {nmos_strength, pmos_strength, device_cap, leakage, wire_res,
                   wire_cap, temperature_c, vdd_scale}) {
    id += '|';
    id += format_sig(f, 17);
  }
  return id;
}

bool same_corner(const Corner& a, const Corner& b) {
  if (a.name != b.name) return false;
  for (double Corner::*f :
       {&Corner::nmos_strength, &Corner::pmos_strength, &Corner::device_cap,
        &Corner::leakage, &Corner::wire_res, &Corner::wire_cap, &Corner::temperature_c,
        &Corner::vdd_scale})
    if (std::bit_cast<uint64_t>(a.*f) != std::bit_cast<uint64_t>(b.*f)) return false;
  return true;
}

ScenarioSet::ScenarioSet(std::vector<Corner> corners) : corners_(std::move(corners)) {
  std::set<std::string> seen;
  for (const Corner& c : corners_) {
    require(!c.name.empty(), "scenario: corner names must be non-empty",
            ErrorCode::bad_input);
    require(seen.insert(c.name).second,
            "scenario: duplicate corner name '" + c.name + "'", ErrorCode::bad_input);
  }
}

const ScenarioSet& ScenarioSet::builtin() {
  // Representative derating magnitudes for a nanometer bulk process:
  // ~15 % device-strength spread, ~5 % capacitance, leakage strongly
  // asymmetric (it is exponential in threshold voltage), ~10 % wire RC,
  // and the timing-signoff convention of low VDD + hot at the slow
  // corner, high VDD + cold at the fast one.
  static const ScenarioSet set(std::vector<Corner>{
      {"nominal", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 25.0, 1.0},
      {"ss", 0.85, 0.85, 1.05, 0.60, 1.10, 1.05, 125.0, 0.90},
      {"ff", 1.15, 1.15, 0.95, 1.80, 0.90, 0.95, -40.0, 1.10},
      {"sf", 0.87, 1.13, 1.00, 1.00, 1.00, 1.00, 25.0, 1.0},
      {"fs", 1.13, 0.87, 1.00, 1.00, 1.00, 1.00, 25.0, 1.0},
  });
  return set;
}

const Corner* ScenarioSet::find(const std::string& name) const {
  for (const Corner& c : corners_)
    if (c.name == name) return &c;
  return nullptr;
}

const Corner& ScenarioSet::corner(const std::string& name) const {
  if (const Corner* c = find(name)) return *c;
  std::string known;
  for (const Corner& c : corners_) known += (known.empty() ? "" : ", ") + c.name;
  fail("scenario: unknown corner '" + name + "' (known: " + known + ")",
       ErrorCode::bad_input);
}

std::vector<Corner> ScenarioSet::resolve(const std::string& spec) const {
  require(!corners_.empty(), "scenario: empty corner set", ErrorCode::bad_input);
  if (spec.empty()) return {corner("nominal")};
  if (spec == "all") return corners_;
  std::vector<Corner> out;
  for (const std::string& name : split(spec, ','))
    out.push_back(corner(name));
  return out;
}

}  // namespace pim
