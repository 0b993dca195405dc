// Test-only SPEF-lite reader: the oracle tests compare write_spef
// (sta/spef.hpp) against. It parses exactly the subset write_spef emits
// and accumulates per-section totals. No production path reads SPEF, so
// the reader lives with the tests that use it.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pim {

/// Entry counts and totals of a SPEF-lite text.
struct SpefDigest {
  int nets = 0;
  int res_entries = 0;
  int cap_entries = 0;
  double total_res = 0.0;         ///< [ohm]
  double total_ground_cap = 0.0;  ///< [F]
  double total_couple_cap = 0.0;  ///< [F]
};

/// Parses the subset write_spef emits and accumulates totals; throws
/// pim::Error on malformed input.
inline SpefDigest digest_spef(const std::string& text) {
  SpefDigest digest;
  std::istringstream is(text);
  std::string line;
  enum class Section { None, Cap, Res } section = Section::None;
  int lineno = 0;
  bool in_net = false;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view t = trim(line);
    if (t.empty()) continue;
    auto syntax = [&](const std::string& msg) {
      fail("spef: line " + std::to_string(lineno) + ": " + msg);
    };
    if (starts_with(t, "*D_NET")) {
      require(!in_net, "spef: nested *D_NET");
      in_net = true;
      ++digest.nets;
      section = Section::None;
    } else if (t == "*CAP") {
      if (!in_net) syntax("*CAP outside a net");
      section = Section::Cap;
    } else if (t == "*RES") {
      if (!in_net) syntax("*RES outside a net");
      section = Section::Res;
    } else if (t == "*END") {
      if (!in_net) syntax("*END outside a net");
      in_net = false;
      section = Section::None;
    } else if (t[0] == '*') {
      section = Section::None;  // header or *CONN content
    } else if (section == Section::Cap) {
      const auto tokens = split_whitespace(t);
      if (tokens.size() == 3) {
        digest.total_ground_cap += parse_double(tokens[2]) * 1e-15;
      } else if (tokens.size() == 4) {
        digest.total_couple_cap += parse_double(tokens[3]) * 1e-15;
      } else {
        syntax("malformed *CAP entry");
      }
      ++digest.cap_entries;
    } else if (section == Section::Res) {
      const auto tokens = split_whitespace(t);
      if (tokens.size() != 4) syntax("malformed *RES entry");
      digest.total_res += parse_double(tokens[3]);
      ++digest.res_entries;
    }
  }
  require(!in_net, "spef: unterminated *D_NET");
  return digest;
}

}  // namespace pim
