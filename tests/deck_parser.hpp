// Test-only SPICE-deck reader: the round-trip oracle for write_deck
// (spice/deck.hpp). It reads back exactly the subset write_deck emits:
// comment lines (*), `.model` cards for the alpha-power MOSFET
// parameters, grounded V sources (DC or PWL), R/C/M element cards, and
// `.end`. No production path reads decks, so the reader lives with the
// tests that use it.
#pragma once

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spice/circuit.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pim {

class DeckParser {
 public:
  explicit DeckParser(const std::string& text) : input_(text) {}

  Circuit parse() {
    std::istringstream is(input_);
    std::string line;
    bool ended = false;
    while (std::getline(is, line)) {
      ++lineno_;
      const std::string_view t = trim(line);
      if (t.empty() || t[0] == '*') continue;
      require(!ended, err("content after .end"), ErrorCode::io_parse);
      if (starts_with(t, ".model")) {
        parse_model(t);
      } else if (t == ".end") {
        ended = true;
      } else {
        switch (std::toupper(static_cast<unsigned char>(t[0]))) {
          case 'V': parse_vsource(t); break;
          case 'R': parse_resistor(t); break;
          case 'C': parse_capacitor(t); break;
          case 'M': parse_mosfet(t); break;
          default: fail(err("unknown card '" + std::string(t) + "'"), ErrorCode::io_parse);
        }
      }
    }
    require(ended, "deck: missing .end", ErrorCode::io_parse);
    return std::move(circuit_);
  }

 private:
  std::string err(const std::string& msg) const {
    return "deck: line " + std::to_string(lineno_) + ": " + msg;
  }

  NodeId node(const std::string& name) {
    if (name == "0") return circuit_.ground();
    const auto it = nodes_.find(name);
    if (it != nodes_.end()) return it->second;
    const NodeId id = circuit_.add_node(name);
    nodes_.emplace(name, id);
    return id;
  }

  // key=value pairs after a fixed token prefix.
  static std::map<std::string, std::string> keyvals(
      const std::vector<std::string>& tokens, size_t from) {
    std::map<std::string, std::string> out;
    for (size_t i = from; i < tokens.size(); ++i) {
      const size_t eq = tokens[i].find('=');
      require(eq != std::string::npos, "deck: expected key=value, got '" + tokens[i] + "'",
              ErrorCode::io_parse);
      out[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
    return out;
  }

  void parse_model(std::string_view line) {
    const auto tokens = split_whitespace(line);
    require(tokens.size() >= 3 && tokens[2] == "alpha_power",
            err("expected '.model <name> alpha_power key=value...'"), ErrorCode::io_parse);
    const auto kv = keyvals(tokens, 3);
    auto need = [&](const char* key) {
      const auto it = kv.find(key);
      require(it != kv.end(), err(std::string("model missing '") + key + "'"),
              ErrorCode::io_parse);
      return it->second;
    };
    MosType type;
    const std::string t = need("type");
    if (t == "nmos") {
      type = MosType::Nmos;
    } else if (t == "pmos") {
      type = MosType::Pmos;
    } else {
      fail(err("model type must be nmos or pmos"), ErrorCode::io_parse);
    }
    MosfetParams p;
    p.vth = parse_double(need("vth"));
    p.k_sat = parse_double(need("k_sat"));
    p.alpha = parse_double(need("alpha"));
    p.k_vdsat = parse_double(need("k_vdsat"));
    p.lambda = parse_double(need("lambda"));
    p.n_sub = parse_double(need("n_sub"));
    p.c_gate = parse_double(need("c_gate"));
    p.c_drain = parse_double(need("c_drain"));
    require(models_.emplace(tokens[1], std::pair{type, p}).second,
            err("duplicate model '" + tokens[1] + "'"), ErrorCode::io_parse);
  }

  void parse_vsource(std::string_view line) {
    const auto tokens = split_whitespace(line);
    require(tokens.size() >= 4, err("V card needs node, 0, and a waveform"),
            ErrorCode::io_parse);
    require(tokens[2] == "0", err("voltage sources must be grounded"), ErrorCode::io_parse);
    const NodeId n = node(tokens[1]);
    if (tokens[3] == "DC") {
      require(tokens.size() == 5, err("DC takes one value"), ErrorCode::io_parse);
      circuit_.add_vsource(n, Waveform::dc(parse_double(tokens[4])));
      return;
    }
    // PWL( t0 v0 t1 v1 ... ) — reassemble and split on parens.
    std::string rest;
    for (size_t i = 3; i < tokens.size(); ++i) rest += tokens[i] + " ";
    const size_t open = rest.find('(');
    const size_t close = rest.rfind(')');
    require(starts_with(trim(rest), "PWL") && open != std::string::npos &&
                close != std::string::npos && close > open,
            err("expected PWL(t v ...)"), ErrorCode::io_parse);
    const auto nums = split_whitespace(rest.substr(open + 1, close - open - 1));
    require(nums.size() >= 2 && nums.size() % 2 == 0, err("PWL needs (t v) pairs"),
            ErrorCode::io_parse);
    std::vector<double> times, values;
    for (size_t i = 0; i < nums.size(); i += 2) {
      times.push_back(parse_double(nums[i]));
      values.push_back(parse_double(nums[i + 1]));
    }
    circuit_.add_vsource(n, Waveform::pwl(std::move(times), std::move(values)));
  }

  void parse_resistor(std::string_view line) {
    const auto tokens = split_whitespace(line);
    require(tokens.size() == 4, err("R card: R<k> a b ohms"), ErrorCode::io_parse);
    circuit_.add_resistor(node(tokens[1]), node(tokens[2]), parse_double(tokens[3]));
  }

  void parse_capacitor(std::string_view line) {
    const auto tokens = split_whitespace(line);
    require(tokens.size() == 4, err("C card: C<k> a b farads"), ErrorCode::io_parse);
    circuit_.add_capacitor(node(tokens[1]), node(tokens[2]), parse_double(tokens[3]));
  }

  void parse_mosfet(std::string_view line) {
    const auto tokens = split_whitespace(line);
    require(tokens.size() == 6, err("M card: M<k> d g s model w=<meters>"),
            ErrorCode::io_parse);
    const auto it = models_.find(tokens[4]);
    require(it != models_.end(), err("unknown model '" + tokens[4] + "'"),
            ErrorCode::io_parse);
    const auto kv = keyvals(tokens, 5);
    const auto w = kv.find("w");
    require(w != kv.end(), err("M card missing w="), ErrorCode::io_parse);
    circuit_.add_mosfet(it->second.first, it->second.second, parse_double(w->second),
                        node(tokens[2]), node(tokens[1]), node(tokens[3]));
  }

  const std::string& input_;
  Circuit circuit_;
  std::map<std::string, NodeId> nodes_;
  std::map<std::string, std::pair<MosType, MosfetParams>> models_;
  int lineno_ = 0;
};

/// Parses a deck produced by write_deck (or hand-written in the same
/// subset); throws pim::Error(io_parse) with a line number on malformed
/// input.
inline Circuit parse_deck(const std::string& text) { return DeckParser(text).parse(); }

}  // namespace pim
