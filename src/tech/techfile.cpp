#include "tech/techfile.hpp"

#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "cache/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/textfile.hpp"

namespace pim {
namespace {

void emit_mosfet(std::ostringstream& os, const char* name, const MosfetParams& p,
                 const char* indent) {
  os << indent << name << " {\n";
  os << indent << "  vth " << format_sig(p.vth, 12) << "\n";
  os << indent << "  k_sat " << format_sig(p.k_sat, 12) << "\n";
  os << indent << "  alpha " << format_sig(p.alpha, 12) << "\n";
  os << indent << "  k_vdsat " << format_sig(p.k_vdsat, 12) << "\n";
  os << indent << "  lambda " << format_sig(p.lambda, 12) << "\n";
  os << indent << "  n_sub " << format_sig(p.n_sub, 12) << "\n";
  os << indent << "  c_gate " << format_sig(p.c_gate, 12) << "\n";
  os << indent << "  c_drain " << format_sig(p.c_drain, 12) << "\n";
  os << indent << "}\n";
}

void emit_layer(std::ostringstream& os, const char* name, const WireLayerGeometry& g,
                const char* indent) {
  os << indent << name << " {\n";
  os << indent << "  width " << format_sig(g.width, 12) << "\n";
  os << indent << "  spacing " << format_sig(g.spacing, 12) << "\n";
  os << indent << "  thickness " << format_sig(g.thickness, 12) << "\n";
  os << indent << "  ild_height " << format_sig(g.ild_height, 12) << "\n";
  os << indent << "  k_dielectric " << format_sig(g.k_dielectric, 12) << "\n";
  os << indent << "}\n";
}

}  // namespace

std::string write_techfile(const Technology& tech) {
  std::ostringstream os;
  os << "technology \"" << tech.name << "\" {\n";
  os << "  vdd " << format_sig(tech.vdd, 12) << "\n";
  os << "  pn_ratio " << format_sig(tech.pn_ratio, 12) << "\n";
  os << "  unit_nmos_width " << format_sig(tech.unit_nmos_width, 12) << "\n";
  os << "  clock_frequency " << format_sig(tech.clock_frequency, 12) << "\n";
  emit_mosfet(os, "nmos", tech.nmos, "  ");
  emit_mosfet(os, "pmos", tech.pmos, "  ");
  os << "  interconnect {\n";
  emit_layer(os, "global", tech.interconnect.global, "    ");
  emit_layer(os, "intermediate", tech.interconnect.intermediate, "    ");
  os << "    barrier_thickness " << format_sig(tech.interconnect.barrier_thickness, 12) << "\n";
  os << "    rho_bulk " << format_sig(tech.interconnect.rho_bulk, 12) << "\n";
  os << "    scattering_coeff " << format_sig(tech.interconnect.scattering_coeff, 12) << "\n";
  os << "  }\n";
  os << "  area {\n";
  os << "    feature_size " << format_sig(tech.area.feature_size, 12) << "\n";
  os << "    contact_pitch " << format_sig(tech.area.contact_pitch, 12) << "\n";
  os << "    row_height " << format_sig(tech.area.row_height, 12) << "\n";
  os << "  }\n";
  if (!tech.corners.empty()) {
    os << "  corners {\n";
    for (const Corner& c : tech.corners.corners()) {
      os << "    " << c.name << " {\n";
      os << "      nmos_strength " << format_sig(c.nmos_strength, 12) << "\n";
      os << "      pmos_strength " << format_sig(c.pmos_strength, 12) << "\n";
      os << "      device_cap " << format_sig(c.device_cap, 12) << "\n";
      os << "      leakage " << format_sig(c.leakage, 12) << "\n";
      os << "      wire_res " << format_sig(c.wire_res, 12) << "\n";
      os << "      wire_cap " << format_sig(c.wire_cap, 12) << "\n";
      os << "      temperature_c " << format_sig(c.temperature_c, 12) << "\n";
      os << "      vdd_scale " << format_sig(c.vdd_scale, 12) << "\n";
      os << "    }\n";
    }
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

namespace {

// Parsed tree: nested blocks of key -> scalar or key -> sub-block.
struct Block {
  std::map<std::string, double> scalars;
  std::map<std::string, Block> blocks;
  std::string label;  // quoted string after the block key, if any
};

class Parser {
 public:
  explicit Parser(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const std::string_view t = trim(line);
      if (!t.empty()) lines_.emplace_back(lineno, std::string(t));
    }
  }

  Block parse_top() {
    pos_ = 0;
    require(!lines_.empty(), "techfile: empty input");
    Block root = parse_block_body("technology");
    require(pos_ == lines_.size(), "techfile: trailing content after top-level block");
    return root;
  }

 private:
  [[noreturn]] void syntax_error(size_t idx, const std::string& msg) const {
    fail("techfile: line " + std::to_string(lines_[idx].first) + ": " + msg);
  }

  // Expects lines_[pos_] to open a block with key `expected_key` (or any
  // key when null); consumes through the matching '}'.
  Block parse_block_body(const char* expected_key) {
    auto& [lineno, text] = lines_[pos_];
    (void)lineno;
    const auto tokens = split_whitespace(text);
    require(tokens.back() == "{", "techfile: expected '{' opening a block");
    if (expected_key != nullptr && tokens.front() != expected_key)
      syntax_error(pos_, "expected block '" + std::string(expected_key) + "'");
    Block block;
    // Optional quoted label between the key and '{'.
    if (tokens.size() == 3) {
      std::string label = tokens[1];
      if (label.size() >= 2 && label.front() == '"' && label.back() == '"')
        label = label.substr(1, label.size() - 2);
      block.label = label;
    }
    ++pos_;
    while (true) {
      require(pos_ < lines_.size(), "techfile: unterminated block");
      const std::string& ln = lines_[pos_].second;
      if (ln == "}") {
        ++pos_;
        return block;
      }
      const auto parts = split_whitespace(ln);
      if (parts.back() == "{") {
        const std::string key = parts.front();
        block.blocks[key] = parse_block_body(nullptr);
      } else if (parts.size() == 2) {
        block.scalars[parts[0]] = parse_double(parts[1]);
        ++pos_;
      } else {
        syntax_error(pos_, "expected 'key value', 'key {', or '}'");
      }
    }
  }

  std::vector<std::pair<int, std::string>> lines_;
  size_t pos_ = 0;
};

double need(const Block& b, const std::string& key) {
  const auto it = b.scalars.find(key);
  require(it != b.scalars.end(), "techfile: missing field '" + key + "'");
  return it->second;
}

const Block& need_block(const Block& b, const std::string& key) {
  const auto it = b.blocks.find(key);
  require(it != b.blocks.end(), "techfile: missing block '" + key + "'");
  return it->second;
}

MosfetParams parse_mosfet(const Block& b) {
  MosfetParams p;
  p.vth = need(b, "vth");
  p.k_sat = need(b, "k_sat");
  p.alpha = need(b, "alpha");
  p.k_vdsat = need(b, "k_vdsat");
  p.lambda = need(b, "lambda");
  p.n_sub = need(b, "n_sub");
  p.c_gate = need(b, "c_gate");
  p.c_drain = need(b, "c_drain");
  return p;
}

WireLayerGeometry parse_layer(const Block& b) {
  WireLayerGeometry g;
  g.width = need(b, "width");
  g.spacing = need(b, "spacing");
  g.thickness = need(b, "thickness");
  g.ild_height = need(b, "ild_height");
  g.k_dielectric = need(b, "k_dielectric");
  return g;
}

double optional(const Block& b, const std::string& key, double fallback) {
  const auto it = b.scalars.find(key);
  return it == b.scalars.end() ? fallback : it->second;
}

// `corners { <name> { nmos_strength 0.85 ... } ... }`. Every factor is
// optional and defaults to nominal (1.0, 25 C), so sparse definitions
// like `ss { nmos_strength 0.85 }` work. Blocks are keyed by corner name,
// so parsed sets come back name-sorted; a `nominal` corner is required
// because the CLI default spec resolves to it.
ScenarioSet parse_corners(const Block& b) {
  std::vector<Corner> corners;
  for (const auto& [name, cb] : b.blocks) {
    Corner c;
    c.name = name;
    c.nmos_strength = optional(cb, "nmos_strength", 1.0);
    c.pmos_strength = optional(cb, "pmos_strength", 1.0);
    c.device_cap = optional(cb, "device_cap", 1.0);
    c.leakage = optional(cb, "leakage", 1.0);
    c.wire_res = optional(cb, "wire_res", 1.0);
    c.wire_cap = optional(cb, "wire_cap", 1.0);
    c.temperature_c = optional(cb, "temperature_c", 25.0);
    c.vdd_scale = optional(cb, "vdd_scale", 1.0);
    corners.push_back(c);
  }
  ScenarioSet set{corners};
  require(set.find("nominal") != nullptr,
          "techfile: corners block must define a 'nominal' corner");
  return set;
}

}  // namespace

Technology parse_techfile(const std::string& text) {
  Parser parser(text);
  const Block root = parser.parse_top();

  Technology t;
  require(!root.label.empty(), "techfile: technology block needs a name label");
  t.name = root.label;
  t.node = tech_node_from_name(t.name);
  t.vdd = need(root, "vdd");
  t.pn_ratio = need(root, "pn_ratio");
  t.unit_nmos_width = need(root, "unit_nmos_width");
  t.clock_frequency = need(root, "clock_frequency");
  t.nmos = parse_mosfet(need_block(root, "nmos"));
  t.pmos = parse_mosfet(need_block(root, "pmos"));
  const Block& ic = need_block(root, "interconnect");
  t.interconnect.global = parse_layer(need_block(ic, "global"));
  t.interconnect.intermediate = parse_layer(need_block(ic, "intermediate"));
  t.interconnect.barrier_thickness = need(ic, "barrier_thickness");
  t.interconnect.rho_bulk = need(ic, "rho_bulk");
  t.interconnect.scattering_coeff = need(ic, "scattering_coeff");
  const Block& area = need_block(root, "area");
  t.area.feature_size = need(area, "feature_size");
  t.area.contact_pitch = need(area, "contact_pitch");
  t.area.row_height = need(area, "row_height");
  const auto corners_it = root.blocks.find("corners");
  if (corners_it != root.blocks.end()) t.corners = parse_corners(corners_it->second);
  return t;
}

void save_techfile(const Technology& tech, const std::string& path) {
  write_text_file(path, write_techfile(tech), "save_techfile");
}

Technology load_techfile(const std::string& path) {
  return parse_techfile(read_text_file(path, "load_techfile"));
}

namespace {

// Guards both the stable-address set and the hash memo; content hashing
// itself runs outside the lock.
std::mutex& stable_mutex() {
  static std::mutex m;
  return m;
}

std::set<const Technology*>& stable_addresses() {
  static std::set<const Technology*> s;
  return s;
}

std::map<const Technology*, std::string>& hash_memo() {
  static std::map<const Technology*, std::string> m;
  return m;
}

}  // namespace

void register_stable_technology(const Technology* tech) {
  std::lock_guard<std::mutex> lock(stable_mutex());
  stable_addresses().insert(tech);
}

std::string technology_content_hash(const Technology& tech) {
  static obs::Timer& timer = obs::registry().timer("cache.key.tech_hash");
  obs::ScopedTimer span(timer);
  {
    std::lock_guard<std::mutex> lock(stable_mutex());
    const auto it = hash_memo().find(&tech);
    if (it != hash_memo().end()) return it->second;
  }
  // The corner set is deliberately excluded from the content identity:
  // each corner's factors are tracked by its own `corner` facet
  // (Corner::cache_id), and derated descriptors inherit the base's
  // `corners` member verbatim. Hashing it here would make a one-corner
  // retune shift every corner's tech facet and dirty the whole cache
  // instead of just that corner's cone.
  std::string hash;
  if (tech.corners.empty()) {
    hash = cache::sha256_hex(write_techfile(tech));
  } else {
    Technology stripped = tech;
    stripped.corners = ScenarioSet();
    hash = cache::sha256_hex(write_techfile(stripped));
  }
  std::lock_guard<std::mutex> lock(stable_mutex());
  // Memoize only addresses a registry vouched for: a stack-allocated
  // descriptor can die and a different one reuse its address, so caching
  // by arbitrary pointer would serve the wrong hash.
  if (stable_addresses().count(&tech) > 0) hash_memo().emplace(&tech, hash);
  return hash;
}

bool is_builtin_tech_spec(const std::string& spec) {
  for (TechNode n : all_tech_nodes()) {
    const std::string full = tech_node_name(n);
    if (spec == full || spec + "nm" == full) return true;
  }
  return false;
}

const Technology& technology_from_spec(const std::string& spec) {
  if (is_builtin_tech_spec(spec)) return technology(tech_node_from_name(spec));
  // A tech-file path: re-read the bytes on every call so an edit is
  // observed the moment it lands (cache invalidation diffs depend on
  // this), but parse once per distinct content.
  std::ifstream in(spec);
  require(in.good(),
          "technology_from_spec: '" + spec +
              "' is neither a built-in node nor a readable tech file",
          ErrorCode::bad_input);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string hash = cache::sha256_hex(text);
  static std::mutex mutex;
  // std::map nodes never move, so returned references stay valid for the
  // life of the process.
  static std::map<std::string, Technology> registry;
  std::lock_guard<std::mutex> lock(mutex);
  const auto it = registry.find(hash);
  if (it != registry.end()) return it->second;
  Technology& fresh = registry.emplace(hash, parse_techfile(text)).first->second;
  register_stable_technology(&fresh);
  return fresh;
}

std::vector<cache::Facet> technology_facets(const Technology& base) {
  std::vector<cache::Facet> out;
  for (const Corner& corner : base.scenario_set().corners()) {
    out.push_back({"tech", base.name + "@" + corner.name,
                   technology_content_hash(base.derated(corner))});
    out.push_back({"corner", corner.name, corner.cache_id()});
  }
  return out;
}

}  // namespace pim
