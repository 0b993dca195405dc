#include "tech/techfile.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <set>

#include "cache/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/blocktext.hpp"
#include "util/error.hpp"
#include "util/textfile.hpp"

namespace pim {

// Field bindings of the .tech block text (util/blocktext.hpp), in file
// order; the writer and the parser share them.

template <typename B>
void bind(B& b, MosfetParams& p) {
  b.field("vth", p.vth);
  b.field("k_sat", p.k_sat);
  b.field("alpha", p.alpha);
  b.field("k_vdsat", p.k_vdsat);
  b.field("lambda", p.lambda);
  b.field("n_sub", p.n_sub);
  b.field("c_gate", p.c_gate);
  b.field("c_drain", p.c_drain);
}

template <typename B>
void bind(B& b, WireLayerGeometry& g) {
  b.field("width", g.width);
  b.field("spacing", g.spacing);
  b.field("thickness", g.thickness);
  b.field("ild_height", g.ild_height);
  b.field("k_dielectric", g.k_dielectric);
}

template <typename B>
void bind(B& b, InterconnectTech& ic) {
  b.block("global", ic.global);
  b.block("intermediate", ic.intermediate);
  b.field("barrier_thickness", ic.barrier_thickness);
  b.field("rho_bulk", ic.rho_bulk);
  b.field("scattering_coeff", ic.scattering_coeff);
}

template <typename B>
void bind(B& b, AreaTech& a) {
  b.field("feature_size", a.feature_size);
  b.field("contact_pitch", a.contact_pitch);
  b.field("row_height", a.row_height);
}

// Every factor is optional and defaults to nominal (1.0, 25 C), so a
// sparse corner may set just the factors it derates.
template <typename B>
void bind(B& b, Corner& c) {
  b.optional("nmos_strength", c.nmos_strength);
  b.optional("pmos_strength", c.pmos_strength);
  b.optional("device_cap", c.device_cap);
  b.optional("leakage", c.leakage);
  b.optional("wire_res", c.wire_res);
  b.optional("wire_cap", c.wire_cap);
  b.optional("temperature_c", c.temperature_c);
  b.optional("vdd_scale", c.vdd_scale);
}

// Everything but the name (the block label) and the corner set, which is
// exactly the content identity technology_content_hash covers.
template <typename B>
void bind(B& b, Technology& t) {
  b.field("vdd", t.vdd);
  b.field("pn_ratio", t.pn_ratio);
  b.field("unit_nmos_width", t.unit_nmos_width);
  b.field("clock_frequency", t.clock_frequency);
  b.block("nmos", t.nmos);
  b.block("pmos", t.pmos);
  b.block("interconnect", t.interconnect);
  b.block("area", t.area);
}

namespace {

constexpr int kDigits = 12;

// The body of `technology "<name>" {}`: the descriptor, then its techfile
// corners as `corners { <name> { ... } ... }`, omitted when there are none.
struct TechBlock {
  Technology tech;
  std::vector<Corner> corners;
};

template <typename B>
void bind(B& b, TechBlock& v) {
  bind(b, v.tech);
  b.named_blocks("corners", v.corners);
}

// `technology "<name>" {`, the fields `body` binds, `}`.
template <typename T>
std::string technology_block(const std::string& name, const T& body) {
  blocktext::Writer w(kDigits);
  w.block("technology", body, &name);
  return w.finish();
}

}  // namespace

std::string write_techfile(const Technology& tech) {
  return technology_block(tech.name, TechBlock{tech, tech.corners.corners()});
}

Technology parse_techfile(const std::string& text) {
  blocktext::Reader r(text, "techfile");
  TechBlock block;
  r.block("technology", block, &block.tech.name);
  r.finish();
  block.tech.node = tech_node_from_name(block.tech.name);
  // Parsed sets come back name-sorted; a `nominal` corner is required
  // because the CLI default spec resolves to it.
  if (!block.corners.empty()) {
    std::ranges::sort(block.corners, {}, &Corner::name);
    block.tech.corners = ScenarioSet(std::move(block.corners));
    require(block.tech.corners.find("nominal") != nullptr,
            "techfile: corners block must define a 'nominal' corner",
            ErrorCode::io_parse);
  }
  return std::move(block.tech);
}

void save_techfile(const Technology& tech, const std::string& path) {
  write_text_file(path, write_techfile(tech), "save_techfile");
}

Technology load_techfile(const std::string& path) {
  return parse_techfile(read_text_file(path, "load_techfile"));
}

namespace {

// The stable-address set and the hash memo, under one mutex; content
// hashing itself runs outside the lock.
struct HashMemo {
  std::mutex mutex;
  std::set<const Technology*> stable;
  std::map<const Technology*, std::string> hashes;
};

HashMemo& hash_memo() {
  static HashMemo memo;
  return memo;
}

}  // namespace

void register_stable_technology(const Technology* tech) {
  HashMemo& memo = hash_memo();
  std::lock_guard<std::mutex> lock(memo.mutex);
  memo.stable.insert(tech);
}

std::string_view technology_content_hash_view(const Technology& tech,
                                              std::string& scratch) {
  static obs::Timer& timer = obs::registry().timer("cache.key.tech_hash");
  obs::ScopedTimer span(timer);
  HashMemo& memo = hash_memo();
  {
    std::lock_guard<std::mutex> lock(memo.mutex);
    const auto it = memo.hashes.find(&tech);
    if (it != memo.hashes.end()) return it->second;
  }
  // The corner set is deliberately excluded from the content identity:
  // each corner's factors are tracked by its own `corner` facet
  // (Corner::cache_id), and derated descriptors inherit the base's
  // `corners` member verbatim. Hashing it here would make a one-corner
  // retune shift every corner's tech facet and dirty the whole cache
  // instead of just that corner's cone.
  scratch = cache::sha256_hex(technology_block(tech.name, tech));
  std::lock_guard<std::mutex> lock(memo.mutex);
  // Memoize only addresses a registry vouched for: a stack-allocated
  // descriptor can die and a different one reuse its address, so caching
  // by arbitrary pointer would serve the wrong hash. Map nodes never
  // move, so a view of a memoized hash stays valid.
  if (memo.stable.count(&tech) > 0)
    return memo.hashes.emplace(&tech, scratch).first->second;
  return scratch;
}

std::string technology_content_hash(const Technology& tech) {
  std::string scratch;
  return std::string(technology_content_hash_view(tech, scratch));
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
  require(std::ifstream(spec).good(),
          "technology_from_spec: '" + spec +
              "' is neither a built-in node nor a readable tech file",
          ErrorCode::bad_input);
  const std::string text = read_text_file(spec, "technology_from_spec");
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
