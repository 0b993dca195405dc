// Text serialization of a Technology descriptor — the library's analog of
// LEF/ITF technology inputs — in block text (util/blocktext.hpp,
// docs/formats.md):
//
//   technology "90nm" {
//     vdd 1.2
//     nmos {
//       vth 0.32
//       ...
//     }
//     ...
//   }
//
// All values are SI, at 12 significant digits. Round-tripping a built-in
// technology reproduces it exactly to printed precision.
#pragma once

#include <string>
#include <vector>

#include "cache/manifest.hpp"
#include "tech/technology.hpp"

namespace pim {

/// Serializes `tech` to the tech-file text format.
std::string write_techfile(const Technology& tech);

/// Parses a tech file; throws pim::Error (io_parse) naming the line of any
/// malformed, missing, unknown or duplicate field.
Technology parse_techfile(const std::string& text);

/// File convenience wrappers.
void save_techfile(const Technology& tech, const std::string& path);
Technology load_techfile(const std::string& path);

/// SHA-256 of the canonical tech-file serialization of `tech` — the
/// content identity fit cache keys and provenance facets carry. Memoized
/// by address for registry-stable instances (register_stable_technology);
/// any other instance serializes and hashes fresh on every call. Timed
/// under cache.key.tech_hash either way, so reports show how much the
/// memo saves.
std::string technology_content_hash(const Technology& tech);

/// Marks `tech` as address-stable for the life of the process (registry
/// entries — technology(), corner_technology(), technology_from_spec()
/// all register theirs), which lets technology_content_hash memoize by
/// pointer without risking a dangling-address collision against a
/// stack-allocated descriptor that happens to reuse the slot.
void register_stable_technology(const Technology* tech);

/// True when `spec` names a built-in node ("45nm" / "45") rather than a
/// tech-file path.
bool is_builtin_tech_spec(const std::string& spec);

/// Resolves a tech spec — a built-in node name or a tech-file path — to
/// a stable Technology reference. File specs are re-read on every call
/// so on-disk edits are observed immediately (the invalidation flow
/// depends on this); parsing is memoized by content hash, and the
/// returned reference stays valid for the life of the process.
const Technology& technology_from_spec(const std::string& spec);

/// The provenance facets an edit to `base` can change: for every corner
/// in its scenario set, the per-corner derated tech-content facet (type
/// "tech", name "<tech>@<corner>") and the corner-identity facet (type
/// "corner", name "<corner>"). Mirrors exactly what
/// calibrated_fit records into its manifests, so handing this
/// list for the edited descriptor to cache::dirty_cone() stales every
/// artifact whose inputs the edit actually touched: a base-parameter
/// edit shifts every per-corner derated hash, a single-corner retune
/// shifts only that corner's.
std::vector<cache::Facet> technology_facets(const Technology& base);

}  // namespace pim
