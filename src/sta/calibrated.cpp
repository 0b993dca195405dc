#include "sta/calibrated.hpp"

#include <sys/stat.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>

#include "cache/memoize.hpp"
#include "charlib/coeffs_io.hpp"
#include "deadline/deadline.hpp"
#include "obs/metrics.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"

namespace pim {

// The fit's cache payload is its .pimfit text.
template <>
struct cache::Payload<TechnologyFit> {
  static std::string encode(const TechnologyFit& fit) { return write_fit(fit); }
  static TechnologyFit decode(const std::string& text) { return parse_fit(text); }
};

namespace {

// Everything that determines a calibrated fit: the technology content
// (as the SHA-256 of its canonical tech-file serialization — a parameter
// tweak changes the bytes and hence the key), the corner identity, plus
// every characterization and composition knob. The tech and corner enter
// as provenance facets, so the manifest records exactly the identities
// the key covers; the tech facet is named per corner ("<tech>@<corner>")
// because the derated descriptor is the actual input — retuning one
// corner must not dirty the others' fits. The corner id covers its
// factors at full precision, so retuning a corner re-keys its fits even
// though the derated tech hash already differs. See docs/caching.md.
cache::CacheKey fit_cache_key(const Technology& tech, const Corner& corner,
                              const CharacterizationOptions& copt,
                              const CompositionOptions& compt) {
  cache::KeyBuilder kb("fit");
  kb.facet("tech", tech.name + "@" + corner.name, technology_content_hash(tech));
  kb.facet("corner", corner.name, corner.cache_id());
  kb.field("char.slew_axis", copt.slew_axis);
  kb.field("char.fanout_axis", copt.fanout_axis);
  kb.field("char.drives", copt.drives);
  kb.field("char.inverters", copt.inverters);
  kb.field("char.buffers", copt.buffers);
  kb.field("char.dt_max", copt.dt_max);
  kb.field("char.sweep_quorum", copt.sweep_quorum);
  kb.field("comp.drives", compt.drives);
  kb.field("comp.segment_lengths", compt.segment_lengths);
  kb.field("comp.input_slews", compt.input_slews);
  kb.field("comp.chain_lengths", compt.chain_lengths);
  kb.field("comp.layer", static_cast<int>(compt.layer));
  kb.field("comp.signoff.pi_per_segment", compt.signoff.pi_per_segment);
  kb.field("comp.signoff.aggressors", static_cast<int>(compt.signoff.aggressors));
  kb.field("comp.signoff.dt", compt.signoff.dt);
  kb.field("comp.signoff.window_margin", compt.signoff.window_margin);
  return kb.finish();
}

void count_corner(const Corner& corner, const char* event) {
  obs::registry().counter("corner." + corner.name + ".fit." + event).add(1);
}

// A resolved fit and the content-cache key it resolved under — the key
// the resident tier is keyed on and the provenance its model carries.
struct ResolvedFit {
  TechnologyFit fit;
  cache::CacheKey key;
};

TechnologyFit compute_fit(const Technology& tech, const Corner& corner,
                          const CharacterizationOptions& characterization,
                          const CompositionOptions& composition) {
  log_info("calibrated_fit: characterizing ", tech.name, " at corner '", corner.name,
           "' (this runs transistor-level sims)");
  count_corner(corner, "compute");
  const CellLibrary library = characterize_library(tech, characterization);
  // A deadline/cancel stop during characterization yields a
  // neighbor-patched, biased library. Charlib flows have partial
  // semantics for it; a calibrated fit does not — and the cache key
  // carries no deadline state, so storing a fit regressed from patched
  // tables would poison warm full-budget runs. Refuse with the typed
  // stop error instead (docs/robustness.md: flows without partial
  // semantics surface deadline_exceeded/cancelled). memoize's scope
  // unwinds with the exception, so nothing is cached or manifested.
  if (library.partial()) {
    const deadline::StopReason reason = library.stop_reason();
    count_corner(corner, "truncated");
    throw Error("calibrated_fit: characterization of " + tech.name + " at corner '" +
                    corner.name + "' was truncated (" +
                    deadline::stop_reason_name(reason) +
                    "); refusing to fit or cache biased coefficients",
                deadline::error_code_for(reason));
  }
  TechnologyFit fit = calibrate_composition(tech, fit_technology(tech, library), composition);
  // Leakage is exponential in threshold voltage, so it cannot be derived
  // from the strength/cap derates; corners carry it as an explicit factor
  // applied to the fitted coefficients (x1.0 exactly at nominal).
  fit.leakage.n0 *= corner.leakage;
  fit.leakage.n1 *= corner.leakage;
  fit.leakage.p0 *= corner.leakage;
  fit.leakage.p1 *= corner.leakage;
  return fit;
}

// ---------------------------------------------------------------- residency

// A coefficient file as the resident tier last saw it: its size and
// modification time in ns, or absent.
struct FileStamp {
  bool present = false;
  int64_t size = 0;
  int64_t mtime_ns = 0;
  bool operator==(const FileStamp&) const = default;
};

FileStamp stamp_of(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {true, static_cast<int64_t>(st.st_size),
          static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 + st.st_mtim.tv_nsec};
}

// A resident model and the stamp of the coefficient file it was resolved
// from (absent when no file tier applied).
struct ResidentEntry {
  std::shared_ptr<const ProposedModel> model;
  FileStamp stamp;
};

// The process-wide resident tier: calibrated models keyed by their fit's
// content-cache key (plus the coefficient file, where one applies),
// shared immutably across threads, each carrying that key as its
// provenance. Bounded only by the number of distinct (tech, corner,
// deck-knob, file) combinations a process touches — a model holds one
// ~2 KB fit, so even a server holding every built-in node at every
// corner stays in the tens of kilobytes. The Technology a model binds is
// registry-stable for the process lifetime (corner_technology), so a
// shared model never dangles.
std::mutex& resident_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, ResidentEntry>& resident_models() {
  static std::map<std::string, ResidentEntry> m;
  return m;
}

ResolvedFit resolve_fit(const Technology& base, const Corner& corner,
                        const std::string& cache_path,
                        const CharacterizationOptions& characterization,
                        const CompositionOptions& composition) {
  const Technology& tech = corner_technology(base, corner);
  // Facets recorded by fit_cache_key (tech content, corner, deck params)
  // become the entry's manifest; `key` keeps the key for the caller.
  cache::CacheKey key;
  const auto make_key = [&] {
    return key = fit_cache_key(tech, corner, characterization, composition);
  };
  // The coefficient-file tier carries no corner identity, so it only
  // serves (and is only refreshed by) the nominal corner.
  const bool file_tier = !cache_path.empty() && corner.is_nominal();
  if (file_tier) {
    std::ifstream probe(cache_path);
    if (probe.good()) {
      try {
        TechnologyFit cached = load_fit(cache_path);
        if (cached.node == tech.node) {
          const cache::Tracked scope;
          scope.publish(make_key());
          return {std::move(cached), key};
        }
        log_warn("calibrated_fit: cache '", cache_path, "' holds a different node; refitting");
      } catch (const Error& e) {
        log_warn("calibrated_fit: ignoring unreadable cache '", cache_path, "': ", e.what());
      }
    }
  }
  // Content-addressed tier: keyed by the derated tech content, the
  // corner id, and every deck parameter, so a hit is exactly the fit
  // this flow would recompute.
  TechnologyFit fit = cache::memoize<TechnologyFit>(
      make_key, [&] { return compute_fit(tech, corner, characterization, composition); },
      [&](const TechnologyFit& hit) {
        require(hit.node == tech.node, "calibrated_fit: cached fit node mismatch",
                ErrorCode::io_parse);
        count_corner(corner, "hit");
      });
  if (file_tier) save_fit(fit, cache_path);
  return {std::move(fit), key};
}

}  // namespace

TechnologyFit calibrated_fit(const Technology& base, const Corner& corner,
                             const std::string& cache_path,
                             const CharacterizationOptions& characterization,
                             const CompositionOptions& composition) {
  return resolve_fit(base, corner, cache_path, characterization, composition).fit;
}

std::shared_ptr<const ProposedModel> resident_model(const Technology& base,
                                                    const Corner& corner,
                                                    const std::string& cache_path,
                                                    const CharacterizationOptions& characterization,
                                                    const CompositionOptions& composition) {
  const Technology& tech = corner_technology(base, corner);
  // Mirror the store's bypass semantics: with the cache off or the fault
  // harness armed, injected faults and cache-off runs must exercise the
  // real compute path instead of yesterday's resident copy.
  const bool memo_enabled = cache::mode() != cache::Mode::Off && !fault::armed();
  // Where resolve_fit's file tier applies, the file is part of the slot
  // and its stamp must still match for a hit.
  const bool file_tier = memo_enabled && !cache_path.empty() && corner.is_nominal();
  FileStamp stamp = file_tier ? stamp_of(cache_path) : FileStamp{};
  std::string slot;
  if (memo_enabled) {
    // A local provenance scope absorbs the facets fit_cache_key records,
    // exactly like the store path's scope — the caller's manifest must
    // see the fit as one upstream key, never its raw facets.
    const cache::Tracked scope;
    const cache::CacheKey key = fit_cache_key(tech, corner, characterization, composition);
    slot = file_tier ? key.hex + '\n' + cache_path : key.hex;
    std::lock_guard<std::mutex> lock(resident_mutex());
    // A call that names no file is also served by an entry a file resolved
    // for the same fit key (the first in key order) when it has none of its
    // own, so a server warmed by loading a file answers requests that name
    // none without a refit.
    const auto it = file_tier ? resident_models().find(slot)
                              : resident_models().lower_bound(slot);
    if (it != resident_models().end() && it->first.starts_with(slot) &&
        (!file_tier || it->second.stamp == stamp)) {
      // Same observable side effects as a store hit (minus the store
      // I/O): the corner hit counter and the provenance edge into the
      // enclosing scope.
      count_corner(corner, "hit");
      PIM_COUNT("model.resident.hit");
      scope.publish(key);
      return it->second.model;
    }
  }
  ResolvedFit resolved = resolve_fit(base, corner, cache_path, characterization, composition);
  // resolve_fit saves the fit to a path that held no file: stamp the file
  // it wrote, so the next call is a hit.
  if (file_tier && !stamp.present) stamp = stamp_of(cache_path);
  auto model = std::make_shared<const ProposedModel>(
      tech, std::move(resolved.fit), std::vector<cache::CacheKey>{resolved.key});
  if (!memo_enabled) return model;
  // An entry with this stamp wins — the first writer after concurrent
  // cold misses, or the thread that already replaced a stale entry — so
  // racing callers share one instance; an entry with another stamp is
  // replaced.
  std::lock_guard<std::mutex> lock(resident_mutex());
  ResidentEntry& entry = resident_models()[slot];
  if (entry.model == nullptr || entry.stamp != stamp) entry = {std::move(model), stamp};
  return entry.model;
}

void clear_resident_fits() {
  std::lock_guard<std::mutex> lock(resident_mutex());
  resident_models().clear();
}

}  // namespace pim
