// One-call model construction: characterize -> fit -> composition-
// calibrate, with an optional coefficient-file cache so repeated tool
// runs skip the (simulation-heavy) characterization, and one resident
// tier that keeps each calibrated model in RAM for the process lifetime.
#pragma once

#include <memory>
#include <string>

#include "charlib/characterize.hpp"
#include "charlib/fit.hpp"
#include "models/proposed.hpp"
#include "sta/composition.hpp"

namespace pim {

/// Returns the fully calibrated coefficient set for `base` at `corner`:
/// runs the characterize -> fit -> calibrate flow against the derated
/// descriptor from corner_technology(base, corner), applies the corner's
/// leakage derate to the fitted leakage coefficients, and folds the
/// corner id into the content-cache key so each corner caches
/// independently (equal-content bases share fits). A built-in node is
/// `calibrated_fit(technology(node), Corner{})`. When `cache_path` is
/// non-empty and holds a parseable fit for the same node, it is returned
/// directly; otherwise the full flow runs and (when a path was given) the
/// result is saved there. That coefficient-file tier only applies to the
/// nominal corner (.pimfit files carry no corner identity). Counts
/// corner.<name>.fit.{hit,compute} obs metrics.
TechnologyFit calibrated_fit(const Technology& base, const Corner& corner,
                             const std::string& cache_path = "",
                             const CharacterizationOptions& characterization = {},
                             const CompositionOptions& composition = {});

/// The calibrated model for `base` at `corner`, held resident in process
/// RAM: the ProposedModel bound to corner_technology(base, corner) over
/// the calibrated_fit coefficients (its fit() is that fit, its
/// provenance() that fit's content-cache key). This is the only
/// process-wide memo of calibrated coefficients and the only code that
/// builds a ProposedModel from a resolved fit. It is keyed by the fit's
/// content-cache key, so two calls share an instance exactly when they
/// would resolve the same fit; concurrent cold misses keep the first
/// instance inserted. Where calibrated_fit's coefficient-file tier
/// applies (nominal corner, non-empty `cache_path`), the path joins the
/// key and the entry remembers the file's stamp (size and mtime in ns, or
/// absent): every hit stats the file again, and a changed stamp is a
/// miss that resolves the fit anew and replaces the entry, so a rewritten
/// file takes effect on the next call. A call that names no file is
/// served by a file-resolved entry of the same fit key when there is no
/// entry of its own, so a server warmed by loading a coefficient file
/// answers requests that name none without a refit. A warm call skips the store read,
/// the payload parse, the model build and its coefficient hash, but keeps
/// every observable contract of the store path — corner.<name>.fit.hit is
/// counted and the fit key is published to the enclosing provenance scope
/// — so downstream manifests are identical whichever tier served the fit.
/// A memo hit additionally counts model.resident.hit. The memo is
/// bypassed entirely (reads and inserts) while cache mode is `off` or the
/// fault harness is armed, mirroring the store's own bypass. The model is
/// immutable and safe to share across threads; it is the hot path a
/// long-running server (pimd) evaluates millions of links through.
std::shared_ptr<const ProposedModel> resident_model(
    const Technology& base, const Corner& corner, const std::string& cache_path = "",
    const CharacterizationOptions& characterization = {},
    const CompositionOptions& composition = {});

/// Drops every resident model (tests / explicit invalidation flows).
void clear_resident_fits();

}  // namespace pim
