// pim::api — the stable, single-include facade over the library.
//
// Everything a front end (the pim CLI, a notebook binding, a driver
// script) needs is behind versioned request/result structs and functions
// returning pim::Expected<T>:
//
//   pim::api::YieldRequest req;
//   req.link.tech = "65nm";
//   req.link.length_mm = 5.0;
//   auto result = pim::api::run_yield(req);
//   if (!result) { /* result.error() carries the ErrorCode taxonomy */ }
//
// Contract (docs/api.md):
//  - Every request struct starts with `api_version`; a mismatch against
//    kApiVersion is rejected as bad_input rather than misinterpreted.
//    Additive evolution (new fields with defaults) keeps the version;
//    any change in meaning bumps it.
//  - Results carry plain doubles in display units (ps, mW, um2, mm2) —
//    no pim-internal types leak through this header, so the facade is
//    insulated from internal refactors.
//  - Functions never throw: all failures come back as Expected errors
//    with the pim::ErrorCode taxonomy (bad_input -> exit 2 in the CLI).
//  - Every request carries a `deadline_ms` wall-clock budget (0 =
//    unlimited) armed for exactly the duration of the call. Flows with a
//    sound partial semantics (yield, charlib, synthesis) degrade to a
//    `partial = true` result; the rest return a deadline_exceeded /
//    cancelled error. Reports and ledger records still flush either way
//    (the CLI maps both to exit code 5 — docs/robustness.md).
//  - Flows behind the facade consult the content-addressed result cache
//    (docs/caching.md); warm calls are bit-identical to cold ones.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "util/expected.hpp"
#include "util/version.hpp"

namespace pim::api {

/// Version of the request/result structs in this header. The number
/// itself lives in util/version.hpp so artifact stamping (ledger, bench
/// harness) can read it without pulling in the facade.
inline constexpr int kApiVersion = kApiVersionNumber;

// ---------------------------------------------------------------------------
// Shared request pieces
// ---------------------------------------------------------------------------

/// One point-to-point wire plus its repeaters — the unit the paper's
/// models evaluate. Used by the link-level requests below.
struct LinkSpec {
  std::string tech;          ///< "90nm" ... "16nm", or a .tech file path
  double length_mm = 0.0;    ///< wire length [mm]; must be positive
  std::string style = "SS";  ///< "SS", "DS", or "SH" (docs/cli.md)
  double input_slew_ps = 100.0;
  int drive = 12;            ///< repeater drive strength
  int repeaters = 0;         ///< 0 = one per mm (at least one)
  std::string coeffs_path;   ///< optional .pimfit file cache (load-or-save)
  std::string corner;        ///< process corner name; "" = nominal (docs/corners.md)
};

// ---------------------------------------------------------------------------
// Technology + characterization
// ---------------------------------------------------------------------------

struct TechfileRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  std::string tech;
};
struct TechfileResult {
  std::string text;  ///< canonical tech-file serialization
};
Expected<TechfileResult> run_techfile(const TechfileRequest& request);

struct CharlibRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  std::string tech;
  std::vector<int> drives;  ///< empty = characterization defaults
  bool want_fit = false;    ///< also fit + calibrate the coefficient tables
  std::string corner;       ///< process corner to characterize at; "" = nominal
};
struct CharlibResult {
  std::string liberty_text;  ///< Liberty-lite library of the cells
  std::string fit_text;      ///< coefficient tables (when want_fit)
  /// True when a deadline/cancel stop truncated a characterization
  /// sweep: the affected tables were neighbor-patched (quorum
  /// permitting), so values are usable but biased.
  bool partial = false;
};
Expected<CharlibResult> run_charlib(const CharlibRequest& request);

struct FitRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  std::string tech;
  std::string coeffs_path;  ///< optional .pimfit file cache (load-or-save)
  std::string corner;       ///< process corner to calibrate at; "" = nominal
};
struct FitResult {
  std::string fit_text;  ///< canonical coefficient-table serialization
};
Expected<FitResult> run_fit(const FitRequest& request);

// ---------------------------------------------------------------------------
// Link-level flows
// ---------------------------------------------------------------------------

struct LinkEvalRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;
  bool golden = false;  ///< also run the transistor-level signoff
};
struct LinkEvalResult {
  std::string tech_name;   ///< display name, e.g. "65nm"
  std::string style_name;  ///< display name of the spacing style
  int repeaters = 0;  ///< resolved repeater count (after the 0 default)
  double miller_factor = 0.0;
  double delay_ps = 0.0;
  double output_slew_ps = 0.0;
  double power_mw = 0.0;
  double area_um2 = 0.0;
  bool has_golden = false;
  double golden_delay_ps = 0.0;
  double golden_slew_ps = 0.0;
  uint64_t golden_nodes = 0;
  double model_error_pct = 0.0;  ///< (model - golden) / golden * 100
};
Expected<LinkEvalResult> run_evaluate(const LinkEvalRequest& request);

struct BufferRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;         ///< drive/repeaters ignored — the search picks them
  double weight = 0.6;   ///< cost = delay^w * power^(1-w)
  double budget_ps = 0;  ///< hard delay constraint; 0 = unconstrained
};
struct BufferResult {
  bool feasible = false;
  std::string kind;  ///< "INV" or "BUF"
  int drive = 0;
  int repeaters = 0;
  double miller_factor = 0.0;
  long evaluations = 0;
  double delay_ps = 0.0;
  double power_mw = 0.0;
  double area_um2 = 0.0;
};
Expected<BufferResult> run_buffer(const BufferRequest& request);

struct YieldRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;
  int samples = 1000;
  uint64_t seed = 2026;
};
struct YieldResult {
  int samples = 0;        ///< surviving samples
  int failed_samples = 0;
  int requested_samples = 0;  ///< the sampling plan the caller asked for
  double nominal_delay_ps = 0.0;
  double mean_delay_ps = 0.0;
  double sigma_delay_ps = 0.0;
  double p90_delay_ps = 0.0;
  double p99_delay_ps = 0.0;
  double yield_at_nominal = 0.0;  ///< fraction in [0, 1]
  /// 95 % binomial confidence halfwidth of yield_at_nominal over the
  /// surviving samples — widens when a partial run completed fewer.
  double yield_ci95 = 0.0;
  /// True when the run was truncated by a deadline/cancel stop: the
  /// statistics cover the completed sample prefix only (deterministic at
  /// any --threads) and the result was not cached.
  bool partial = false;
};
Expected<YieldResult> run_yield(const YieldRequest& request);

struct NoiseRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;  ///< repeaters ignored — noise is per wire segment
};
struct NoiseResult {
  std::string tech_name;
  std::string style_name;
  double golden_peak_mv = 0.0;
  double golden_peak_pct_vdd = 0.0;
  double model_peak_mv = 0.0;
  double model_error_pct = 0.0;
};
Expected<NoiseResult> run_noise(const NoiseRequest& request);

struct TimerRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;
};
struct TimerResult {
  std::string tech_name;
  int repeaters = 0;  ///< resolved repeater count
  double awe_delay_ps = 0.0;
  double awe_slew_ps = 0.0;
  double elmore_delay_ps = 0.0;
  bool partial = false;  ///< library characterization was truncated/patched
};
Expected<TimerResult> run_timer(const TimerRequest& request);

/// Multi-corner signoff of one link: per-corner delay/slack/noise plus
/// the dominating (minimum-slack) corner. The models are calibrated per
/// corner (cached independently; see docs/corners.md).
struct CornersRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;                ///< link.corner is ignored — `corners` decides
  std::string corners = "all";  ///< "all" or a comma list of corner names
  double target_period_ps = 0.0;  ///< slack target; 0 = one clock period
};
struct CornerTimingRow {
  std::string corner;
  double delay_ps = 0.0;
  double output_slew_ps = 0.0;
  double slack_ps = 0.0;
  double noise_peak_mv = 0.0;
};
struct CornersResult {
  std::string tech_name;
  std::string style_name;
  int repeaters = 0;
  double target_period_ps = 0.0;
  std::vector<CornerTimingRow> corners;  ///< in resolution order
  std::string worst_corner;              ///< dominating (minimum-slack) corner
  double worst_slack_ps = 0.0;
};
Expected<CornersResult> run_corners(const CornersRequest& request);

struct ExportRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  LinkSpec link;
  bool want_deck = false;  ///< SPICE deck of the implemented line
  bool want_spef = false;  ///< SPEF parasitics of the wire
};
struct ExportResult {
  std::string deck_text;
  uint64_t deck_nodes = 0;
  std::string spef_text;
};
Expected<ExportResult> run_export(const ExportRequest& request);

// ---------------------------------------------------------------------------
// NoC synthesis
// ---------------------------------------------------------------------------

struct SynthesisRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// On expiry (or SIGINT/SIGTERM cancellation) flows that can degrade
  /// return a partial result with `partial = true`; others come back as
  /// a typed deadline_exceeded/cancelled error (docs/api.md).
  int64_t deadline_ms = 0;
  std::string spec;   ///< "dvopd", "vproc", "mpeg4", "mwd", or a .soc path
  std::string tech;
  std::string model = "proposed";  ///< or "bakoglu" / "pamunuwa"
  bool mesh = false;  ///< regular mesh instead of application-specific
  int rows = 0;       ///< mesh shape; 0 = automatic
  int cols = 0;
  bool want_dot = false;  ///< also render the topology as Graphviz
  std::string coeffs_path;
  /// Corner spec ("all" or a comma list) to size/buffer links against the
  /// worst corner of; "" keeps the single-corner (nominal) flow. Only the
  /// proposed model carries per-corner calibration.
  std::string corners;
};
struct SynthesisResult {
  std::string spec_name;
  std::string tech_name;
  std::string model_name;
  double dynamic_power_mw = 0.0;
  double leakage_power_mw = 0.0;
  double worst_link_delay_ps = 0.0;
  double delay_budget_ps = 0.0;
  double area_mm2 = 0.0;
  int num_links = 0;
  int num_routers = 0;
  double avg_hops = 0.0;
  int max_hops = 0;
  int merges_applied = 0;
  /// True when a deadline/cancel stop ended the optimization early: the
  /// reported architecture is the best feasible sizing found in budget.
  bool partial = false;
  std::string dot_text;  ///< when want_dot
};
Expected<SynthesisResult> run_synthesis(const SynthesisRequest& request);

// ---------------------------------------------------------------------------
// Incremental recomputation: provenance diff + cache administration
// ---------------------------------------------------------------------------

/// Diffs the provenance facets of `tech` (typically an edited tech file)
/// against every recorded cache manifest and partitions the cached
/// artifact graph into the dirty cone (fits, buffering searches,
/// Monte-Carlo runs whose inputs the edit changed, plus everything
/// derived from them) and the reusable remainder. With `apply` the dirty
/// cone is evicted, so the next run recomputes exactly the delta — see
/// docs/caching.md.
struct InvalidateRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  int64_t deadline_ms = 0;
  /// The edited technology: a .tech file path or a built-in node name.
  /// Its per-corner facets define the "new" state manifests diff against.
  std::string tech;
  /// false = report the dirty/reuse partition only; true = also evict
  /// the dirty cone from the cache.
  bool apply = false;
};
struct InvalidateKindRow {
  std::string kind;  ///< artifact kind ("fit", "buffering", "yield", ...)
  int dirty = 0;
  int reuse = 0;
};
struct InvalidateResult {
  int manifests = 0;   ///< provenance records scanned
  int dirty_keys = 0;  ///< stale artifacts (also the cache.dirty.keys metric)
  int reuse_keys = 0;  ///< still-valid artifacts (cache.reuse.keys metric)
  int evicted = 0;     ///< entries removed (apply only)
  bool applied = false;
  std::vector<InvalidateKindRow> kinds;  ///< kind-sorted breakdown
};
Expected<InvalidateResult> run_invalidate(const InvalidateRequest& request);

/// Cache administration: per-kind census, disk prune to a byte budget,
/// and manifest<->entry consistency verification (docs/caching.md).
struct CacheAdminRequest {
  int api_version = kApiVersion;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  int64_t deadline_ms = 0;
  std::string action;        ///< "stats" | "prune" | "verify"
  int64_t budget_bytes = 0;  ///< prune: target total (entry + manifest) bytes
};
struct CacheKindRow {
  std::string kind;
  int64_t entries = 0;
  int64_t payload_bytes = 0;
  int64_t manifest_bytes = 0;
};
struct CacheAdminResult {
  std::string action;
  std::string dir;  ///< the cache root the action ran against
  // stats
  std::vector<CacheKindRow> kinds;  ///< kind-sorted census
  int64_t total_bytes = 0;          ///< entry + manifest bytes across kinds
  // prune
  int64_t scanned_entries = 0;
  int64_t removed_entries = 0;
  int64_t removed_bytes = 0;
  int64_t kept_bytes = 0;
  // verify
  int64_t entries = 0;
  int64_t manifests = 0;
  int64_t orphan_manifests = 0;
  int64_t unmanifested_entries = 0;
  int64_t corrupt_manifests = 0;
  int64_t scrubbed = 0;
};
Expected<CacheAdminResult> run_cache_admin(const CacheAdminRequest& request);

// ---------------------------------------------------------------------------
// The op table
// ---------------------------------------------------------------------------

/// Every facade op, one row each:
///   X(request type, result type, wire op name, run_* entry point)
/// AnyRequest/AnyResult, run_any's dispatch, and the wire codec's op
/// names, decode, and instantiations are all generated from it, so an op
/// is spelled here and nowhere else (docs/api.md, "Adding an op").
#define PIM_API_OPS(X)                                                  \
  X(TechfileRequest, TechfileResult, "techfile", run_techfile)          \
  X(CharlibRequest, CharlibResult, "charlib", run_charlib)              \
  X(FitRequest, FitResult, "fit", run_fit)                              \
  X(LinkEvalRequest, LinkEvalResult, "evaluate", run_evaluate)          \
  X(BufferRequest, BufferResult, "buffer", run_buffer)                  \
  X(YieldRequest, YieldResult, "yield", run_yield)                      \
  X(NoiseRequest, NoiseResult, "noise", run_noise)                      \
  X(TimerRequest, TimerResult, "timer", run_timer)                      \
  X(CornersRequest, CornersResult, "corners", run_corners)              \
  X(ExportRequest, ExportResult, "export", run_export)                  \
  X(SynthesisRequest, SynthesisResult, "synthesis", run_synthesis)      \
  X(InvalidateRequest, InvalidateResult, "invalidate", run_invalidate)  \
  X(CacheAdminRequest, CacheAdminResult, "cache", run_cache_admin)

// Unpacks the table rows into the AnyRequest/AnyResult variants below.
namespace detail {
template <typename Req, typename Res>
struct OpRow {};
template <typename Rows>
struct OpVariants;
template <typename... Req, typename... Res>
struct OpVariants<std::tuple<OpRow<Req, Res>...>> {
  using Requests = std::variant<Req...>;
  using Results = std::variant<Res...>;
};
// Every row expands with a trailing comma, which a braced list accepts.
#define PIM_API_OP_ROW(Req, Res, wire_name, entry) OpRow<Req, Res>{},
using OpRows = decltype(std::tuple{PIM_API_OPS(PIM_API_OP_ROW)});
#undef PIM_API_OP_ROW
}  // namespace detail

/// Throws Error(bad_input) unless `version` is kApiVersion; `who`
/// prefixes the message. Every run_* entry point and the wire decode
/// call this one check.
void check_version(int version, const std::string& who);

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

/// Any single request the facade accepts, in op-table order. Batches
/// hold these; a batch cannot nest another batch (the variant has no
/// BatchRequest member), so the shared-budget semantics below stay one
/// level deep by construction.
using AnyRequest = detail::OpVariants<detail::OpRows>::Requests;

/// The matching result alternatives, index-aligned with AnyRequest.
using AnyResult = detail::OpVariants<detail::OpRows>::Results;

/// Dispatches one AnyRequest to its run_* entry point. The item's own
/// api_version / deadline_ms fields apply exactly as in a direct call.
Expected<AnyResult> run_any(const AnyRequest& request);

/// A heterogeneous batch executed in order under ONE shared wall-clock
/// budget. Per-item outcomes are independent: item 3 failing bad_input
/// does not stop item 4. When the shared budget expires (or the process
/// is cancelled) mid-batch, items already completed keep their results,
/// the in-flight item degrades by its own flow's partial semantics, and
/// every not-yet-started item comes back as a typed deadline_exceeded /
/// cancelled error without starting work — so a batch always returns in
/// bounded time with exactly `items.size()` entries.
struct BatchRequest {
  int api_version = kApiVersion;
  /// Shared budget across ALL items, in milliseconds; 0 = unlimited.
  /// Item-level deadline_ms fields still apply (the tighter one wins
  /// while that item runs).
  int64_t deadline_ms = 0;
  std::vector<AnyRequest> items;
};
struct BatchResult {
  /// One entry per request item, order-preserving.
  std::vector<Expected<AnyResult>> items;
  int failed = 0;         ///< items that came back as errors
  int partial_items = 0;  ///< items whose result carries partial = true
  /// True when the shared budget truncated the batch: at least one item
  /// was skipped or degraded by the deadline/cancel stop.
  bool partial = false;
};
Expected<BatchResult> run_batch(const BatchRequest& request);

}  // namespace pim::api
