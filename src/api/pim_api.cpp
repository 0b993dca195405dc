#include "api/pim_api.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "buffering/optimize.hpp"
#include "cache/invalidate.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "cosi/mesh.hpp"
#include "deadline/deadline.hpp"
#include "obs/metrics.hpp"
#include "cosi/specfile.hpp"
#include "cosi/synthesis.hpp"
#include "cosi/testcases.hpp"
#include "liberty/libertyfile.hpp"
#include "models/baseline.hpp"
#include "models/corners.hpp"
#include "models/proposed.hpp"
#include "obs/trace.hpp"
#include "spice/deck.hpp"
#include "sta/calibrated.hpp"
#include "sta/corners.hpp"
#include "sta/nldm_timer.hpp"
#include "sta/noise.hpp"
#include "sta/signoff.hpp"
#include "sta/spef.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

namespace pim::api {
namespace {

using namespace pim::unit;

// Uniform exception boundary: the facade never throws — every failure
// comes back as an Expected error carrying the ErrorCode taxonomy.
//
// Each run_* call is also a deadline scope: the request's deadline_ms
// budget is armed on the calling thread for exactly the duration of the
// body (nested scopes keep the tighter deadline); on exit the
// deadline.remaining_ns gauge is force-set so the ledger records how
// much budget a truncated run had left.
//
// The request's api_version is checked inside the boundary, and the body
// receives the entry-point name `who` for its own error messages.
template <typename R, typename Req, typename F>
Expected<R> guarded(const char* who, const Req& request, F&& body) {
  try {
    deadline::Scope budget(request.deadline_ms);
    check_version(request.api_version, who);
    return body(who);
  } catch (const Error& e) {
    return Expected<R>(e.with_context(std::string("in pim::api::") + who));
  } catch (const std::exception& e) {
    return Expected<R>(
        Error(std::string(who) + ": " + e.what(), ErrorCode::internal));
  }
}

// The op table's row for request type Req: its result type, its entry
// point, and the entry point's name, which error contexts cite ("in
// pim::api::run_cache_admin") and which need not follow from the wire op
// name.
template <typename Req>
struct Op;
#define PIM_API_ENTRY(Req, Res, wire_name, entry)                            \
  template <>                                                               \
  struct Op<Req> {                                                          \
    using Result = Res;                                                     \
    static constexpr const char* entry_name = #entry;                       \
    static Expected<Res> run(const Req& request) { return entry(request); } \
  };
PIM_API_OPS(PIM_API_ENTRY)
#undef PIM_API_ENTRY

// A table op: the result type and the entry-point name come from its row.
template <typename Req, typename F>
Expected<typename Op<Req>::Result> guarded(const Req& request, F&& body) {
  return guarded<typename Op<Req>::Result>(Op<Req>::entry_name, request,
                                           std::forward<F>(body));
}

// Every entry point resolves its tech spec — a built-in node name or a
// .tech file path — to a stable base descriptor. File specs re-read the
// bytes per call, so an on-disk edit is visible to the very next request
// (the invalidation flow depends on this).
const Technology& base_tech_of(const std::string& tech, const char* who) {
  require(!tech.empty(), ErrorCode::bad_input, who, ": tech is required");
  return technology_from_spec(tech);
}

DesignStyle style_of(const std::string& style) {
  if (style == "SS") return DesignStyle::SingleSpacing;
  if (style == "DS") return DesignStyle::DoubleSpacing;
  if (style == "SH") return DesignStyle::Shielded;
  fail("link style must be SS, DS, or SH", ErrorCode::bad_input);
}

int resolved_repeaters(const LinkSpec& link) {
  if (link.repeaters > 0) return link.repeaters;
  return static_cast<int>(std::max(1L, std::lround(link.length_mm)));
}

// Resolves a corner name against the base descriptor's scenario set. The
// empty spec is the nominal corner, so requests that never mention
// corners run the exact flow they always did (all derating factors 1.0).
Corner corner_of(const Technology& base, const std::string& spec) {
  if (spec.empty()) return Corner{};
  return base.scenario_set().corner(spec);
}

LinkContext context_of(const Technology& base, const LinkSpec& link, const char* who) {
  require(link.length_mm > 0.0, ErrorCode::bad_input, who,
          ": link.length_mm must be positive");
  LinkContext ctx;
  ctx.length = link.length_mm * mm;
  ctx.style = style_of(link.style);
  ctx.input_slew = link.input_slew_ps * ps;
  ctx.frequency = base.clock_frequency;
  return ctx;
}

LinkDesign design_of(const LinkSpec& link, const char* who) {
  require(link.drive >= 1, ErrorCode::bad_input, who, ": link.drive must be >= 1");
  LinkDesign design;
  design.drive = link.drive;
  design.num_repeaters = resolved_repeaters(link);
  return design;
}

// Every op's way to calibrated coefficients, under one api.calibrate
// span: the resident model (sta/calibrated.hpp), whose fit() is the
// calibrated fit, or one per corner for the multi-corner ops. A warm call
// skips the store read, the payload parse, the model build and its
// coefficient hash while preserving every counter/provenance side effect
// of the store path.
std::shared_ptr<const ProposedModel> calibrated_model(const Technology& base,
                                                      const Corner& corner,
                                                      const std::string& coeffs_path) {
  obs::TraceSpan span("api.calibrate");
  return resident_model(base, corner, coeffs_path);
}

CornerModelSet calibrated_corners(const Technology& base, const std::vector<Corner>& corners,
                                  const std::string& coeffs_path) {
  obs::TraceSpan span("api.calibrate");
  return CornerModelSet(corner_models(base, corners, coeffs_path));
}

SocSpec spec_of(const std::string& which, const char* who) {
  require(!which.empty(), ErrorCode::bad_input, who,
          ": spec is required (dvopd, vproc, mpeg4, mwd, or a .soc file)");
  if (which == "dvopd") return dvopd_spec();
  if (which == "vproc") return vproc_spec();
  if (which == "mpeg4") return mpeg4_spec();
  if (which == "mwd") return mwd_spec();
  return load_soc_spec(which);
}

std::shared_ptr<const InterconnectModel> model_of(const std::string& name,
                                                  const Technology& tech,
                                                  const std::string& coeffs_path) {
  if (name == "proposed") return calibrated_model(tech, Corner{}, coeffs_path);
  if (name == "bakoglu") return std::make_shared<BakogluModel>(tech);
  if (name == "pamunuwa") return std::make_shared<PamunuwaModel>(tech);
  fail("model must be proposed, bakoglu, or pamunuwa", ErrorCode::bad_input);
}

}  // namespace

void check_version(int version, const std::string& who) {
  require(version == kApiVersion, ErrorCode::bad_input, who, ": request api_version ",
          version, " does not match pim::api::kApiVersion ", kApiVersion);
}

Expected<TechfileResult> run_techfile(const TechfileRequest& request) {
  return guarded(request, [&](const char* who) {
    TechfileResult result;
    result.text = write_techfile(base_tech_of(request.tech, who));
    return result;
  });
}

Expected<CharlibResult> run_charlib(const CharlibRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.tech, who);
    const Technology& tech = corner_technology(base, corner_of(base, request.corner));
    for (int drive : request.drives)
      require(drive >= 1, ErrorCode::bad_input, who, ": every drive must be >= 1");
    CharacterizationOptions opt;
    if (!request.drives.empty()) opt.drives = request.drives;
    const CellLibrary lib = characterize_library(tech, opt);
    CharlibResult result;
    result.partial = lib.partial();
    result.liberty_text = write_liberty(lib);
    if (request.want_fit)
      result.fit_text = write_fit(calibrate_composition(tech, fit_technology(tech, lib)));
    return result;
  });
}

Expected<FitResult> run_fit(const FitRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.tech, who);
    FitResult result;
    result.fit_text = write_fit(
        calibrated_model(base, corner_of(base, request.corner), request.coeffs_path)->fit());
    return result;
  });
}

Expected<LinkEvalResult> run_evaluate(const LinkEvalRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.link.tech, who);
    const Corner corner = corner_of(base, request.link.corner);
    const Technology& tech = corner_technology(base, corner);
    const LinkContext ctx = context_of(base, request.link, who);
    const LinkDesign design = design_of(request.link, who);
    const std::shared_ptr<const ProposedModel> model =
        calibrated_model(base, corner, request.link.coeffs_path);
    const LinkEstimate est = model->evaluate(ctx, design);
    LinkEvalResult result;
    result.tech_name = tech.name;
    result.style_name = design_style_name(ctx.style);
    result.repeaters = design.num_repeaters;
    result.miller_factor = design.miller_factor;
    result.delay_ps = est.delay / ps;
    result.output_slew_ps = est.output_slew / ps;
    result.power_mw = est.total_power() / mW;
    result.area_um2 = est.repeater_area / um2;
    if (request.golden) {
      const SignoffResult golden = signoff_link(tech, ctx, design);
      result.has_golden = true;
      result.golden_delay_ps = golden.delay / ps;
      result.golden_slew_ps = golden.output_slew / ps;
      result.golden_nodes = golden.node_count;
      result.model_error_pct = 100.0 * (est.delay - golden.delay) / golden.delay;
    }
    return result;
  });
}

Expected<BufferResult> run_buffer(const BufferRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.link.tech, who);
    const Corner corner = corner_of(base, request.link.corner);
    const LinkContext ctx = context_of(base, request.link, who);
    require(request.weight >= 0.0 && request.weight <= 1.0, ErrorCode::bad_input, who,
            ": weight must be in [0, 1]");
    BufferingOptions opt;
    opt.weight = request.weight;
    if (request.budget_ps > 0.0) opt.max_delay = request.budget_ps * ps;
    const std::shared_ptr<const ProposedModel> model =
        calibrated_model(base, corner, request.link.coeffs_path);
    const BufferingResult best = optimize_buffering_cached(*model, ctx, opt);
    BufferResult result;
    result.feasible = best.feasible;
    result.evaluations = best.evaluations;
    if (best.feasible) {
      result.kind = cell_kind_name(best.design.kind);
      result.drive = best.design.drive;
      result.repeaters = best.design.num_repeaters;
      result.miller_factor = best.design.miller_factor;
      result.delay_ps = best.estimate.delay / ps;
      result.power_mw = best.estimate.total_power() / mW;
      result.area_um2 = best.estimate.repeater_area / um2;
    }
    return result;
  });
}

Expected<YieldResult> run_yield(const YieldRequest& request) {
  return guarded(request, [&](const char* who) {
    require(request.samples >= 1, ErrorCode::bad_input, who,
            ": samples must be at least 1");
    const Technology& base = base_tech_of(request.link.tech, who);
    const Corner corner = corner_of(base, request.link.corner);
    const LinkContext ctx = context_of(base, request.link, who);
    const LinkDesign design = design_of(request.link, who);
    const std::shared_ptr<const ProposedModel> model =
        calibrated_model(base, corner, request.link.coeffs_path);
    const MonteCarloResult mc = monte_carlo_link_at_corner(
        *model, corner, ctx, design, request.samples, request.seed);
    YieldResult result;
    result.samples = static_cast<int>(mc.delays.size());
    result.failed_samples = mc.failed_samples;
    result.requested_samples = mc.requested_samples;
    result.nominal_delay_ps = mc.nominal_delay / ps;
    result.mean_delay_ps = mc.mean_delay / ps;
    result.sigma_delay_ps = mc.sigma_delay / ps;
    result.p90_delay_ps = mc.delay_quantile(0.9) / ps;
    result.p99_delay_ps = mc.delay_quantile(0.99) / ps;
    result.yield_at_nominal = mc.yield_at(mc.nominal_delay);
    result.yield_ci95 = mc.yield_ci95(mc.nominal_delay);
    result.partial = mc.partial;
    return result;
  });
}

Expected<NoiseResult> run_noise(const NoiseRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.link.tech, who);
    const Corner corner = corner_of(base, request.link.corner);
    const Technology& tech = corner_technology(base, corner);
    const LinkContext ctx = context_of(base, request.link, who);
    LinkDesign design = design_of(request.link, who);
    design.num_repeaters = 1;  // noise is per wire segment
    const std::shared_ptr<const ProposedModel> calibrated =
        calibrated_model(base, corner, request.link.coeffs_path);
    const TechnologyFit& fit = calibrated->fit();
    const NoiseCalibration cal = calibrate_noise(tech, fit);
    const double golden = golden_noise_peak(tech, ctx, design);
    const double model = noise_peak_model(tech, fit, ctx, design, cal.kappa_n);
    NoiseResult result;
    result.tech_name = tech.name;
    result.style_name = design_style_name(ctx.style);
    result.golden_peak_mv = golden * 1e3;
    result.golden_peak_pct_vdd = 100.0 * golden / tech.vdd;
    result.model_peak_mv = model * 1e3;
    result.model_error_pct = 100.0 * (model - golden) / std::max(golden, 1e-9);
    return result;
  });
}

Expected<TimerResult> run_timer(const TimerRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.link.tech, who);
    const Technology& tech = corner_technology(base, corner_of(base, request.link.corner));
    const LinkContext ctx = context_of(base, request.link, who);
    const LinkDesign design = design_of(request.link, who);
    CharacterizationOptions copt;
    copt.drives = {design.drive};
    copt.buffers = design.kind == CellKind::Buffer;
    copt.inverters = design.kind == CellKind::Inverter;
    const CellLibrary lib = characterize_library(tech, copt);
    const NldmTimerResult awe = nldm_link_delay(lib, tech, ctx, design);
    NldmTimerOptions elm;
    elm.wire = WireDelayMethod::Elmore;
    const NldmTimerResult elmore = nldm_link_delay(lib, tech, ctx, design, elm);
    TimerResult result;
    result.tech_name = tech.name;
    result.repeaters = design.num_repeaters;
    result.awe_delay_ps = awe.delay / ps;
    result.awe_slew_ps = awe.output_slew / ps;
    result.elmore_delay_ps = elmore.delay / ps;
    result.partial = lib.partial();
    return result;
  });
}

Expected<CornersResult> run_corners(const CornersRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& tech = base_tech_of(request.link.tech, who);
    const LinkContext ctx = context_of(tech, request.link, who);
    const LinkDesign design = design_of(request.link, who);
    const std::vector<Corner> corners = tech.scenario_set().resolve(request.corners);
    const CornerModelSet set = calibrated_corners(tech, corners, request.link.coeffs_path);
    CornerSignoffOptions opt;
    opt.target_period = request.target_period_ps * ps;
    const CornerSignoffResult signoff = signoff_corners(set, ctx, design, opt);
    CornersResult result;
    result.tech_name = tech.name;
    result.style_name = design_style_name(ctx.style);
    result.repeaters = design.num_repeaters;
    result.target_period_ps = signoff.target_period / ps;
    for (const CornerTiming& row : signoff.corners) {
      CornerTimingRow out;
      out.corner = row.corner.name;
      out.delay_ps = row.delay / ps;
      out.output_slew_ps = row.output_slew / ps;
      out.slack_ps = row.slack / ps;
      out.noise_peak_mv = row.noise_peak * 1e3;
      result.corners.push_back(out);
    }
    result.worst_corner = signoff.worst().corner.name;
    result.worst_slack_ps = signoff.worst_slack() / ps;
    return result;
  });
}

Expected<ExportResult> run_export(const ExportRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.link.tech, who);
    const Technology& tech = corner_technology(base, corner_of(base, request.link.corner));
    const LinkContext ctx = context_of(base, request.link, who);
    const LinkDesign design = design_of(request.link, who);
    ExportResult result;
    if (request.want_deck) {
      const LinkNetlist net = build_link_netlist(tech, ctx, design);
      result.deck_text = write_deck(net.circuit);
      result.deck_nodes = net.circuit.node_count();
    }
    if (request.want_spef || !request.want_deck)
      result.spef_text = write_spef(tech, ctx, design);
    return result;
  });
}

Expected<SynthesisResult> run_synthesis(const SynthesisRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.tech, who);
    const SocSpec spec = spec_of(request.spec, who);
    const std::shared_ptr<const InterconnectModel> model =
        [&]() -> std::shared_ptr<const InterconnectModel> {
      if (request.corners.empty()) return model_of(request.model, base, request.coeffs_path);
      // Worst-corner synthesis: every link the optimizer sizes is
      // evaluated at the per-metric worst case over the corner set, so
      // the synthesized NoC closes at every corner of it.
      require(request.model == "proposed", ErrorCode::bad_input, who,
              ": --corners requires the proposed model (baselines carry "
              "no per-corner calibration)");
      const std::vector<Corner> corners =
          base.scenario_set().resolve(request.corners);
      return std::make_shared<WorstCornerModel>(
          calibrated_corners(base, corners, request.coeffs_path));
    }();
    const NocSynthesisResult r = [&] {
      if (request.mesh) {
        MeshOptions shape;
        shape.rows = request.rows;
        shape.cols = request.cols;
        return build_mesh_noc(spec, *model, {}, shape);
      }
      require(request.rows == 0 && request.cols == 0, ErrorCode::bad_input, who,
              ": rows/cols only apply to mesh construction");
      return synthesize_noc(spec, *model);
    }();
    const NocMetrics& m = r.metrics;
    SynthesisResult result;
    result.spec_name = spec.name;
    result.tech_name = base.name;
    result.model_name = model->name();
    result.dynamic_power_mw = m.dynamic_power() / mW;
    result.leakage_power_mw = m.leakage_power() / mW;
    result.worst_link_delay_ps = m.worst_link_delay / ps;
    result.delay_budget_ps = r.delay_budget / ps;
    result.area_mm2 = m.total_area() / mm2;
    result.num_links = m.num_links;
    result.num_routers = m.num_routers;
    result.avg_hops = m.avg_hops;
    result.max_hops = m.max_hops;
    result.merges_applied = r.merges_applied;
    result.partial = r.partial;
    if (request.want_dot) result.dot_text = to_dot(r.architecture);
    return result;
  });
}

Expected<InvalidateResult> run_invalidate(const InvalidateRequest& request) {
  return guarded(request, [&](const char* who) {
    const Technology& base = base_tech_of(request.tech, who);
    const std::vector<cache::Facet> changed = technology_facets(base);
    const std::vector<cache::Manifest> manifests = cache::scan_manifests(cache::dir());
    const cache::DirtyCone cone = cache::dirty_cone(manifests, changed);
    InvalidateResult result;
    result.manifests = static_cast<int>(manifests.size());
    result.dirty_keys = static_cast<int>(cone.dirty.size());
    result.reuse_keys = static_cast<int>(cone.reuse.size());
    // Ledger-visible proof of the delta: how much of the cached graph the
    // edit stales vs preserves (docs/observability.md).
    PIM_COUNT_N("cache.dirty.keys", result.dirty_keys);
    PIM_COUNT_N("cache.reuse.keys", result.reuse_keys);
    std::map<std::string, InvalidateKindRow> by_kind;
    for (const cache::CacheKey& key : cone.dirty) ++by_kind[key.kind].dirty;
    for (const cache::CacheKey& key : cone.reuse) ++by_kind[key.kind].reuse;
    for (auto& [kind, row] : by_kind) {
      row.kind = kind;
      result.kinds.push_back(row);
    }
    if (request.apply) {
      result.applied = true;
      result.evicted =
          static_cast<int>(cache::evict_keys(cache::Store::global(), cone.dirty));
    }
    return result;
  });
}

Expected<CacheAdminResult> run_cache_admin(const CacheAdminRequest& request) {
  return guarded(request, [&](const char* who) {
    CacheAdminResult result;
    result.action = request.action;
    result.dir = cache::dir();
    if (request.action == "stats") {
      for (const cache::KindStats& k : cache::cache_stats(result.dir)) {
        CacheKindRow row;
        row.kind = k.kind;
        row.entries = static_cast<int64_t>(k.entries);
        row.payload_bytes = static_cast<int64_t>(k.payload_bytes);
        row.manifest_bytes = static_cast<int64_t>(k.manifest_bytes);
        result.total_bytes += row.payload_bytes + row.manifest_bytes;
        result.kinds.push_back(row);
      }
      return result;
    }
    if (request.action == "prune") {
      require(request.budget_bytes >= 0, ErrorCode::bad_input, who,
              ": prune budget_bytes must be non-negative");
      const cache::PruneResult pruned = cache::prune_cache(
          result.dir, static_cast<size_t>(request.budget_bytes));
      result.scanned_entries = static_cast<int64_t>(pruned.scanned_entries);
      result.removed_entries = static_cast<int64_t>(pruned.removed_entries);
      result.removed_bytes = static_cast<int64_t>(pruned.removed_bytes);
      result.kept_bytes = static_cast<int64_t>(pruned.kept_bytes);
      // Pruned disk entries may still be in the memory LRU; dropping it
      // keeps the two tiers consistent with the budget just enforced.
      if (pruned.removed_entries > 0) cache::Store::global().clear_memory();
      return result;
    }
    if (request.action == "verify") {
      const cache::VerifyResult verified = cache::verify_cache(result.dir);
      result.entries = static_cast<int64_t>(verified.entries);
      result.manifests = static_cast<int64_t>(verified.manifests);
      result.orphan_manifests = static_cast<int64_t>(verified.orphan_manifests);
      result.unmanifested_entries = static_cast<int64_t>(verified.unmanifested_entries);
      result.corrupt_manifests = static_cast<int64_t>(verified.corrupt_manifests);
      result.scrubbed = static_cast<int64_t>(verified.scrubbed());
      return result;
    }
    fail(std::string(who) + ": action must be stats, prune, or verify",
         ErrorCode::bad_input);
  });
}

namespace {

// True when the result alternative carries a partial flag and it is set.
bool is_partial(const AnyResult& result) {
  return std::visit(
      [](const auto& value) {
        if constexpr (requires { value.partial; })
          return value.partial;
        else
          return false;
      },
      result);
}

}  // namespace

Expected<AnyResult> run_any(const AnyRequest& request) {
  return std::visit(
      [](const auto& item) -> Expected<AnyResult> {
        auto out = Op<std::decay_t<decltype(item)>>::run(item);
        if (!out) return Expected<AnyResult>(out.error());
        return Expected<AnyResult>(AnyResult(out.take()));
      },
      request);
}

Expected<BatchResult> run_batch(const BatchRequest& request) {
  return guarded<BatchResult>("run_batch", request, [&](const char*) {
    BatchResult result;
    const size_t n = request.items.size();
    result.items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Shared-budget poll between items: once the batch budget expires
      // (or a cancel lands), every not-yet-started item is answered with
      // the typed stop error without doing work, so a stopped batch
      // still returns exactly n order-aligned entries in bounded time.
      // The item being executed when the stop lands degrades by its own
      // flow's partial semantics, like a direct call would.
      const deadline::StopReason stop = deadline::check();
      if (stop != deadline::StopReason::none) {
        result.partial = true;
        for (size_t j = i; j < n; ++j) {
          result.items.emplace_back(
              deadline::stop_error(stop, j, n)
                  .with_context("batch item " + std::to_string(j) + " never started"));
          ++result.failed;
        }
        break;
      }
      result.items.push_back(run_any(request.items[i]));
      const Expected<AnyResult>& out = result.items.back();
      if (!out.ok()) {
        ++result.failed;
        const ErrorCode code = out.error().code();
        if (code == ErrorCode::deadline_exceeded || code == ErrorCode::cancelled)
          result.partial = true;
      } else if (is_partial(out.value())) {
        ++result.partial_items;
        result.partial = true;
      }
    }
    return result;
  });
}

}  // namespace pim::api
