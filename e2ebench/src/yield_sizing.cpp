// yield_sizing: the title experiment of the source paper — upsizing
// repeaters until a link meets its delay budget on enough dies.
//
// Set-up loads the committed 65nm fit from a scratch copy, so the
// workload runs no simulation. For a fixed grid of links it runs one
// run_buffer per link (which fixes the repeater count), then for every
// drive size from 6 to 64 one run_evaluate (nominal power) and one
// run_yield with a seed-derived Monte-Carlo seed. Per link it picks the
// lowest-power drive whose p99 delay meets the link's budget. Then it
// re-queries the whole grid. The first pass computes and writes every
// cache entry; the written yield entries total more than the store's
// 64 MiB memory tier, so the re-query pass reads from the disk tier.
// variation, models, exec and the cache codec do the work; spice and
// serve do none.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/pim_api.hpp"
#include "buffering/optimize.hpp"
#include "charlib/coeffs_io.hpp"
#include "common.hpp"
#include "host_speed.hpp"
#include "models/proposed.hpp"
#include "stats.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"
#include "variation/variation.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTech = "65nm";
/// SHA-256 of data/coeffs_65nm.pimfit (a copy of the committed
/// bench_out/coeffs_65nm.pimfit).
constexpr const char* kFitSha256 =
    "e45664f810cf9eea78cb940d1b3e3fc0f98561ab22ed5baba2f2fac056726df0";

// The grid. 18 links x 9 drives = 162 designs, so the first pass has
// more than 100 run_yield latencies (p90 has >= 10 samples beyond it).
// At 20000 samples a yield entry is ~460 KB, so the 162 entries
// (~75 MB) overflow the 64 MiB memory tier.
constexpr double kLengthsMm[] = {2, 3, 4, 6, 8, 10};
constexpr const char* kStyles[] = {"SS", "DS", "SH"};
constexpr int kDrives[] = {6, 8, 12, 16, 20, 24, 32, 48, 64};
constexpr int kSamples = 20000;
constexpr int kSetups = 40;
/// Reference loops per host-speed reading (host_speed.hpp): one reading
/// after every link of either pass (~20 ms, against ~150-350 ms of link).
constexpr int kProbeLoops = 10;
/// Reference loops per host-speed reading around a set-up.
constexpr int kSetupProbeLoops = 5;
constexpr size_t kLinks = std::size(kLengthsMm) * std::size(kStyles);
constexpr size_t kDesigns = kLinks * std::size(kDrives);

/// p99 delay budget per link [ps], in grid order (length-major, then
/// style). Each sits between the p99 delays of two neighbouring drives,
/// far enough from both that the chosen drive does not depend on the
/// Monte-Carlo seed.
constexpr double kBudgetPs[kLinks] = {386, 85,  124, 503, 107,  169, 497, 571, 191,
                                     606, 640, 226, 674, 620, 1452, 693, 622, 1266};
/// The drive the selection must pick per link, in grid order.
constexpr int kPinnedDrive[kLinks] = {8, 32, 20, 12, 48, 24, 16, 8,  32,
                                      20, 12, 48, 24, 16, 8,  32, 20, 12};

struct Link {
  double length_mm;
  std::string style;
};

std::vector<Link> grid() {
  std::vector<Link> links;
  for (double length : kLengthsMm)
    for (const char* style : kStyles) links.push_back({length, style});
  return links;
}

pim::api::LinkSpec spec_of(const Link& link, const std::string& coeffs, int drive = 12,
                           int repeaters = 0) {
  pim::api::LinkSpec spec;
  spec.tech = kTech;
  spec.length_mm = link.length_mm;
  spec.style = link.style;
  spec.drive = drive;
  spec.repeaters = repeaters;
  spec.coeffs_path = coeffs;
  return spec;
}

bool same_yield(const pim::api::YieldResult& a, const pim::api::YieldResult& b) {
  return a.samples == b.samples && a.failed_samples == b.failed_samples &&
         a.requested_samples == b.requested_samples && a.nominal_delay_ps == b.nominal_delay_ps &&
         a.mean_delay_ps == b.mean_delay_ps && a.sigma_delay_ps == b.sigma_delay_ps &&
         a.p90_delay_ps == b.p90_delay_ps && a.p99_delay_ps == b.p99_delay_ps &&
         a.yield_at_nominal == b.yield_at_nominal && a.yield_ci95 == b.yield_ci95 &&
         a.partial == b.partial;
}

bool same_buffer(const pim::api::BufferResult& a, const pim::api::BufferResult& b) {
  return a.feasible == b.feasible && a.kind == b.kind && a.drive == b.drive &&
         a.repeaters == b.repeaters && a.miller_factor == b.miller_factor &&
         a.evaluations == b.evaluations && a.delay_ps == b.delay_ps &&
         a.power_mw == b.power_mw && a.area_um2 == b.area_um2;
}

/// Everything one sweep measured. Times of the links and their run_yield
/// calls are at the reference host speed (host_speed.hpp); wall_s is not.
struct Sweep {
  double seconds = 0;              ///< the links of both passes
  double wall_s = 0;               ///< the same, wall time
  std::vector<double> design_ms;   ///< first-pass run_yield latencies
  std::vector<double> requery_ms;  ///< re-query run_yield latencies
  // Traced run only.
  std::vector<double> mc_ms;        ///< direct monte_carlo_link, same design
  std::vector<double> write_ms;     ///< run_yield minus monte_carlo_link
  std::vector<double> search_us;    ///< direct optimize_buffering
  std::vector<double> search_evals;
  double eval_ns = 0;
  uint64_t bytes_written = 0;
};

class YieldSizing {
 public:
  YieldSizing(const Options& opt, Report& report, Tracer& tracer)
      : opt_(opt), report_(report), tracer_(tracer),
        host_(Work::kFloatingPoint, kProbeLoops, Reading::kMean), links_(grid()),
        store_(fs::path(opt.work_dir) / "yield-cache"),
        coeffs_((fs::absolute(opt.work_dir) / "fit" / "coeffs_65nm.pimfit").string()) {}

  /// Loads the fit and the resident model from a fresh scratch copy.
  /// Returns the seconds it took, wall time.
  double setup() {
    const auto t0 = Clock::now();
    fresh_cache(store_);
    fs::create_directories(fs::path(coeffs_).parent_path());
    fs::copy_file(fs::path(opt_.data_dir) / "coeffs_65nm.pimfit", coeffs_,
                  fs::copy_options::overwrite_existing);
    pim::api::FitRequest fit;
    fit.tech = kTech;
    fit.coeffs_path = coeffs_;
    const auto loaded = pim::api::run_fit(fit);
    pim::api::LinkEvalRequest eval;
    eval.link = spec_of(links_.front(), coeffs_);
    const auto evaluated = pim::api::run_evaluate(eval);
    const double seconds = seconds_since(t0);
    const int64_t op = report_.attempt();
    if (!loaded || !evaluated)
      report_.fail(op, "set-up: " + std::string(!loaded ? loaded.error().what()
                                                        : evaluated.error().what()));
    else
      report_.check(op, sha256_hex(loaded.value().fit_text) == kFitSha256,
                    "set-up: loaded fit differs from the pinned SHA-256");
    return seconds;
  }

  Sweep sweep(int64_t index, RegistryTally* tally) {
    Sweep out;
    fresh_store(store_);
    if (tally) {
      model_ = std::make_unique<pim::ProposedModel>(
          pim::corner_technology(pim::technology_from_spec(kTech), pim::Corner{}),
          pim::load_fit(coeffs_));
    }
    auto absorb = [&] {
      if (tally) tally->absorb();
    };
    Tracer::Scope root(tracer_, "yield.sweep", index);
    host_.read();
    std::vector<pim::api::BufferResult> buffers(kLinks);
    std::vector<pim::api::YieldResult> yields(kDesigns);
    {
      Tracer::Scope pass(tracer_, "yield.first_pass");
      int64_t eval_count = 0;
      double eval_total_ns = 0;
      for (size_t l = 0; l < kLinks; ++l) timed_link(out, out.design_ms, [&] {
        Tracer::Scope link_span(tracer_, "yield.link", static_cast<int64_t>(l));
        const int64_t op = report_.attempt();
        pim::api::BufferRequest buffer;
        buffer.link = spec_of(links_[l], coeffs_);
        const auto best = [&] {
          Tracer::Scope s(tracer_, "api.run_buffer");
          return pim::api::run_buffer(buffer);
        }();
        absorb();
        if (!best || !best.value().feasible) {
          report_.fail(op, "run_buffer: " + std::string(best ? "infeasible" : best.error().what()));
          return;
        }
        buffers[l] = best.value();
        const int repeaters = buffers[l].repeaters;
        if (tally) trace_link(l, out, eval_count, eval_total_ns);

        std::vector<double> power(std::size(kDrives), 0.0), p99(std::size(kDrives), 0.0);
        for (size_t d = 0; d < std::size(kDrives); ++d) {
          const size_t design = l * std::size(kDrives) + d;
          const pim::api::LinkSpec spec = spec_of(links_[l], coeffs_, kDrives[d], repeaters);
          const int64_t eval_op = report_.attempt();
          pim::api::LinkEvalRequest eval;
          eval.link = spec;
          const auto nominal = [&] {
            Tracer::Scope s(tracer_, "api.run_evaluate", static_cast<int64_t>(design));
            return pim::api::run_evaluate(eval);
          }();
          absorb();
          if (!nominal) {
            report_.fail(eval_op, std::string("run_evaluate: ") + nominal.error().what());
            continue;
          }
          power[d] = nominal.value().power_mw;

          const int64_t yield_op = report_.attempt();
          pim::api::YieldRequest request;
          request.link = spec;
          request.samples = kSamples;
          request.seed = mix_seed(opt_.seed, design);
          const auto y0 = Clock::now();
          const auto result = [&] {
            Tracer::Scope s(tracer_, "api.run_yield", static_cast<int64_t>(design));
            return pim::api::run_yield(request);
          }();
          const double ms = 1e3 * seconds_since(y0);
          absorb();
          if (!result) {
            report_.fail(yield_op, std::string("run_yield: ") + result.error().what());
            continue;
          }
          const pim::api::YieldResult& y = result.value();
          yields[design] = y;
          out.design_ms.push_back(ms);
          p99[d] = y.p99_delay_ps;
          report_.check(yield_op,
                        y.requested_samples == kSamples &&
                            y.samples + y.failed_samples == y.requested_samples,
                        "run_yield: samples + failed_samples != requested_samples");
          if (tally) trace_design(l, d, request.seed, repeaters, y, ms, out);
        }
        check_choice(l, power, p99);
      });
      if (eval_count > 0) out.eval_ns = eval_total_ns / static_cast<double>(eval_count);
    }
    out.bytes_written = tree_bytes(store_);
    host_.read();
    {
      Tracer::Scope pass(tracer_, "yield.requery");
      for (size_t l = 0; l < kLinks; ++l) timed_link(out, out.requery_ms, [&] {
        Tracer::Scope link_span(tracer_, "yield.link", static_cast<int64_t>(l));
        const int64_t op = report_.attempt();
        pim::api::BufferRequest buffer;
        buffer.link = spec_of(links_[l], coeffs_);
        const auto again = [&] {
          Tracer::Scope s(tracer_, "api.run_buffer");
          return pim::api::run_buffer(buffer);
        }();
        absorb();
        report_.check(op, again && same_buffer(again.value(), buffers[l]),
                      "re-query: run_buffer differs from the first pass");
        for (size_t d = 0; d < std::size(kDrives); ++d) {
          const size_t design = l * std::size(kDrives) + d;
          const int64_t yield_op = report_.attempt();
          pim::api::YieldRequest request;
          request.link = spec_of(links_[l], coeffs_, kDrives[d], buffers[l].repeaters);
          request.samples = kSamples;
          request.seed = mix_seed(opt_.seed, design);
          const auto y0 = Clock::now();
          const auto result = [&] {
            Tracer::Scope s(tracer_, "api.run_yield", static_cast<int64_t>(design));
            return pim::api::run_yield(request);
          }();
          out.requery_ms.push_back(1e3 * seconds_since(y0));
          absorb();
          report_.check(yield_op, result && same_yield(result.value(), yields[design]),
                        "re-query: run_yield differs from the first pass");
        }
      });
    }
    return out;
  }

  double speed() const { return host_.speed(); }

 private:
  /// Runs one link of a pass, then takes a host-speed reading and scales
  /// the link's time and the run_yield latencies it added to `latencies`
  /// to the reference speed.
  template <class Body>
  void timed_link(Sweep& out, std::vector<double>& latencies, Body&& body) {
    const size_t first = latencies.size();
    const auto t0 = Clock::now();
    body();
    const double wall = seconds_since(t0);
    const double factor = host_.factor();
    out.wall_s += wall;
    out.seconds += wall * factor;
    for (size_t i = first; i < latencies.size(); ++i) latencies[i] *= factor;
  }

  /// Picks the lowest-power drive whose p99 meets the link's budget and
  /// checks it against the pinned choice.
  void check_choice(size_t l, const std::vector<double>& power, const std::vector<double>& p99) {
    int chosen = 0;
    double best_power = 0;
    for (size_t d = 0; d < std::size(kDrives); ++d)
      if (p99[d] > 0 && p99[d] <= kBudgetPs[l] && (chosen == 0 || power[d] < best_power)) {
        chosen = kDrives[d];
        best_power = power[d];
      }
    const int64_t op = report_.attempt();
    std::string detail;
    for (size_t d = 0; d < std::size(kDrives); ++d)
      detail += " D" + std::to_string(kDrives[d]) + "=" + std::to_string(p99[d]);
    report_.check(op, chosen == kPinnedDrive[l],
                  "link " + std::to_string(l) + ": chose drive " + std::to_string(chosen) +
                      ", pinned " + std::to_string(kPinnedDrive[l]) + "; p99 ps:" + detail);
  }

  /// Traced run: the direct (uncached) buffering search and a timed loop
  /// of model evaluations over the link's drives.
  void trace_link(size_t l, Sweep& out, int64_t& eval_count, double& eval_total_ns) {
    const pim::LinkContext ctx = link_context(links_[l].length_mm, links_[l].style);
    pim::BufferingOptions options;
    options.weight = pim::api::BufferRequest{}.weight;
    const auto t0 = Clock::now();
    const pim::BufferingResult best = [&] {
      Tracer::Scope s(tracer_, "buffering.optimize_buffering", static_cast<int64_t>(l));
      return pim::optimize_buffering(*model_, ctx, options);
    }();
    out.search_us.push_back(1e6 * seconds_since(t0));
    out.search_evals.push_back(static_cast<double>(best.evaluations));
    constexpr int kReps = 200;
    const auto e0 = Clock::now();
    double sink = 0;
    {
      Tracer::Scope s(tracer_, "models.evaluate", static_cast<int64_t>(l));
      for (int rep = 0; rep < kReps; ++rep)
        for (int drive : kDrives) {
          pim::LinkDesign design;
          design.drive = drive;
          design.num_repeaters = best.design.num_repeaters;
          sink += model_->evaluate(ctx, design).delay;
        }
    }
    report_.check(report_.attempt(), sink > 0, "model evaluation returned no delay");
    eval_total_ns += 1e9 * seconds_since(e0);
    eval_count += kReps * static_cast<int64_t>(std::size(kDrives));
  }

  /// Traced run: the same Monte-Carlo run_yield just did, uncached, so the
  /// difference is what the cache layer added.
  void trace_design(size_t l, size_t d, uint64_t seed, int repeaters,
                    const pim::api::YieldResult& api_result, double api_ms, Sweep& out) {
    pim::LinkDesign design;
    design.drive = kDrives[d];
    design.num_repeaters = repeaters;
    const int64_t op = report_.attempt();
    const pim::LinkContext ctx = link_context(links_[l].length_mm, links_[l].style);
    const auto t0 = Clock::now();
    const pim::MonteCarloResult mc = [&] {
      Tracer::Scope s(tracer_, "variation.monte_carlo_link");
      return pim::monte_carlo_link(*model_, ctx, design, kSamples, seed);
    }();
    const double ms = 1e3 * seconds_since(t0);
    out.mc_ms.push_back(ms);
    out.write_ms.push_back(api_ms - ms);
    report_.check(op,
                  mc.delay_quantile(0.99) / 1e-12 == api_result.p99_delay_ps &&
                      static_cast<int>(mc.delays.size()) == api_result.samples,
                  "direct monte_carlo_link differs from run_yield on the same design");
  }

  const Options& opt_;
  Report& report_;
  Tracer& tracer_;
  HostSpeed host_;
  std::vector<Link> links_;
  fs::path store_;
  std::string coeffs_;
  std::unique_ptr<pim::ProposedModel> model_;
};

}  // namespace

Report run_yield_sizing(const Options& opt, Tracer& tracer) {
  Report report;
  YieldSizing workload(opt, report, tracer);
  // Set-up times are scaled by the median of readings taken before each
  // set-up (host_speed.hpp): a single short reading per set-up is too noisy.
  std::vector<double> setups;
  HostSpeed setup_host(Work::kFloatingPoint, kSetupProbeLoops, Reading::kMedian);
  for (int i = 0; i < kSetups; ++i) {
    setup_host.read();
    setups.push_back(workload.setup());
  }

  // Sweeps until the next one would overrun the budget (at least one).
  // The traced run does one untraced sweep as the overhead baseline first.
  const auto start = Clock::now();
  std::vector<Sweep> sweeps;
  std::vector<Sweep> traced;
  RegistryTally tally;
  do {
    sweeps.push_back(workload.sweep(static_cast<int64_t>(sweeps.size()), nullptr));
  } while (!opt.trace && seconds_since(start) + 1.2 * sweeps.back().wall_s <= opt.seconds);
  if (opt.trace) {
    obs::set_enabled(true);
    obs::registry().reset();
    tracer.set_enabled(true);
    do {
      traced.push_back(workload.sweep(static_cast<int64_t>(traced.size()), &tally));
    } while (seconds_since(start) + 1.2 * traced.back().wall_s <= opt.seconds);
    tracer.set_enabled(false);
    obs::set_enabled(false);
  }
  fs::remove_all(fs::path(opt.work_dir) / "yield-cache");

  auto pooled = [](const std::vector<Sweep>& runs, std::vector<double> Sweep::*field) {
    std::vector<double> all;
    for (const Sweep& s : runs) all.insert(all.end(), (s.*field).begin(), (s.*field).end());
    return all;
  };
  const std::vector<double> design_ms = pooled(sweeps, &Sweep::design_ms);
  std::vector<double> scaled, walls;
  double total = 0;
  for (const Sweep& s : sweeps) {
    scaled.push_back(s.seconds);
    walls.push_back(s.wall_s);
    total += s.seconds;
  }
  const double design_p50 = median(design_ms);
  const double design_p90 = supported_percentile(design_ms, 90).value_or(0.0);
  report.end_to_end["setup_s"] = median(setups) * setup_host.speed();
  report.end_to_end["op_p50_ms"] = design_p50;
  report.end_to_end["op_tail_ms"] = design_p90;
  report.end_to_end["ops_per_s"] = static_cast<double>(kDesigns * sweeps.size()) / total;
  report.name("sweep_s", median(scaled), "s");
  report.name("sweep_wall_s", median(walls), "s");
  report.name("design_p50_ms", design_p50, "ms");
  report.name("design_p90_ms", design_p90, "ms");
  report.name("requery_p50_ms", median(pooled(sweeps, &Sweep::requery_ms)), "ms");
  report.name("designs_per_sweep", static_cast<double>(kDesigns), "count");
  report.name("sweeps", static_cast<double>(sweeps.size()), "count");
  report.name("cache_bytes_written", static_cast<double>(sweeps.front().bytes_written), "bytes");
  report.name("host_speed", workload.speed(), "ratio");

  if (opt.trace && !traced.empty()) {
    const double n = static_cast<double>(traced.size());
    auto& L = report.layers;
    L["variation.mc_ms_p50"] = median(pooled(traced, &Sweep::mc_ms));
    L["variation.ns_per_sample"] = 1e6 * L["variation.mc_ms_p50"] / kSamples;
    std::vector<double> eval_ns;
    for (const Sweep& s : traced) eval_ns.push_back(s.eval_ns);
    L["models.eval_ns"] = median(eval_ns);
    L["models.evaluations"] = tally.counter("model.link.evaluations") / n;
    L["buffering.search_us"] = median(pooled(traced, &Sweep::search_us));
    L["buffering.evaluations"] = median(pooled(traced, &Sweep::search_evals));
    L["cache.write_ms_p50"] = median(pooled(traced, &Sweep::write_ms));
    L["cache.read_ms_p50"] = median(pooled(traced, &Sweep::requery_ms));
    L["cache.hits"] = tally.counter("cache.hit") / n;
    L["cache.disk_hits"] = tally.counter("cache.disk.hit") / n;
    L["cache.misses"] = tally.counter("cache.miss") / n;
    L["cache.evictions"] = tally.counter("cache.evict") / n;
    L["cache.writes"] = tally.counter("cache.write") / n;
    std::vector<double> bytes;
    for (const Sweep& s : traced) bytes.push_back(static_cast<double>(s.bytes_written));
    L["cache.bytes_written"] = median(bytes);
    add_exec_layers(tally, L);
    const double traced_p50 = median(pooled(traced, &Sweep::design_ms));
    L["trace.overhead_pct"] = 100.0 * (traced_p50 - design_p50) / design_p50;
  }
  return report;
}

}  // namespace e2e
