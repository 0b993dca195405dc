// cold_calibrate: repeated cold calibrations of 65nm through
// pim::api::run_fit. Every calibration starts from an empty cache
// directory with no resident fit, so the whole characterize -> fit ->
// composition-calibrate -> cache-write chain runs. Transistor-level
// simulation (spice, charlib, sta) does nearly all of the work; serve,
// variation and buffering do none.
#include <filesystem>
#include <string>
#include <vector>

#include "api/pim_api.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "charlib/fit.hpp"
#include "common.hpp"
#include "host_speed.hpp"
#include "obs/metrics.hpp"
#include "sta/composition.hpp"
#include "stats.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTech = "65nm";
/// SHA-256 of the canonical 65nm fit text (the same bytes as the
/// committed bench_out/coeffs_65nm.pimfit and data/coeffs_65nm.pimfit).
constexpr const char* kFitSha256 =
    "26450859e2ce6f25607d98a1b45a82c7f75e3c471f08098ec16985f0c9686f33";
/// Reference loops per host-speed reading around a calibration (~0.4 s,
/// against ~6.5 s of calibration: long enough to average the host's
/// speed over more than a moment).
constexpr int kProbeLoops = 200;
/// Set-ups timed before the calibrations; set-up is under a millisecond,
/// so one per calibration is too few for a steady median.
constexpr int kSetups = 60;
/// Reference loops per host-speed reading around a set-up.
constexpr int kSetupProbeLoops = 5;

/// Puts the process back into the never-calibrated state; returns the
/// seconds it took (the workload's set-up).
double prepare(const fs::path& dir) {
  const auto t0 = Clock::now();
  fresh_cache(dir);
  pim::technology_from_spec(kTech);
  return seconds_since(t0);
}

/// One cold calibration through the public facade. Returns its wall
/// time, or a negative value when it failed.
double calibrate_via_api(Report& report) {
  const int64_t op = report.attempt();
  pim::api::FitRequest request;
  request.tech = kTech;
  const auto t0 = Clock::now();
  const auto fit = pim::api::run_fit(request);
  const double wall = seconds_since(t0);
  if (!fit) {
    report.fail(op, std::string("run_fit: ") + fit.error().what());
    return -1.0;
  }
  const std::string sha = sha256_hex(fit.value().fit_text);
  report.check(op, sha == kFitSha256, "run_fit: fit text has SHA-256 " + sha);
  return wall;
}

struct ChainTimes {
  double characterize_s = 0, fit_s = 0, composition_s = 0, write_s = 0, wall_s = 0;
  int64_t composition_runs = 0;
};

/// The same calibration as run_fit, one layer call at a time, each under
/// its own span, with the registry absorbed after every call.
ChainTimes calibrate_layer_by_layer(Report& report, Tracer& tracer, RegistryTally& tally,
                                    int64_t request) {
  ChainTimes t;
  const int64_t op = report.attempt();
  const auto start = Clock::now();
  Tracer::Scope root(tracer, "cold.calibration", request);
  const pim::Technology& tech =
      pim::corner_technology(pim::technology_from_spec(kTech), pim::Corner{});
  auto timed = [&](const char* span, double& seconds, auto&& call) {
    const auto t0 = Clock::now();
    auto value = [&] {
      Tracer::Scope scope(tracer, span);
      return call();
    }();
    seconds = seconds_since(t0);
    tally.absorb();
    return value;
  };
  try {
    const pim::CellLibrary library = timed("charlib.characterize_library", t.characterize_s,
                                           [&] { return pim::characterize_library(tech); });
    const pim::TechnologyFit raw = timed("charlib.fit_technology", t.fit_s,
                                         [&] { return pim::fit_technology(tech, library); });
    const int64_t runs_before = tally.counter("spice.transient.runs");
    const pim::TechnologyFit fit =
        timed("sta.calibrate_composition", t.composition_s,
              [&] { return pim::calibrate_composition(tech, raw); });
    t.composition_runs = tally.counter("spice.transient.runs") - runs_before;
    const std::string text =
        timed("charlib.write_fit", t.write_s, [&] { return pim::write_fit(fit); });
    const std::string sha = sha256_hex(text);
    report.check(op, sha == kFitSha256, "layer-by-layer chain: fit text has SHA-256 " + sha);
  } catch (const std::exception& e) {
    report.fail(op, std::string("layer-by-layer chain: ") + e.what());
  }
  t.wall_s = seconds_since(start);
  return t;
}

void trace_layers(Report& report, Tracer& tracer, double untraced_s,
                  double budget_s, const fs::path& dir) {
  RegistryTally tally;
  obs::set_enabled(true);
  obs::registry().reset();
  tracer.set_enabled(true);
  std::vector<ChainTimes> passes;
  const auto start = Clock::now();
  do {
    prepare(dir);
    passes.push_back(
        calibrate_layer_by_layer(report, tracer, tally, static_cast<int64_t>(passes.size())));
  } while (seconds_since(start) + passes.back().wall_s <= budget_s);
  tracer.set_enabled(false);
  obs::set_enabled(false);

  const double n = static_cast<double>(passes.size());
  auto med = [&](double ChainTimes::*field) {
    std::vector<double> v;
    for (const ChainTimes& p : passes) v.push_back(p.*field);
    return median(v);
  };
  int64_t signoff_runs = 0;
  for (const ChainTimes& p : passes) signoff_runs += p.composition_runs;
  auto& L = report.layers;
  L["charlib.characterize_s"] = med(&ChainTimes::characterize_s);
  L["charlib.fit_s"] = med(&ChainTimes::fit_s);
  L["sta.composition_s"] = med(&ChainTimes::composition_s);
  L["charlib.decks"] = tally.counter("charlib.deck.simulated") / n;
  L["sta.signoff_sims"] = signoff_runs / n;
  L["sta.signoff_ms_mean"] =
      signoff_runs == 0 ? 0.0 : 1e3 * L["sta.composition_s"] / (signoff_runs / n);
  L["spice.transient_runs"] = tally.counter("spice.transient.runs") / n;
  L["spice.timesteps"] = tally.counter("spice.timestep.count") / n;
  L["spice.newton_iters"] = tally.counter("spice.newton.iterations") / n;
  L["spice.newton_per_step"] =
      L["spice.timesteps"] == 0 ? 0.0 : L["spice.newton_iters"] / L["spice.timesteps"];
  L["numeric.lu_factorizations"] = (tally.counter("numeric.lu.factorizations") +
                                      tally.counter("numeric.banded.factorizations")) /
                                     n;
  L["numeric.leastsq_solves"] = tally.counter("numeric.leastsq.solves") / n;
  add_exec_layers(tally, L);
  L["cache.hits"] = tally.counter("cache.hit") / n;
  L["cache.misses"] = tally.counter("cache.miss") / n;
  L["cache.writes"] = tally.counter("cache.write") / n;
  const double traced_s = med(&ChainTimes::wall_s);
  L["trace.overhead_pct"] = untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0;
}

}  // namespace

Report run_cold_calibrate(const Options& opt, Tracer& tracer) {
  Report report;
  const fs::path dir = fs::path(opt.work_dir) / "cold-cache";
  // Wall times, and the same at the reference host speed (host_speed.hpp).
  std::vector<double> setup, wall, scaled;
  HostSpeed setup_host(Work::kFileSystem, kSetupProbeLoops, Reading::kMedian,
                       fs::path(opt.work_dir) / "reference");
  // Set-up times are scaled by the median of readings taken before each
  // set-up: a single short reading per set-up is too noisy.
  for (int i = 0; i < kSetups; ++i) {
    setup_host.read();
    setup.push_back(prepare(dir));
  }

  HostSpeed host(Work::kFloatingPoint, kProbeLoops, Reading::kMean);
  const auto start = Clock::now();
  // The untraced run: calibrations until the next one would overrun the
  // budget (at least one), each between two host-speed readings. The
  // traced run does one untraced calibration as the overhead baseline,
  // then traced layer-by-layer passes.
  do {
    prepare(dir);
    if (scaled.empty()) host.read();
    const double s = calibrate_via_api(report);
    if (s < 0) break;
    wall.push_back(s);
    scaled.push_back(s * host.factor());
  } while (!opt.trace && seconds_since(start) + wall.back() <= opt.seconds);

  if (opt.trace && !wall.empty())
    trace_layers(report, tracer, wall.front(), opt.seconds - seconds_since(start), dir);
  fs::remove_all(dir);

  if (wall.empty()) return report;
  double total = 0;
  for (double s : scaled) total += s;
  const double p50_ms = 1e3 * median(scaled);
  report.end_to_end["setup_s"] = median(setup) * setup_host.speed();
  report.end_to_end["op_p50_ms"] = p50_ms;
  // A run holds a handful of calibrations: no tail percentile has ten
  // samples beyond it, so the tail metric is the median here.
  report.end_to_end["op_tail_ms"] = p50_ms;
  report.end_to_end["ops_per_s"] = static_cast<double>(scaled.size()) / total;
  report.name("calibrate_s", median(scaled), "s");
  report.name("calibrate_wall_s", median(wall), "s");
  report.name("calibrations", static_cast<double>(wall.size()), "count");
  report.name("host_speed", host.speed(), "ratio");
  return report;
}

}  // namespace e2e
