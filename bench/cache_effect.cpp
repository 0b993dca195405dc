// EXTENSION bench (beyond the paper): cold-vs-warm sweeps of the
// content-addressed result cache (docs/caching.md).
//
// Runs the three cached flows — calibrated fit, buffering search,
// Monte-Carlo yield — twice against a scratch cache directory: once cold
// (directory wiped) and once warm (same process, memory tier dropped, so
// the second pass exercises the on-disk tier exactly like a fresh
// process would). Asserts the warm results are bit-identical to the cold
// ones and reports the wall-time ratio; cold/warm seconds and speedups
// land as bench.cache.* gauges in this bench's metrics.json artifact
// next to the store's own cache.hit / cache.miss counters.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "buffering/optimize.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "models/proposed.hpp"
#include "sta/calibrated.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "common.hpp"

using namespace pim;
using namespace pim::unit;

namespace {

double seconds_of(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  pim::bench::MetricsArtifact metrics("cache_effect");

  // Scratch cache under the bench output directory: wiped for a true
  // cold pass, shared by both passes, independent of the user's
  // ~/.cache/pim (and of PIM_CACHE / PIM_CACHE_DIR in the environment).
  const std::string cache_dir = pim::bench::out_dir() + "/cache_effect.cache";
  std::filesystem::remove_all(cache_dir);
  cache::set_dir(cache_dir);
  cache::set_mode(cache::Mode::ReadWrite);

  printf("Content-addressed cache, cold vs warm (scratch dir %s)\n\n",
         cache_dir.c_str());

  Table table({"flow", "cold (s)", "warm (s)", "speedup", "identical"});
  CsvWriter csv({"flow", "cold_seconds", "warm_seconds", "speedup", "identical"});
  const auto record = [&](const char* flow, double cold, double warm, bool same) {
    const double speedup = warm > 0.0 ? cold / warm : 0.0;
    table.add_row({flow, format("%.3f", cold), format("%.3f", warm),
                   format("%.0fx", speedup), same ? "yes" : "NO"});
    csv.add_row({flow, format("%.4f", cold), format("%.4f", warm),
                 format("%.2f", speedup), same ? "1" : "0"});
    const std::string prefix = std::string("bench.cache.") + flow;
    obs::registry().gauge(prefix + ".cold_seconds").set(cold);
    obs::registry().gauge(prefix + ".warm_seconds").set(warm);
    obs::registry().gauge(prefix + ".speedup").set(speedup);
    require(same, std::string("cache_effect: warm ") + flow +
                      " result differs from cold — cache is not transparent");
  };

  // --- calibrated fit: the characterization deck is the expensive part.
  const Technology& tech = technology(TechNode::N65);
  TechnologyFit cold_fit, warm_fit;
  const double fit_cold =
      seconds_of([&] { cold_fit = calibrated_fit(tech, Corner{}); });
  cache::Store::global().clear_memory();  // force the disk tier, like a new process
  const double fit_warm =
      seconds_of([&] { warm_fit = calibrated_fit(tech, Corner{}); });
  record("fit", fit_cold, fit_warm, write_fit(warm_fit) == write_fit(cold_fit));

  const ProposedModel model(tech, cold_fit);
  LinkContext ctx;
  ctx.length = 5 * mm;
  ctx.input_slew = 100 * ps;
  ctx.frequency = tech.clock_frequency;

  // --- buffering search across a length sweep (the NoC synthesis inner
  // loop). One knob sweep = many optimize_buffering_cached calls.
  const auto buffering_sweep = [&](std::vector<BufferingResult>& out) {
    out.clear();
    BufferingOptions opt;
    opt.weight = 0.5;
    for (int tenths = 5; tenths <= 60; tenths += 5) {
      LinkContext c = ctx;
      c.length = 0.1 * tenths * mm;
      out.push_back(optimize_buffering_cached(model, c, opt));
    }
  };
  std::vector<BufferingResult> cold_buf, warm_buf;
  const double buf_cold = seconds_of([&] { buffering_sweep(cold_buf); });
  cache::Store::global().clear_memory();
  const double buf_warm = seconds_of([&] { buffering_sweep(warm_buf); });
  bool buf_same = cold_buf.size() == warm_buf.size();
  for (size_t i = 0; buf_same && i < cold_buf.size(); ++i)
    buf_same = warm_buf[i].feasible == cold_buf[i].feasible &&
               warm_buf[i].design.num_repeaters == cold_buf[i].design.num_repeaters &&
               warm_buf[i].design.drive == cold_buf[i].design.drive &&
               warm_buf[i].cost == cold_buf[i].cost &&
               warm_buf[i].estimate.delay == cold_buf[i].estimate.delay;
  record("buffering", buf_cold, buf_warm, buf_same);

  // --- Monte-Carlo yield (per-sample RNG streams; the cache returns the
  // exact sorted delay vector, so quantiles and yields match bit for bit).
  LinkDesign design = cold_buf.back().design;
  const int samples = 4000;
  MonteCarloResult cold_mc, warm_mc;
  const double mc_cold = seconds_of(
      [&] { cold_mc = monte_carlo_link_cached(model, ctx, design, samples, 2026); });
  cache::Store::global().clear_memory();
  const double mc_warm = seconds_of(
      [&] { warm_mc = monte_carlo_link_cached(model, ctx, design, samples, 2026); });
  record("yield", mc_cold, mc_warm,
         warm_mc.delays == cold_mc.delays &&
             warm_mc.nominal_delay == cold_mc.nominal_delay &&
             warm_mc.sigma_delay == cold_mc.sigma_delay);

  printf("%s\n", table.to_string().c_str());
  printf("(warm passes read the on-disk tier — the memory tier is dropped\n"
         " between passes, so these ratios hold across processes too)\n");

  pim::bench::export_csv(csv, "cache_effect.csv");
  cache::set_dir("");
  return 0;
}
