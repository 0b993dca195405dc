// Shared helpers for the bench binaries: cached calibrated fits (so a
// re-run of a bench does not repeat the simulation-heavy
// characterization) and output-directory handling. Coefficient caches and
// CSV exports land in pim::out_dir() — PIM_OUT_DIR or set_out_dir()
// when configured, else ./bench_out of the invoking directory.
#pragma once

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "exec/engine.hpp"
#include "models/proposed.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sta/calibrated.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/paths.hpp"

namespace pim::bench {

inline std::string out_dir() { return ensure_out_dir(); }

/// The trio nearly every bench binary opens with: the built-in
/// technology, its cached calibrated fit, and the proposed model bound to
/// both. The model copies the fit, so the struct is freely movable.
struct BenchModel {
  const Technology& tech;
  TechnologyFit fit;
  ProposedModel model;
};

/// technology(node) and its resident model over the calibrated fit
/// cached under bench_out/. The model's provenance is the fit's cache
/// key, so cached results keyed on it record the fit as their upstream
/// artifact.
inline BenchModel cached_model(TechNode node) {
  CharacterizationOptions copt;
  copt.drives = {2, 4, 8, 16, 32, 64};
  const std::string path = out_dir() + "/coeffs_" + tech_node_name(node) + ".pimfit";
  const Technology& tech = technology(node);
  const std::shared_ptr<const ProposedModel> model = resident_model(tech, Corner{}, path, copt);
  return {tech, model->fit(), *model};
}

/// Calibrated fit for `node`, cached under bench_out/.
inline TechnologyFit cached_fit(TechNode node) { return cached_model(node).fit; }

/// The standard bench link context: length in mm, 100 ps input slew, and
/// the technology's default clock.
inline LinkContext link_context(const Technology& tech, double length_mm,
                                double input_slew_ps = 100.0) {
  LinkContext ctx;
  ctx.length = length_mm * 1e-3;
  ctx.input_slew = input_slew_ps * 1e-12;
  ctx.frequency = tech.clock_frequency;
  return ctx;
}

/// Writes a CSV into bench_out and notes it on stderr.
inline void export_csv(const CsvWriter& csv, const std::string& name) {
  const std::string path = out_dir() + "/" + name;
  csv.write_file(path);
  log_line(LogLevel::Warn, "wrote " + path);
}

/// RAII metrics collection for one bench binary: enables the registry on
/// construction and writes bench_out/<name>.metrics.json on destruction.
/// Pass collect=false (e.g. for overhead-sensitive timing benches) to keep
/// collection off unless the PIM_METRICS environment variable forces it on.
class MetricsArtifact {
 public:
  explicit MetricsArtifact(std::string name, bool collect = true)
      : name_(std::move(name)),
        collect_(collect || std::getenv("PIM_METRICS") != nullptr),
        start_ns_(obs::now_ns()) {
    if (collect_) obs::set_enabled(true);
  }
  ~MetricsArtifact() {
    // Every bench run appends to the run ledger (same record shape as the
    // CLI), whether or not metric collection was on, so a bench_out
    // directory reads as a complete run history. PIM_LEDGER=off opts out.
    if (const char* env = std::getenv("PIM_LEDGER");
        env == nullptr || std::string(env) != "off") {
      obs::LedgerRecord record;
      record.command = "bench." + name_;
      record.cache_mode = cache::mode_name(cache::mode());
      record.threads = exec::threads();
      record.wall_ns = obs::now_ns() - start_ns_;
      obs::append_ledger_record(out_dir() + "/ledger.jsonl", record);
    }
    if (!collect_) return;
    const std::string path = out_dir() + "/" + name_ + ".metrics.json";
    obs::save_metrics_json(path);
    log_line(LogLevel::Warn, "wrote " + path);
  }
  MetricsArtifact(const MetricsArtifact&) = delete;
  MetricsArtifact& operator=(const MetricsArtifact&) = delete;

 private:
  std::string name_;
  bool collect_;
  int64_t start_ns_;
};

/// One point of a thread-scaling sweep.
struct ScalingPoint {
  int threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;  ///< wall time at 1 thread / wall time at `threads`
};

/// Runs `work` once per thread count (1, 2, 4, ... up to `max_threads`,
/// always including `max_threads` itself), timing each run and recording
/// bench.scaling.<name>.t<N>.seconds / .speedup gauges so the numbers land
/// in the bench's metrics.json artifact. The engine's parallel flows are
/// deterministic in their results, so every run computes the same answer —
/// only the wall time may differ. Restores the ambient thread setting
/// before returning.
inline std::vector<ScalingPoint> thread_scaling_sweep(
    const std::string& name, int max_threads, const std::function<void()>& work) {
  std::vector<int> counts;
  for (int t = 1; t < max_threads; t *= 2) counts.push_back(t);
  counts.push_back(max_threads);
  std::vector<ScalingPoint> points;
  for (int t : counts) {
    exec::set_threads(t);
    const auto start = std::chrono::steady_clock::now();
    work();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    ScalingPoint p;
    p.threads = t;
    p.seconds = seconds;
    p.speedup = points.empty() || seconds <= 0.0 ? 1.0
                                                 : points.front().seconds / seconds;
    points.push_back(p);
    const std::string prefix = "bench.scaling." + name + ".t" + std::to_string(t);
    obs::registry().gauge(prefix + ".seconds").set(p.seconds);
    obs::registry().gauge(prefix + ".speedup").set(p.speedup);
    log_line(LogLevel::Warn, name + " threads=" + std::to_string(t) + " " +
                                 std::to_string(seconds) + " s (x" +
                                 std::to_string(p.speedup) + ")");
  }
  exec::set_threads(0);
  return points;
}

// ---------------------------------------------------------------------------
// Bench-case registry (the pim_bench harness; docs/observability.md)
// ---------------------------------------------------------------------------

/// One measured scalar a bench case reports. `rel_tol` is the fractional
/// headroom bench_compare grants before calling a higher value a
/// regression; 0 marks a deterministic count that must not change at all.
struct BenchMetric {
  std::string name;  ///< e.g. "ns_per_eval"; reported as "<case>.<name>"
  double value = 0.0;
  std::string unit;     ///< "ns", "us", "count", ...
  double rel_tol = 0.5; ///< generous by default: the gate hunts real regressions
};

/// A registered benchmark: a closure returning its metrics for one
/// repetition. Smoke cases must be cheap (no characterization) — they run
/// in the tier-1 ctest pass.
struct BenchCase {
  std::string name;
  bool smoke = false;
  std::function<std::vector<BenchMetric>()> fn;
};

/// All registered cases, in registration order.
inline std::vector<BenchCase>& bench_registry() {
  static std::vector<BenchCase> cases;
  return cases;
}

/// File-scope registrar: `static BenchRegistrar r{{"name", true, fn}};`.
struct BenchRegistrar {
  explicit BenchRegistrar(BenchCase c) { bench_registry().push_back(std::move(c)); }
};

}  // namespace pim::bench
