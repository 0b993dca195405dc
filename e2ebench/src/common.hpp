// Shared plumbing for the end-to-end benchmark workloads: run options,
// the report each workload fills, the obs-registry tally the traced run
// reads layer counters from, and small helpers.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "models/link.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace e2e {

namespace obs = pim::obs;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Exec-engine threads every workload pins (pim::exec::set_threads). The
/// benchmark refuses to run on a machine with fewer cores.
inline constexpr int kExecThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string data_dir;  ///< the benchmark's committed inputs (coeffs file)
  std::string work_dir;  ///< scratch for caches, sockets and trace files
};

/// What one workload run measured.
struct Report {
  /// Ops attempted and the ids of the ones that failed (an error, a
  /// refusal under fixed load, or a failed output check).
  int64_t attempted = 0;
  std::set<int64_t> failed;
  std::vector<std::string> failures;  ///< first few failure reasons

  std::map<std::string, double> end_to_end;  ///< generic end-to-end metrics
  std::map<std::string, double> layers;      ///< per-layer metrics (traced run)
  /// The workload's own named metrics, for the human-readable report.
  std::vector<std::pair<std::string, std::string>> named;
  /// Free-form lines for the human-readable report (e.g. ladder steps).
  std::vector<std::string> notes;

  int64_t attempt() { return attempted++; }
  void fail(int64_t op, const std::string& why) {
    failed.insert(op);
    if (failures.size() < 16) failures.push_back(why);
  }
  /// Records op `op` as failed unless `ok`.
  void check(int64_t op, bool ok, const std::string& why) {
    if (!ok) fail(op, why);
  }
  void name(const std::string& metric, double value, const std::string& unit);
};

/// Running totals of the obs registry across pim::api calls. Every
/// pim::api::run_* call zeroes the registry on entry, so the traced run
/// absorbs (adds up, then zeroes) the registry right after each layer
/// call instead of reading it once at the end.
class RegistryTally {
 public:
  void absorb();

  int64_t counter(const std::string& name) const;
  double gauge_total(const std::string& name) const;
  /// Every nonzero reading of a last-value gauge, one per absorb.
  const std::vector<double>& gauge_readings(const std::string& name) const;
  /// Quantile of a registry timer over all absorbed samples, from its
  /// log-2 histogram (bucket upper bounds, the registry's own resolution).
  double timer_quantile_ns(const std::string& name, double q) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, std::vector<double>> readings_;
  std::map<std::string, obs::TimerSnapshot> timers_;
};

/// The exec.* layer metrics (busy fraction, imbalance, queue wait) from
/// the exec engine's own gauges and timer.
void add_exec_layers(const RegistryTally& tally, std::map<std::string, double>& layers);

/// Peak resident set of this process [MB].
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Empties (or creates) `dir`, points the pim result cache at it and drops
/// the cache's memory tier. Resident fits and models survive.
void fresh_store(const std::filesystem::path& dir);

/// fresh_store plus no resident fits: the state of a process that has
/// never calibrated anything.
void fresh_cache(const std::filesystem::path& dir);

/// Total bytes of the regular files under `dir`.
uint64_t tree_bytes(const std::filesystem::path& dir);

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so every input a run generates is a pure function of --seed.
inline uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string sha256_hex(const std::string& text);

/// The model-level context pim::api derives from a 65nm LinkSpec of this
/// length and style ("SS", "DS" or "SH"), for the traced run's direct
/// layer calls.
pim::LinkContext link_context(double length_mm, const std::string& style);

Report run_cold_calibrate(const Options& options, Tracer& tracer);
Report run_yield_sizing(const Options& options, Tracer& tracer);
Report run_serve_mixed(const Options& options, Tracer& tracer);

}  // namespace e2e
