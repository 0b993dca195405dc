// e2e_bench — runs one workload of the end-to-end benchmark and prints
// its metrics. The last line of stdout is the result object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). See README.md for the workloads and metric definitions.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --data <dir> --work <dir>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/store.hpp"
#include "common.hpp"
#include "exec/engine.hpp"
#include "util/log.hpp"

namespace {

using namespace e2e;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, identical for every workload; README.md maps
// each to the workload's own named metric.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
    {"op_p50_ms", "ms"},      {"op_tail_ms", "ms"},  {"ops_per_s", "1/s"},
};

// Per-layer metrics of the traced run. Every workload prints all of them;
// one the workload does not reach or does not measure reads 0.
constexpr MetricDef kLayers[] = {
    {"charlib.characterize_s", "s"},
    {"charlib.decks", "count"},
    {"charlib.fit_s", "s"},
    {"sta.composition_s", "s"},
    {"sta.signoff_sims", "count"},
    {"sta.signoff_ms_mean", "ms"},
    {"spice.transient_runs", "count"},
    {"spice.timesteps", "count"},
    {"spice.newton_iters", "count"},
    {"spice.newton_per_step", "ratio"},
    {"numeric.lu_factorizations", "count"},
    {"numeric.leastsq_solves", "count"},
    {"exec.busy_frac", "frac"},
    {"exec.imbalance", "ratio"},
    {"exec.queue_wait_us_p50", "us"},
    {"variation.mc_ms_p50", "ms"},
    {"variation.ns_per_sample", "ns"},
    {"models.eval_ns", "ns"},
    {"models.evaluations", "count"},
    {"buffering.search_us", "us"},
    {"buffering.evaluations", "count"},
    {"cache.write_ms_p50", "ms"},
    {"cache.read_ms_p50", "ms"},
    {"cache.hits", "count"},
    {"cache.disk_hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.writes", "count"},
    {"cache.bytes_written", "bytes"},
    {"api.run_evaluate_us", "us"},
    {"api.execute_line_us.evaluate", "us"},
    {"api.execute_line_us.buffer", "us"},
    {"api.execute_line_us.yield", "us"},
    {"api.wire_parse_us", "us"},
    {"api.wire_write_us", "us"},
    {"obs.reset_us", "us"},
    {"serve.rtt_p50_us", "us"},
    {"serve.rtt_p99_us", "us"},
    {"serve.server_p50_us", "us"},
    {"serve.server_p99_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.queue_depth_max", "count"},
    {"serve.rejected", "count"},
    {"serve.deadline_rtt_p90_us", "us"},
    {"serve.plain_rtt_p90_us", "us"},
    {"serve.generator_late_us_p99", "us"},
    {"serve.store_hit_rate", "frac"},
    {"serve.sustained_rps", "1/s"},
    {"serve.burst_rps", "1/s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

// Seeds 1-60 and 101-110 were used while the workload constants were
// tuned; the holdout seed never was, so a claim can be re-checked on
// it.
constexpr uint64_t kHoldoutSeed = 9001;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// {total, steal} jiffies of all CPUs from /proc/stat: on a virtual
/// machine, steal is the time the host ran something else, which inflates
/// every wall-clock metric of the run.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, v = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload cold_calibrate|yield_sizing|"
               "serve_mixed --seed N --seconds S --trace 0|1 --data DIR --work DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--data") {
      opt.data_dir = value;
    } else if (key == "--work") {
      opt.work_dir = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  Report (*run)(const Options&, Tracer&) = nullptr;
  if (opt.workload == "cold_calibrate") run = run_cold_calibrate;
  if (opt.workload == "yield_sizing") run = run_yield_sizing;
  if (opt.workload == "serve_mixed") run = run_serve_mixed;
  if (run == nullptr) return usage("unknown workload");
  if (!have_seed || opt.seconds <= 0 || opt.data_dir.empty() || opt.work_dir.empty())
    return usage("--seed, --seconds, --data and --work are required");

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < kExecThreads) {
    std::fprintf(stderr,
                 "e2e_bench: refusing to run: the workloads pin %d exec threads but this "
                 "machine has %ld cores\n",
                 kExecThreads, nproc);
    return 3;
  }
  std::filesystem::create_directories(opt.work_dir);
  pim::set_log_level(pim::LogLevel::Warn);
  pim::exec::set_threads(kExecThreads);
  pim::cache::set_mode(pim::cache::Mode::ReadWrite);

  utsname uts{};
  uname(&uts);
  std::printf("run: {\"workload\":%s,\"seed\":%llu,\"holdout_seed\":%llu,\"seed_is_holdout\":%s,"
              "\"seconds\":%g,\"trace\":%d,\"exec_threads\":%d,\"nproc\":%ld,\"cpu\":%s,"
              "\"kernel\":%s,\"compiler\":%s}\n",
              json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(kHoldoutSeed),
              opt.seed == kHoldoutSeed ? "true" : "false", opt.seconds, opt.trace ? 1 : 0,
              kExecThreads, nproc, json_string(cpu_model()).c_str(),
              json_string(std::string(uts.sysname) + " " + uts.release).c_str(),
              json_string(__VERSION__).c_str());
  std::fflush(stdout);

  // Workloads switch the tracer on for their traced passes only.
  Tracer tracer(false);
  Report report;
  const auto [total0, steal0] = cpu_jiffies();
  try {
    report = run(opt, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s could not run: %s\n", opt.workload.c_str(), e.what());
    return 4;
  }
  const auto [total1, steal1] = cpu_jiffies();
  if (total1 > total0)
    report.name("host_steal_pct", 100.0 * (steal1 - steal0) / (total1 - total0), "%");
  report.end_to_end["peak_rss_mb"] = peak_rss_mb();
  report.end_to_end["ok_frac"] =
      report.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(report.failed.size()) / static_cast<double>(report.attempted);

  report.name("failed_frac", 1.0 - report.end_to_end["ok_frac"], "frac");
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  for (const auto& [name, value] : report.named)
    std::printf("%-28s %s\n", name.c_str(), value.c_str());
  for (const std::string& why : report.failures) std::printf("FAILED: %s\n", why.c_str());

  bool complete = true;
  std::string metrics;
  auto emit = [&](const MetricDef& def, double value) {
    metrics += std::string(metrics.empty() ? "" : ",") + json_string(def.name) +
               ":{\"value\":" + json_number(value) + ",\"unit\":" + json_string(def.unit) + "}";
  };
  if (opt.trace) {
    report.layers["trace.spans"] = static_cast<double>(tracer.size());
    const std::string path = opt.work_dir + "/" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".trace.json";
    std::printf("chrome trace: %s (%s)\n", path.c_str(),
                tracer.write_chrome(path) ? "written" : "WRITE FAILED");
    std::printf("\n%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, t] : tracer.self_times())
      std::printf("%-34s %8lld %12.3f %12.3f\n", name.c_str(), static_cast<long long>(t.count),
                  t.total_ns / 1e6, t.self_ns / 1e6);
    std::printf("\n");
    for (const auto& [name, value] : report.layers) {
      bool known = false;
      for (const MetricDef& def : kLayers) known = known || name == def.name;
      if (!known) {
        std::fprintf(stderr, "e2e_bench: workload set unknown layer metric %s\n", name.c_str());
        complete = false;
      }
    }
    for (const MetricDef& def : kLayers) {
      const auto it = report.layers.find(def.name);
      const double value = it == report.layers.end() ? 0.0 : it->second;
      std::printf("%-34s %14.6g %s\n", def.name, value, def.unit);
      emit(def, value);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = report.end_to_end.find(def.name);
      if (it == report.end_to_end.end()) {
        std::fprintf(stderr, "e2e_bench: %s was not measured\n", def.name);
        complete = false;
        continue;
      }
      std::printf("%-28s %14.6g %s\n", def.name, it->second, def.unit);
      emit(def, it->second);
    }
  }
  const bool correct = complete && report.failed.empty() && report.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%zu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<long long>(report.attempted),
              report.failed.size(), metrics.c_str());
  return complete ? 0 : 4;
}
