// bench_compare — the regression gate over pim_bench records
// (docs/observability.md).
//
//   bench_compare <baseline BENCH_*.json> <fresh BENCH_*.json>
//
// For every metric in the baseline: the fresh median may exceed the
// baseline median by at most the baseline's per-metric rel_tol, else the
// metric is a REGRESSION. rel_tol 0 marks deterministic counts, which
// must match in both directions (faster is still a drift — the count
// changed). A metric missing from the fresh run is a regression (the
// bench disappeared); metrics only in the fresh run are reported as new.
// Differing machine fingerprints produce a warning, not a failure — the
// committed trajectory may span machines, and tolerances are sized for
// that.
//
// Exit codes: 0 no regressions, 1 regression(s), 2 usage/parse failure.
#include <cmath>
#include <cstdio>
#include <string>

#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/textfile.hpp"

namespace {

using pim::obs::JsonValue;

double number_of(const JsonValue* v, double fallback = 0.0) {
  return (v != nullptr && v->kind == JsonValue::Kind::Number) ? v->number : fallback;
}

std::string fingerprint_text(const JsonValue& doc) {
  const JsonValue* fp = doc.find("fingerprint");
  if (fp == nullptr) return "";
  std::string out;
  for (const auto& [key, value] : fp->members) {
    if (!out.empty()) out += " ";
    out += key + "=" +
           (value.kind == JsonValue::Kind::String ? value.text
                                                  : std::to_string(value.number));
  }
  return out;
}

int run(int argc, char** argv) {
  if (argc != 3) {
    std::fputs("usage: bench_compare <baseline.json> <fresh.json>\n", stderr);
    return 2;
  }
  const JsonValue base = pim::obs::parse_json(pim::read_text_file(argv[1], "bench_compare"));
  const JsonValue fresh = pim::obs::parse_json(pim::read_text_file(argv[2], "bench_compare"));
  const JsonValue* base_metrics = base.find("metrics");
  const JsonValue* fresh_metrics = fresh.find("metrics");
  if (base_metrics == nullptr || fresh_metrics == nullptr) {
    std::fputs("bench_compare: missing 'metrics' object\n", stderr);
    return 2;
  }

  const std::string base_fp = fingerprint_text(base);
  const std::string fresh_fp = fingerprint_text(fresh);
  if (base_fp != fresh_fp)
    std::fprintf(stderr,
                 "bench_compare: warning: fingerprints differ\n  baseline: %s\n"
                 "  fresh:    %s\n",
                 base_fp.c_str(), fresh_fp.c_str());

  int regressions = 0;
  std::printf("%-34s %12s %12s %8s %7s  %s\n", "metric", "baseline", "fresh",
              "delta%", "tol%", "verdict");
  for (const auto& [name, entry] : base_metrics->members) {
    const double base_median = number_of(entry.find("median"));
    const double tol = number_of(entry.find("rel_tol"), 0.5);
    const JsonValue* fresh_entry = fresh_metrics->find(name);
    if (fresh_entry == nullptr) {
      std::printf("%-34s %12.3f %12s %8s %7.0f  REGRESSION (missing)\n",
                  name.c_str(), base_median, "-", "-", tol * 100);
      ++regressions;
      continue;
    }
    const double fresh_median = number_of(fresh_entry->find("median"));
    const double delta_pct =
        base_median != 0.0 ? 100.0 * (fresh_median - base_median) / base_median : 0.0;
    // The epsilon keeps exact self-comparisons from tripping on the
    // JSON round-trip of the medians.
    const bool slower = fresh_median > base_median * (1.0 + tol) + 1e-9;
    const bool drifted =
        tol == 0.0 && std::abs(fresh_median - base_median) > 1e-9;
    const bool bad = slower || drifted;
    std::printf("%-34s %12.3f %12.3f %+7.1f%% %6.0f%%  %s\n", name.c_str(),
                base_median, fresh_median, delta_pct, tol * 100,
                bad ? (drifted && !slower ? "REGRESSION (drift)" : "REGRESSION")
                    : "ok");
    if (bad) ++regressions;
  }
  for (const auto& [name, entry] : fresh_metrics->members) {
    (void)entry;
    if (base_metrics->find(name) == nullptr)
      std::printf("%-34s %12s %12.3f %8s %7s  new\n", name.c_str(), "-",
                  number_of(entry.find("median")), "-", "-");
  }

  if (regressions > 0) {
    std::fprintf(stderr, "bench_compare: %d regression(s) against %s\n",
                 regressions, argv[1]);
    return 1;
  }
  std::fprintf(stderr, "bench_compare: no regressions against %s\n", argv[1]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const pim::Error& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
