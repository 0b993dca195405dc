#include "common.hpp"

#include <algorithm>
#include <cstdio>

#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "sta/calibrated.hpp"
#include "tech/techfile.hpp"
#include "stats.hpp"

namespace e2e {

void Report::name(const std::string& metric, double value, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g %s", value, unit.c_str());
  named.emplace_back(metric, buf);
}

void RegistryTally::absorb() {
  obs::MetricsRegistry& reg = obs::registry();
  const obs::MetricsSnapshot snap = reg.snapshot();
  for (const auto& [name, value] : snap.counters) counters_[name] += value;
  for (const auto& [name, value] : snap.gauges) {
    gauges_[name] += value;
    if (value != 0.0) readings_[name].push_back(value);
  }
  for (const obs::TimerSnapshot& t : snap.timers) {
    if (t.count == 0) continue;
    obs::TimerSnapshot& acc = timers_[t.name];
    acc.max_ns = acc.count == 0 ? t.max_ns : std::max(acc.max_ns, t.max_ns);
    acc.count += t.count;
    acc.total_ns += t.total_ns;
    for (const auto& [upper, n] : t.buckets) {
      auto it = std::find_if(acc.buckets.begin(), acc.buckets.end(),
                             [upper = upper](const auto& b) { return b.first == upper; });
      if (it == acc.buckets.end())
        acc.buckets.emplace_back(upper, n);
      else
        it->second += n;
    }
    std::sort(acc.buckets.begin(), acc.buckets.end());
  }
  reg.reset();
}

int64_t RegistryTally::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryTally::gauge_total(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const std::vector<double>& RegistryTally::gauge_readings(const std::string& name) const {
  static const std::vector<double> none;
  const auto it = readings_.find(name);
  return it == readings_.end() ? none : it->second;
}

double RegistryTally::timer_quantile_ns(const std::string& name, double q) const {
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0.0 : it->second.quantile_ns(q);
}

void add_exec_layers(const RegistryTally& tally, std::map<std::string, double>& layers) {
  const double busy = tally.gauge_total("exec.thread.busy_ns");
  const double idle = tally.gauge_total("exec.thread.idle_ns");
  layers["exec.busy_frac"] = busy + idle == 0 ? 0.0 : busy / (busy + idle);
  layers["exec.imbalance"] = median(tally.gauge_readings("exec.region.imbalance"));
  layers["exec.queue_wait_us_p50"] = tally.timer_quantile_ns("exec.queue.wait", 0.5) / 1e3;
}

void fresh_store(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  pim::cache::set_dir(std::filesystem::absolute(dir).string());
  pim::cache::Store::global().clear_memory();
}

void fresh_cache(const std::filesystem::path& dir) {
  fresh_store(dir);
  pim::clear_resident_fits();
}

uint64_t tree_bytes(const std::filesystem::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  return total;
}

std::string sha256_hex(const std::string& text) { return pim::cache::sha256_hex(text); }

pim::LinkContext link_context(double length_mm, const std::string& style) {
  pim::LinkContext ctx;
  ctx.length = length_mm * 1e-3;
  ctx.style = style == "SS"   ? pim::DesignStyle::SingleSpacing
              : style == "DS" ? pim::DesignStyle::DoubleSpacing
                              : pim::DesignStyle::Shielded;
  ctx.input_slew = 100e-12;
  ctx.frequency = pim::technology_from_spec("65nm").clock_frequency;
  return ctx;
}

}  // namespace e2e
