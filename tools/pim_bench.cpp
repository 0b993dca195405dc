// pim_bench — the self-profiling benchmark harness behind the repo's
// perf trajectory (docs/observability.md).
//
// Runs every registered bench case (bench/common.hpp registry) for N
// repetitions, reports median + IQR per metric, stamps the record with
// the library versions and a machine fingerprint, and writes one
// canonical `BENCH_<UTC-date>.json`. Committed snapshots of that file at
// the repo root ARE the perf trajectory; scripts/check_perf.sh compares
// a fresh run against the latest one via tools/bench_compare.
//
//   pim_bench [--reps N] [--smoke] [--bench a,b] [--out file] [--list]
//
// --smoke restricts to the cheap cases (no characterization) — the
// tier-1 ctest case runs exactly that. Medians are reported so a single
// noisy repetition cannot fake a regression; deterministic counts carry
// rel_tol 0 and must not move at all.
#include <sys/utsname.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/wire.hpp"
#include "buffering/optimize.hpp"
#include "cache/invalidate.hpp"
#include "cache/memoize.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "common.hpp"
#include "spice/batch.hpp"
#include "spice/plan.hpp"
#include "spice/transient.hpp"
#include "deadline/deadline.hpp"
#include "models/baseline.hpp"
#include "numeric/banded.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "serving_load.hpp"
#include "util/alloc_counter.hpp"
#include "util/version.hpp"
#include "variation/variation.hpp"

namespace pim::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- cases

// Closed-form baseline model throughput: no characterization, so this is
// the smoke-mode canary for the per-evaluation hot path.
std::vector<BenchMetric> bench_baseline_eval() {
  const Technology& tech = technology(TechNode::N65);
  const BakogluModel model(tech);
  const LinkContext ctx = link_context(tech, 5.0);
  LinkDesign design;
  design.num_repeaters = 5;
  constexpr int kEvals = 20000;
  double sink = 0.0;
  const auto start = Clock::now();
  for (int i = 0; i < kEvals; ++i) sink += model.evaluate(ctx, design).delay;
  const double ns = seconds_since(start) * 1e9 / kEvals;
  if (sink == 0.0) std::fputs("", stdout);  // keep the loop observable
  return {{"ns_per_eval", ns, "ns", 0.6}};
}

// Calibrated proposed-model throughput — the model the paper's tables
// rest on. Uses the cached fit (bench_out/coeffs_65nm.pimfit).
std::vector<BenchMetric> bench_model_eval() {
  static const BenchModel bm = cached_model(TechNode::N65);
  const LinkContext ctx = link_context(bm.tech, 5.0);
  LinkDesign design;
  design.num_repeaters = 5;
  constexpr int kEvals = 20000;
  double sink = 0.0;
  const auto start = Clock::now();
  for (int i = 0; i < kEvals; ++i) sink += bm.model.evaluate(ctx, design).delay;
  const double ns = seconds_since(start) * 1e9 / kEvals;
  if (sink == 0.0) std::fputs("", stdout);
  return {{"ns_per_eval", ns, "ns", 0.6}};
}

// Full buffering search (uncached path): wall time plus the candidate
// count, which is deterministic and must never drift.
std::vector<BenchMetric> bench_buffering_search() {
  static const BenchModel bm = cached_model(TechNode::N65);
  const LinkContext ctx = link_context(bm.tech, 5.0);
  const auto start = Clock::now();
  const BufferingResult r = optimize_buffering(bm.model, ctx);
  const double us = seconds_since(start) * 1e6;
  return {{"us_per_search", us, "us", 0.6},
          {"evaluations", static_cast<double>(r.evaluations), "count", 0.0}};
}

// Monte-Carlo yield sweep: wall time plus the seeded mean delay, which
// pins the sampler's determinism into the trajectory.
std::vector<BenchMetric> bench_mc_yield() {
  static const BenchModel bm = cached_model(TechNode::N65);
  const LinkContext ctx = link_context(bm.tech, 5.0);
  LinkDesign design;
  design.num_repeaters = 5;
  const auto start = Clock::now();
  const MonteCarloResult mc = monte_carlo_link(bm.model, ctx, design, 200, 2026);
  const double ms = seconds_since(start) * 1e3;
  return {{"ms_per_sweep", ms, "ms", 0.6},
          {"mean_delay_ps", mc.mean_delay * 1e12, "ps", 0.0}};
}

// One Newton iteration's linear algebra for a lane pair of the 140-row,
// half-bandwidth-5 coupled bundle: copy the assembled images, factor and
// solve, through the interleaved BandedCohort kernel against two scalar
// BandedLu(a).solve(b). The cohort leg reuses its storage; each reference
// call also allocates (a BandedMatrix copy to factor and the solution
// Vector), so the ratio includes that allocation, not only the kernel.
// Returns microseconds per pair for {cohort, reference}, after checking
// that both give the same bits.
std::pair<double, double> time_banded_pair() {
  constexpr size_t kRows = 140, kBand = 5, kLanes = 2;
  constexpr int kPairs = 2000;
  Rng rng(2026);
  std::vector<BandedMatrix> a(kLanes, BandedMatrix(kRows, kBand, kBand));
  std::vector<Vector> b(kLanes, Vector(kRows));
  BandedCohort image(kRows, kBand, kBand);
  image.set_lanes(kLanes);
  for (size_t l = 0; l < kLanes; ++l)
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = r > kBand ? r - kBand : 0; c <= std::min(kRows - 1, r + kBand); ++c) {
        const double v = r == c ? 4.0 * kBand + rng.uniform(0.0, 1.0) : rng.uniform(-1.0, 1.0);
        a[l].add(r, c, v);
        image.value(band_slot(r, c, kBand, kBand), l) = v;
      }
      b[l][r] = rng.uniform(-1.0, 1.0);
      image.rhs(r, l) = b[l][r];
    }

  BandedCohort cohort = image;
  std::vector<unsigned char> active(kLanes);
  auto start = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    cohort = image;
    active.assign(kLanes, 1);
    cohort.factor(active);
    cohort.solve(active);
  }
  const double cohort_us = seconds_since(start) * 1e6 / kPairs;

  std::vector<Vector> x(kLanes);
  start = Clock::now();
  for (int i = 0; i < kPairs; ++i)
    for (size_t l = 0; l < kLanes; ++l) x[l] = BandedLu(a[l]).solve(b[l]);
  const double reference_us = seconds_since(start) * 1e6 / kPairs;

  bool same = active[0] && active[1];
  for (size_t l = 0; l < kLanes; ++l)
    for (size_t r = 0; r < kRows; ++r)
      same = same && std::memcmp(&x[l][r], &cohort.rhs(r, l), sizeof(double)) == 0;
  require(same, "transient_kernel: cohort pair diverged from two BandedLu solves");
  return {cohort_us, reference_us};
}

// Charlib sweep A/B over the same cell: the scalar reference engine (one
// netlist build + solve per table point) against the batched
// compiled-plan path the sweeps now run on (docs/kernels.md). The tables
// must match bit for bit — the ratio is only meaningful for identical
// results — and check_perf.sh gates ms_per_sweep_reference /
// ms_per_sweep_batched at >= 2x, and us_per_pair_reference /
// us_per_pair_cohort (time_banded_pair) at >= 1.3x.
// device_bypass_frac is the share of the batched sweep's device
// evaluations that the bypass memo served (docs/kernels.md, "Device
// bypass"), and stopped_frac the share of its transient runs that ended
// at their last measured crossing ("Early exit"); both are counted in an
// untimed rerun so the engine's phase clocks stay out of
// ms_per_sweep_batched.
std::vector<BenchMetric> bench_transient_kernel() {
  const Technology& tech = technology(TechNode::N65);
  CharacterizationOptions opt;
  opt.slew_axis = {20e-12, 100e-12, 300e-12};
  opt.fanout_axis = {2.0, 8.0, 20.0};
  CharacterizationOptions ref_opt = opt;
  ref_opt.reference_engine = true;

  auto start = Clock::now();
  const RepeaterCell ref = characterize_cell(tech, CellKind::Buffer, 8, ref_opt);
  const double ref_ms = seconds_since(start) * 1e3;
  start = Clock::now();
  const RepeaterCell fast = characterize_cell(tech, CellKind::Buffer, 8, opt);
  const double fast_ms = seconds_since(start) * 1e3;

  const TimingTable* a[2] = {&ref.rise, &ref.fall};
  const TimingTable* b[2] = {&fast.rise, &fast.fall};
  for (int e = 0; e < 2; ++e)
    for (size_t i = 0; i < a[e]->slew_axis.size(); ++i)
      for (size_t j = 0; j < a[e]->load_axis.size(); ++j)
        require(a[e]->delay(i, j) == b[e]->delay(i, j) &&
                    a[e]->out_slew(i, j) == b[e]->out_slew(i, j),
                "transient_kernel: batched sweep diverged from the reference engine");
  const auto [cohort_us, reference_us] = time_banded_pair();

  obs::MetricShard counted;
  {
    const bool was_enabled = obs::enabled();
    obs::ShardScope scope(counted);
    obs::set_enabled(true);
    characterize_cell(tech, CellKind::Buffer, 8, opt);
    obs::set_enabled(was_enabled);
  }
  const double evaluations = static_cast<double>(
      counted.counted(obs::registry().counter("spice.device.evaluations")));
  const double bypass =
      static_cast<double>(counted.counted(obs::registry().counter("spice.device.bypass")));
  const double runs =
      static_cast<double>(counted.counted(obs::registry().counter("spice.transient.runs")));
  const double stopped = static_cast<double>(
      counted.counted(obs::registry().counter("spice.transient.stopped")));
  require(evaluations > 0.0 && runs > 0.0,
          "transient_kernel: the batched sweep evaluated no device");
  return {{"ms_per_sweep_reference", ref_ms, "ms", 0.6},
          {"ms_per_sweep_batched", fast_ms, "ms", 0.6},
          {"device_bypass_frac", bypass / evaluations, "frac", 0.0},
          {"stopped_frac", stopped / runs, "frac", 0.0},
          {"us_per_pair_cohort", cohort_us, "us", 0.6},
          {"us_per_pair_reference", reference_us, "us", 0.6}};
}

// The whole cold-calibration path: one 65nm characterize -> fit ->
// composition-calibrate with the result cache off
// and one exec thread. The canonical .pimfit is asserted in-bench by its
// SHA-256. The Newton timesteps and iterations of that path are counted
// in an untimed rerun (the engine's phase clocks stay out of `ms`); they
// are deterministic, so they carry rel_tol 0 and give the same verdict on
// any machine.
std::vector<BenchMetric> bench_cold_fit() {
  constexpr const char* kCanonicalFit =
      "26450859e2ce6f25607d98a1b45a82c7f75e3c471f08098ec16985f0c9686f33";
  const cache::Mode mode = cache::mode();
  cache::set_mode(cache::Mode::Off);
  exec::set_threads(1);
  const auto cold_fit = [&] {
    const std::string text = write_fit(calibrated_fit(technology(TechNode::N65), Corner{}));
    require(cache::sha256_hex(text) == kCanonicalFit,
            "cold_fit: the 65nm fit differs from the canonical .pimfit");
  };
  const auto start = Clock::now();
  cold_fit();
  const double ms = seconds_since(start) * 1e3;
  obs::MetricShard counted;
  {
    const bool was_enabled = obs::enabled();
    obs::ShardScope scope(counted);
    obs::set_enabled(true);
    cold_fit();
    obs::set_enabled(was_enabled);
  }
  exec::set_threads(0);
  cache::set_mode(mode);
  const auto count = [&](const char* name) {
    return static_cast<double>(counted.counted(obs::registry().counter(name)));
  };
  return {{"ms", ms, "ms", 0.6},
          {"timesteps", count("spice.timestep.count"), "count", 0.0},
          {"newton_iterations", count("spice.newton.iterations"), "count", 0.0}};
}

// Monte-Carlo cost centers A/B, both legs asserted bit-identical
// in-bench. Deck level: 32 width/load-perturbed variants of one inverter
// deck run as a single lockstep transient batch vs scalar reference runs
// of the same perturbed netlists. Model level: the per-sample evaluation
// monte_carlo_link historically performed (construct a ProposedModel per
// corner, which hashes the fit into a cache signature) vs the
// evaluate_link fast path it uses now; check_perf.sh gates the
// model-path ratio at >= 3x — the speedup behind mc_yield.
std::vector<BenchMetric> bench_mc_batch() {
  const Technology& tech = technology(TechNode::N65);
  const RepeaterSizing sz = repeater_sizing(tech, CellKind::Inverter, 8);
  const double load0 = 10e-15;
  const auto build_deck = [&](double wn, double wp, double load) {
    struct Deck {
      Circuit c;
      NodeId in = 0, out = 0;
    } d;
    const NodeId vdd = d.c.add_node("vdd");
    d.in = d.c.add_node("in");
    d.out = d.c.add_node("out");
    d.c.add_vsource(vdd, Waveform::dc(tech.vdd));
    d.c.add_vsource(d.in, Waveform::ramp(0.0, tech.vdd, 20e-12, 50e-12));
    d.c.add_mosfet(MosType::Nmos, tech.nmos, wn, d.in, d.out, d.c.ground());
    d.c.add_mosfet(MosType::Pmos, tech.pmos, wp, d.in, d.out, vdd);
    d.c.add_capacitor(d.out, d.c.ground(), load);
    return d;
  };
  TransientOptions topt;
  topt.t_stop = 0.5e-9;
  topt.dt = 1e-12;

  constexpr int kLanes = 32;
  Rng rng(2026);
  std::vector<LaneSpec> lanes(kLanes);
  std::vector<std::array<double, 3>> corners(kLanes);  // wn, wp, load
  for (int i = 0; i < kLanes; ++i) {
    corners[i] = {sz.wn_out * rng.normal(1.0, 0.05),
                  sz.wp_out * rng.normal(1.0, 0.05),
                  load0 * rng.normal(1.0, 0.05)};
    lanes[i].mosfet_width = {{0, corners[i][0]}, {1, corners[i][1]}};
    lanes[i].cap_farads = {{0, corners[i][2]}};
  }

  const auto base = build_deck(sz.wn_out, sz.wp_out, load0);
  auto start = Clock::now();
  const CompiledCircuit plan = CompiledCircuit::compile(base.c);
  const std::vector<Expected<TransientResult>> batch =
      run_transient_batch(plan, topt, {base.in, base.out}, lanes);
  const double batch_us = seconds_since(start) * 1e6 / kLanes;

  start = Clock::now();
  std::vector<TransientResult> solo;
  solo.reserve(kLanes);
  for (int i = 0; i < kLanes; ++i) {
    const auto deck = build_deck(corners[i][0], corners[i][1], corners[i][2]);
    solo.push_back(run_transient_reference(deck.c, topt, {deck.in, deck.out}));
  }
  const double solo_us = seconds_since(start) * 1e6 / kLanes;
  for (int i = 0; i < kLanes; ++i) {
    const TransientResult& lane = batch[i].value();
    bool same = lane.time == solo[i].time && lane.traces.size() == solo[i].traces.size();
    for (size_t t = 0; same && t < lane.traces.size(); ++t)
      same = lane.traces[t].node == solo[i].traces[t].node &&
             lane.traces[t].values == solo[i].traces[t].values;
    require(same, "mc_batch: lockstep lane diverged from its scalar reference run");
  }

  static const BenchModel bm = cached_model(TechNode::N65);
  const LinkContext ctx = link_context(bm.tech, 5.0);
  LinkDesign design;
  design.num_repeaters = 5;
  constexpr int kSamples = 200;
  double sink_model = 0.0;
  start = Clock::now();
  for (int i = 0; i < kSamples; ++i) {
    const ProposedModel per_sample(bm.tech, bm.fit);
    sink_model += per_sample.evaluate(ctx, design).delay;
  }
  const double model_us = seconds_since(start) * 1e6 / kSamples;
  double sink_fast = 0.0;
  start = Clock::now();
  for (int i = 0; i < kSamples; ++i)
    sink_fast += evaluate_link(bm.tech, bm.fit, ctx, design).delay;
  const double fast_us = seconds_since(start) * 1e6 / kSamples;
  require(sink_model == sink_fast,
          "mc_batch: evaluate_link diverged from ProposedModel::evaluate");

  return {{"us_per_lane_batched", batch_us, "us", 0.6},
          {"us_per_lane_reference", solo_us, "us", 0.6},
          {"us_per_sample_modelpath", model_us, "us", 0.6},
          {"us_per_sample_fastpath", fast_us, "us", 0.8}};
}

// The number codec under every cache payload (util/strings.hpp): encode
// and decode a 20,000-delay MonteCarloResult, the payload of a yield run,
// through cache::Payload, against an in-bench snprintf("%.17g") / strtod
// reference of the same text. The reference must produce the same bytes
// and bits before any time is reported. check_perf.sh gates the reference
// / codec ratio at >= 3x for the encode, the cost that dominated a
// first-pass yield run, and at >= 1.5x for the decode. The payload digest
// an entry write pays is timed through the dispatched compression
// (SHA-NI where the CPU has it) and through the portable loop; the two
// digests must match. That ratio depends on the CPU, so it has no floor.
std::vector<BenchMetric> bench_payload_codec() {
  constexpr int kDelays = 20000;
  constexpr int kRounds = 3;
  Rng rng(2026);
  MonteCarloResult mc;
  for (int i = 0; i < kDelays; ++i) mc.delays.push_back(6e-10 * rng.normal(1.0, 0.05));
  std::sort(mc.delays.begin(), mc.delays.end());
  mc.nominal_delay = 6e-10;
  mc.mean_delay = mc.delays[kDelays / 2];
  mc.sigma_delay = 3e-11 * rng.normal(1.0, 0.05);
  mc.mean_power = 1e-3 * rng.normal(1.0, 0.05);
  using Codec = cache::Payload<MonteCarloResult>;

  const auto reference_encode = [&] {
    std::string out;
    char buf[32];
    const auto line = [&](const char* key, double v) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out.append(key).append(1, ' ').append(buf).append(1, '\n');
    };
    line("nominal_delay", mc.nominal_delay);
    line("mean_delay", mc.mean_delay);
    line("sigma_delay", mc.sigma_delay);
    line("mean_power", mc.mean_power);
    out.append("failed_samples ").append(std::to_string(mc.failed_samples)).append("\n");
    out.append("delays");
    for (double d : mc.delays) {
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out.append(1, ' ').append(buf);
    }
    out += '\n';
    return out;
  };
  // Every number of the payload, in order, each read by strtod.
  const auto reference_decode = [](const std::string& text) {
    std::vector<double> values;
    for (const char* p = text.c_str(); *p != '\0';) {
      // Skip keys and separators: no key holds a digit, '-' or '.'.
      while (*p != '\0' && !std::isdigit(static_cast<unsigned char>(*p)) && *p != '-' &&
             *p != '.')
        ++p;
      if (*p == '\0') break;
      char* end = nullptr;
      values.push_back(std::strtod(p, &end));
      p = end;
    }
    return values;
  };

  std::string text, reference;
  MonteCarloResult back;
  std::vector<double> reference_values;
  auto start = Clock::now();
  for (int r = 0; r < kRounds; ++r) text = Codec::encode(mc);
  const double encode_us = seconds_since(start) * 1e6 / kRounds;
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) back = Codec::decode(text);
  const double decode_us = seconds_since(start) * 1e6 / kRounds;
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) reference = reference_encode();
  const double ref_encode_us = seconds_since(start) * 1e6 / kRounds;
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) reference_values = reference_decode(reference);
  const double ref_decode_us = seconds_since(start) * 1e6 / kRounds;
  std::string digest, portable_digest;
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) digest = cache::sha256_hex(text);
  const double digest_us = seconds_since(start) * 1e6 / kRounds;
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) portable_digest = cache::detail::sha256_hex_portable(text);
  const double digest_portable_us = seconds_since(start) * 1e6 / kRounds;

  require(text == reference, "payload_codec: encode differs from the %.17g reference");
  require(digest == portable_digest,
          "payload_codec: dispatched and portable payload digests differ");
  std::vector<double> values = {back.nominal_delay, back.mean_delay, back.sigma_delay,
                                back.mean_power, static_cast<double>(back.failed_samples)};
  values.insert(values.end(), back.delays.begin(), back.delays.end());
  require(values.size() == reference_values.size() &&
              std::memcmp(values.data(), reference_values.data(),
                          values.size() * sizeof(double)) == 0,
          "payload_codec: decode differs from the strtod reference");
  return {{"encode_us", encode_us, "us", 0.6},
          {"decode_us", decode_us, "us", 0.6},
          {"encode_us_reference", ref_encode_us, "us", 0.6},
          {"decode_us_reference", ref_decode_us, "us", 0.6},
          {"digest_us", digest_us, "us", 0.6},
          {"digest_us_portable", digest_portable_us, "us", 0.6}};
}

// Cache tiers in isolation, on a scratch store: memory-hit and disk-hit
// (read + decode + verify) latency for a 4 KiB payload.
std::vector<BenchMetric> bench_cache_roundtrip() {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "pim_bench_cache").string();
  fs::remove_all(root);
  cache::Store::Options opt;
  opt.disk_dir = root;
  cache::Store store(opt);
  const std::string payload(4096, 'x');
  constexpr int kKeys = 64;
  std::vector<cache::CacheKey> keys;
  for (int i = 0; i < kKeys; ++i) {
    cache::KeyBuilder kb("bench");
    kb.field("i", static_cast<int64_t>(i));
    keys.push_back(kb.finish());
    store.put(keys.back(), payload);
  }
  constexpr int kGets = 2000;
  auto start = Clock::now();
  for (int i = 0; i < kGets; ++i) (void)store.get(keys[i % kKeys]);
  const double mem_ns = seconds_since(start) * 1e9 / kGets;
  store.clear_memory();
  constexpr int kDiskGets = 200;
  start = Clock::now();
  for (int i = 0; i < kDiskGets; ++i) {
    (void)store.get(keys[i % kKeys]);
    if (i % kKeys == kKeys - 1) store.clear_memory();
  }
  const double disk_us = seconds_since(start) * 1e6 / kDiskGets;
  fs::remove_all(root);
  return {{"mem_get_ns", mem_ns, "ns", 0.6}, {"disk_get_us", disk_us, "us", 0.8}};
}

// Provenance-graph operations at the scale of a multi-corner sweep: scan
// every manifest sidecar under a populated root, then partition a
// 128-artifact graph (64 fits, each feeding one buffering search) for an
// 8-corner retune. The dirty/reuse counts are exact by construction, so
// they gate at rel_tol 0 — a dirty-rule regression fails check_perf.sh,
// not just a latency budget.
std::vector<BenchMetric> bench_incremental_recompute() {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "pim_bench_incr").string();
  fs::remove_all(root);
  cache::Store::Options opt;
  opt.disk_dir = root;
  cache::Store store(opt);
  constexpr int kCorners = 64;
  std::vector<cache::CacheKey> fit_keys;
  for (int i = 0; i < kCorners; ++i) {
    cache::Tracked scope;
    cache::KeyBuilder kb("fit");
    kb.facet("tech", "bench@corner-" + std::to_string(i),
             "content-" + std::to_string(i));
    const cache::CacheKey key = kb.finish();
    store.put(key, "fit-payload");
    fit_keys.push_back(key);
  }
  for (int i = 0; i < kCorners; ++i) {
    cache::Tracked scope;
    cache::KeyBuilder kb("buffering");
    kb.field("i", static_cast<int64_t>(i));
    const cache::CacheKey key = kb.finish();
    scope.upstream(fit_keys[i]);
    store.put(key, "buffering-payload");
  }
  auto start = Clock::now();
  const std::vector<cache::Manifest> manifests = cache::scan_manifests(root);
  const double scan_us = seconds_since(start) * 1e6;
  std::vector<cache::Facet> changed;
  for (int i = 0; i < 8; ++i)
    changed.push_back(
        {"tech", "bench@corner-" + std::to_string(i), "retuned"});
  constexpr int kReps = 200;
  start = Clock::now();
  cache::DirtyCone cone;
  for (int r = 0; r < kReps; ++r) cone = cache::dirty_cone(manifests, changed);
  const double cone_us = seconds_since(start) * 1e6 / kReps;
  fs::remove_all(root);
  return {{"scan_us", scan_us, "us", 0.8},
          {"cone_us", cone_us, "us", 0.8},
          {"dirty_keys", static_cast<double>(cone.dirty.size()), "keys", 0.0},
          {"reuse_keys", static_cast<double>(cone.reuse.size()), "keys", 0.0}};
}

// Engine dispatch overhead: many small regions through the pool path
// (threads pinned to 2 so the pool engages even on one core).
std::vector<BenchMetric> bench_exec_engine() {
  constexpr int kRegions = 50;
  constexpr size_t kItems = 1000;
  std::vector<double> out(kItems);
  exec::ParallelOptions opt;
  opt.threads = 2;
  const auto start = Clock::now();
  for (int r = 0; r < kRegions; ++r)
    exec::parallel_for(kItems, [&](size_t i) { out[i] = static_cast<double>(i) * 1.5; },
                       opt);
  const double us = seconds_since(start) * 1e6 / kRegions;
  return {{"us_per_region", us, "us", 0.8}};
}

// The metric machinery itself: histogram-timer record cost with
// collection on, and the disabled-path cost (the one relaxed load +
// branch contract every instrumented hot path relies on).
std::vector<BenchMetric> bench_hist_timer() {
  obs::Timer& timer = obs::registry().timer("bench.hist_timer.scratch");
  constexpr int kRecords = 1000000;
  obs::set_enabled(true);
  auto start = Clock::now();
  for (int i = 0; i < kRecords; ++i) timer.record_ns(i & 1023);
  const double on_ns = seconds_since(start) * 1e9 / kRecords;
  obs::set_enabled(false);
  start = Clock::now();
  for (int i = 0; i < kRecords; ++i) timer.record_ns(i & 1023);
  const double off_ns = seconds_since(start) * 1e9 / kRecords;
  timer.reset();
  return {{"record_ns", on_ns, "ns", 0.6},
          {"record_disabled_ns", off_ns, "ns", 0.8}};
}

// The cooperative-cancellation poll every exec chunk pays (src/deadline):
// the disengaged fast path every normal run takes per item, the armed
// path (deadline set, clock consulted), and a pooled exec region with a
// far deadline armed — compare against exec_engine.us_per_region for the
// relative cost of running under a budget.
std::vector<BenchMetric> bench_deadline() {
  constexpr int kChecks = 1000000;
  deadline::reset();
  int sink = 0;
  auto start = Clock::now();
  for (int i = 0; i < kChecks; ++i) sink += static_cast<int>(deadline::check());
  const double off_ns = seconds_since(start) * 1e9 / kChecks;
  {
    deadline::Scope budget(3'600'000);  // armed, but an hour away
    start = Clock::now();
    for (int i = 0; i < kChecks; ++i) sink += static_cast<int>(deadline::check());
  }
  const double on_ns = seconds_since(start) * 1e9 / kChecks;
  if (sink != 0) std::fputs("", stdout);  // keep the loops observable

  constexpr int kRegions = 50;
  constexpr size_t kItems = 1000;
  std::vector<double> out(kItems);
  exec::ParallelOptions opt;
  opt.threads = 2;
  double region_us = 0.0;
  {
    deadline::Scope budget(3'600'000);
    start = Clock::now();
    for (int r = 0; r < kRegions; ++r)
      exec::parallel_for(kItems,
                         [&](size_t i) { out[i] = static_cast<double>(i) * 1.5; },
                         opt);
    region_us = seconds_since(start) * 1e6 / kRegions;
  }
  deadline::reset();
  return {{"check_disengaged_ns", off_ns, "ns", 0.8},
          {"check_armed_ns", on_ns, "ns", 0.8},
          {"armed_region_us", region_us, "us", 0.8}};
}

// Warm-daemon serving throughput over the wire protocol (src/serve,
// docs/serving.md), via the load driver shared with the standalone
// bench/serving_throughput load generator. An in-process Server on a
// Unix socket serves a pipelined burst of single evaluate requests,
// lock-step round trips, and one large batch line; the warm-up round
// trip (fit load + resident-model build) happens before any clock
// starts. us_per_req, the latency quantiles, and batch_item_us gate
// the perf trajectory; req_per_s restates the burst median as the
// throughput the serving docs promise (>= 10k simple model evals/s
// warm) — it carries an effectively unbounded rel_tol because the
// gate hunts increases and for a throughput a higher fresh number is
// the improvement. allocs_per_evaluate_line is a count (rel_tol 0: any
// change is a drift) and calibrate_hit_ns the warm resident hit.
std::vector<BenchMetric> bench_serving_throughput() {
  static const BenchModel bm = cached_model(TechNode::N65);
  (void)bm;  // materializes bench_out/coeffs_65nm.pimfit for the daemon
  const std::string cache_dir = out_dir() + "/serving_bench.cache";
  cache::set_dir(cache_dir);
  serve::ServerOptions sopt;
  sopt.socket_path = out_dir() + "/pim_bench_serving.sock";
  sopt.workers = 2;
  constexpr int kPipelined = 8192;
  sopt.queue_limit = kPipelined + 64;  // admission must never reject the burst
  serve::Server server(sopt);
  server.start();
  serving::LoadReport r;
  try {
    r = serving::drive(sopt.socket_path, kPipelined, /*lockstep=*/512,
                       /*batch_items=*/512);
  } catch (...) {
    server.stop();
    cache::set_dir("");
    throw;
  }
  server.stop();
  // In process, on the warm tier the daemon left: the heap allocations of
  // one evaluate line that names no coefficient file (a count, the same
  // on any machine with this toolchain) and the cost of the resident hit
  // api.calibrate wraps.
  api::LinkEvalRequest request;
  request.link.tech = "65nm";
  request.link.length_mm = 3;
  request.link.coeffs_path = out_dir() + "/coeffs_65nm.pimfit";
  (void)api::wire::execute_line(
      api::wire::write_request_line(1, api::AnyRequest{request}));
  request.link.coeffs_path.clear();
  const std::string line = api::wire::write_request_line(2, api::AnyRequest{request});
  (void)api::wire::execute_line(line);
  constexpr int kLines = 1000;
  const int64_t allocs_before = heap_allocations();
  for (int i = 0; i < kLines; ++i) (void)api::wire::execute_line(line);
  const double allocs_per_line =
      static_cast<double>(heap_allocations() - allocs_before) / kLines;
  constexpr int kHits = 20000;
  const Technology& tech = technology(TechNode::N65);
  const Corner nominal;
  auto start = Clock::now();
  for (int i = 0; i < kHits; ++i) (void)resident_model(tech, nominal);
  const double hit_ns = seconds_since(start) * 1e9 / kHits;
  cache::set_dir("");
  std::filesystem::remove(sopt.socket_path);
  return {{"us_per_req", r.pipelined_seconds * 1e6 / r.pipelined_requests,
           "us", 0.8},
          {"allocs_per_evaluate_line", allocs_per_line, "count", 0.0},
          {"calibrate_hit_ns", hit_ns, "ns", 0.8},
          {"req_per_s", r.pipelined_requests / r.pipelined_seconds, "req/s",
           1e9},
          {"rtt_p50_us", serving::rtt_quantile(r.rtt_us, 0.5), "us", 0.8},
          {"rtt_p99_us", serving::rtt_quantile(r.rtt_us, 0.99), "us", 1.5},
          {"batch_item_us", r.batch_seconds * 1e6 / r.batch_items, "us", 0.8}};
}

const BenchRegistrar kCases[] = {
    BenchRegistrar{{"baseline_eval", /*smoke=*/true, bench_baseline_eval}},
    BenchRegistrar{{"model_eval", /*smoke=*/false, bench_model_eval}},
    BenchRegistrar{{"buffering_search", /*smoke=*/false, bench_buffering_search}},
    BenchRegistrar{{"mc_yield", /*smoke=*/false, bench_mc_yield}},
    BenchRegistrar{{"transient_kernel", /*smoke=*/false, bench_transient_kernel}},
    BenchRegistrar{{"cold_fit", /*smoke=*/false, bench_cold_fit}},
    BenchRegistrar{{"mc_batch", /*smoke=*/false, bench_mc_batch}},
    BenchRegistrar{{"serving_throughput", /*smoke=*/false,
                    bench_serving_throughput}},
    BenchRegistrar{{"payload_codec", /*smoke=*/true, bench_payload_codec}},
    BenchRegistrar{{"cache_roundtrip", /*smoke=*/true, bench_cache_roundtrip}},
    BenchRegistrar{{"incremental_recompute", /*smoke=*/true,
                    bench_incremental_recompute}},
    BenchRegistrar{{"deadline", /*smoke=*/true, bench_deadline}},
    BenchRegistrar{{"exec_engine", /*smoke=*/true, bench_exec_engine}},
    BenchRegistrar{{"hist_timer", /*smoke=*/true, bench_hist_timer}},
};

// ------------------------------------------------------------- harness

struct MetricSeries {
  std::vector<double> values;  // one per repetition, in run order
  std::string unit;
  double rel_tol = 0.5;
};

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
  return buf;
}

std::string fingerprint_json() {
  struct utsname un{};
  uname(&un);
  std::ostringstream os;
  os << "{\"os\": " << obs::json_quote(std::string(un.sysname) + " " + un.release)
     << ", \"machine\": " << obs::json_quote(un.machine)
     << ", \"cores\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << obs::json_quote(__VERSION__) << "}";
  return os.str();
}

int run(int argc, char** argv) {
  int reps = 5;
  bool smoke = false, list = false;
  std::string only, out_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pim_bench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--reps") {
      reps = std::atoi(value().c_str());
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--bench") {
      only = value();
    } else if (arg == "--out") {
      out_file = value();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help") {
      std::fputs(
          "usage: pim_bench [--reps N] [--smoke] [--bench a,b] [--out file] "
          "[--list]\n",
          stdout);
      return 0;
    } else {
      std::fprintf(stderr, "pim_bench: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  auto selected = [&](const BenchCase& c) {
    if (smoke && !c.smoke) return false;
    if (only.empty()) return true;
    return ("," + only + ",").find("," + c.name + ",") != std::string::npos;
  };

  if (list) {
    for (const BenchCase& c : bench_registry())
      std::printf("%-18s %s\n", c.name.c_str(), c.smoke ? "smoke" : "");
    return 0;
  }

  const int64_t harness_start = obs::now_ns();

  // Repetition-major order: every case sees every phase of the process
  // (cold/warm caches, allocator state) rather than one case hogging one
  // phase, which makes medians robust against drift during the run.
  std::map<std::string, MetricSeries> series;
  for (int rep = 0; rep < reps; ++rep) {
    for (const BenchCase& c : bench_registry()) {
      if (!selected(c)) continue;
      for (const BenchMetric& m : c.fn()) {
        MetricSeries& s = series[c.name + "." + m.name];
        s.values.push_back(m.value);
        s.unit = m.unit;
        s.rel_tol = m.rel_tol;
      }
    }
    std::fprintf(stderr, "pim_bench: rep %d/%d done\n", rep + 1, reps);
  }
  if (series.empty()) {
    std::fprintf(stderr, "pim_bench: no cases selected\n");
    return 2;
  }

  std::ostringstream os;
  os << "{\n  \"schema\": \"pim.bench.v1\",\n";
  os << "  \"date\": " << obs::json_quote(utc_date()) << ",\n";
  os << "  \"version\": {\"pim\": " << obs::json_quote(kVersion)
     << ", \"api\": " << kApiVersionNumber
     << ", \"cache_format\": " << kCacheFormatVersion << "},\n";
  os << "  \"fingerprint\": " << fingerprint_json() << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"metrics\": {";
  bool first = true;
  for (const auto& [name, s] : series) {
    std::vector<double> sorted = s.values;
    std::sort(sorted.begin(), sorted.end());
    const double median = quantile(sorted, 0.5);
    const double iqr = quantile(sorted, 0.75) - quantile(sorted, 0.25);
    os << (first ? "\n    " : ",\n    ") << obs::json_quote(name)
       << ": {\"median\": " << obs::json_number(median)
       << ", \"iqr\": " << obs::json_number(iqr)
       << ", \"unit\": " << obs::json_quote(s.unit)
       << ", \"rel_tol\": " << obs::json_number(s.rel_tol) << "}";
    std::printf("%-34s median %12.3f %-5s iqr %10.3f\n", name.c_str(), median,
                s.unit.c_str(), iqr);
    first = false;
  }
  os << "\n  }\n}\n";

  if (out_file.empty()) out_file = "BENCH_" + utc_date() + ".json";
  {
    std::ofstream out(out_file);
    if (!out.good()) {
      std::fprintf(stderr, "pim_bench: cannot write '%s'\n", out_file.c_str());
      return 3;
    }
    out << os.str();
  }
  std::fprintf(stderr, "pim_bench: wrote %s\n", out_file.c_str());

  // The harness is a run like any other: append its own ledger record.
  if (const char* env = std::getenv("PIM_LEDGER");
      env == nullptr || std::string(env) != "off") {
    obs::LedgerRecord record;
    record.command = "pim_bench";
    record.flags.emplace_back("reps", std::to_string(reps));
    if (smoke) record.flags.emplace_back("smoke", "");
    if (!only.empty()) record.flags.emplace_back("bench", only);
    record.flags.emplace_back("out", out_file);
    record.cache_mode = cache::mode_name(cache::mode());
    record.threads = exec::threads();
    record.wall_ns = obs::now_ns() - harness_start;
    obs::append_ledger_record(out_dir() + "/ledger.jsonl", record);
  }
  return 0;
}

}  // namespace
}  // namespace pim::bench

int main(int argc, char** argv) { return pim::bench::run(argc, argv); }
