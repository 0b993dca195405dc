#include "variation/variation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "cache/memoize.hpp"
#include "deadline/deadline.hpp"
#include "numeric/regression.hpp"
#include "charlib/characterize.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace pim {
namespace {

double clamp_scale(double v) { return std::clamp(v, 0.5, 2.0); }

// Pass/fail tallies at the nominal-delay cutoff — the yield split the
// Choi/Paul/Roy-style sizing loop consumes. Delays are already sorted.
void tally_yield(const MonteCarloResult& result) {
  const auto cut = std::upper_bound(result.delays.begin(), result.delays.end(),
                                    result.nominal_delay);
  const int64_t pass = cut - result.delays.begin();
  PIM_COUNT_N("variation.sample.count", static_cast<int64_t>(result.delays.size()));
  PIM_COUNT_N("variation.sample.pass", pass);
  PIM_COUNT_N("variation.sample.fail",
              static_cast<int64_t>(result.delays.size()) - pass);
}

// A perturbed copy of the fit: drive resistance scales inversely with
// device strength; input capacitance and leakage scale directly.
TechnologyFit perturb_fit(const TechnologyFit& fit, const VariationSample& s) {
  TechnologyFit out = fit;
  const double r_scale = 1.0 / s.drive_strength;
  for (RepeaterEdgeFit* f : {&out.inv_rise, &out.inv_fall, &out.buf_rise, &out.buf_fall}) {
    f->rho0 *= r_scale;
    f->rho1 *= r_scale;
    // Intrinsic delay tracks device speed too.
    f->a0 *= r_scale;
    f->a1 *= r_scale;
    f->a2 *= r_scale;
    // Slower devices also degrade the output slew proportionally.
    f->b0 *= r_scale;
    f->b2 *= r_scale;
  }
  out.gamma *= s.device_cap;
  out.leakage.n0 *= s.leakage;
  out.leakage.n1 *= s.leakage;
  out.leakage.p0 *= s.leakage;
  out.leakage.p1 *= s.leakage;
  return out;
}

}  // namespace

VariationSample sample_variation(Rng& rng, const VariationSigmas& sigmas) {
  VariationSample s;
  s.drive_strength = clamp_scale(rng.normal(1.0, sigmas.drive_strength));
  s.device_cap = clamp_scale(rng.normal(1.0, sigmas.device_cap));
  // Leakage varies lognormally (it is exponential in threshold voltage).
  s.leakage = clamp_scale(std::exp(rng.normal(0.0, sigmas.leakage)));
  s.wire_res = clamp_scale(rng.normal(1.0, sigmas.wire_res));
  s.wire_cap = clamp_scale(rng.normal(1.0, sigmas.wire_cap));
  return s;
}

LinkEstimate evaluate_with_variation(const ProposedModel& model, const LinkContext& context,
                                     const LinkDesign& design,
                                     const VariationSample& sample) {
  // evaluate_link instead of ProposedModel(...).evaluate(): constructing
  // a model hashes its serialized fit into a cache signature, which at
  // Monte-Carlo sample rates costs far more than the evaluation itself.
  // The perturbed fit never touches the cache, so it needs no signature.
  LinkContext ctx = context;
  ctx.wire_options.res_scale *= sample.wire_res;
  ctx.wire_options.cap_scale *= sample.wire_cap;
  return evaluate_link(model.tech(), perturb_fit(model.fit(), sample), ctx, design);
}

double MonteCarloResult::yield_at(double max_delay) const {
  if (delays.empty()) return 0.0;
  const auto it = std::upper_bound(delays.begin(), delays.end(), max_delay);
  return static_cast<double>(it - delays.begin()) / static_cast<double>(delays.size());
}

double MonteCarloResult::yield_ci95(double max_delay) const {
  if (delays.empty()) return 0.0;
  const double n = static_cast<double>(delays.size());
  const double p = yield_at(max_delay);
  return 1.96 * std::sqrt(p * (1.0 - p) / n);
}

double MonteCarloResult::delay_quantile(double q) const {
  require(!delays.empty(), "delay_quantile: empty result");
  require(q >= 0.0 && q <= 1.0, "delay_quantile: q must be in [0, 1]");
  const size_t idx = std::min(delays.size() - 1,
                              static_cast<size_t>(q * static_cast<double>(delays.size())));
  return delays[idx];
}

double link_delay_within_die(const ProposedModel& model, const LinkContext& ctx,
                             const LinkDesign& design, Rng& rng,
                             const VariationSigmas& sigmas) {
  // Rebuild the proposed model's chain stage by stage, drawing a fresh
  // device corner per repeater. Wire parasitics stay nominal here (wire
  // variation is spatially correlated far beyond one segment).
  const Technology& tech = model.tech();
  const TechnologyFit& fit = model.fit();
  const LinkGeometry g(tech, ctx, design);
  const RepeaterSizing sz = repeater_sizing(tech, design.kind, design.drive);
  const double win_n = design.kind == CellKind::Inverter ? sz.wn_out : sz.wn_in;
  const double win_p = design.kind == CellKind::Inverter ? sz.wp_out : sz.wp_in;
  const double ci = fit.gamma * (win_n + win_p);
  const double mf = design.miller_factor;
  const CompositionWeights& comp = fit.composition(ctx.style);
  const double c_wire = g.seg_cap_ground + mf * g.seg_cap_couple_total;
  const double cl_rho0 = comp.kappa_c * c_wire + ci;
  const double cl_rho1 = comp.kappa_c1 * c_wire + ci;
  const double cl_slew = comp.kappa_c * c_wire + ci;
  const double d_wire =
      comp.kappa_w * g.seg_res *
      (0.4 * g.seg_cap_ground + 0.5 * mf * g.seg_cap_couple_total + 0.7 * ci);

  double slew = ctx.input_slew;
  double total = 0.0;
  bool edge_rising = true;
  for (int k = 0; k < design.num_repeaters; ++k) {
    const bool out_rising = design.kind == CellKind::Inverter ? !edge_rising : edge_rising;
    const RepeaterEdgeFit& f = fit.edge_fit(design.kind, out_rising);
    const double wr = out_rising ? sz.wp_out : sz.wn_out;
    // Per-repeater corner: strength scales all delay terms of THIS stage.
    const double strength = clamp_scale(rng.normal(1.0, sigmas.drive_strength));
    const double r_scale = 1.0 / strength;
    const double intrinsic =
        r_scale * (f.a0 + f.a1 * slew + f.a2 * slew * slew);
    const double d_rep =
        intrinsic + r_scale * (f.rho0 * cl_rho0 + f.rho1 * slew * cl_rho1) / wr;
    total += d_rep + d_wire;
    slew = r_scale * f.b0 + f.b1 * slew + r_scale * f.b2 * cl_slew / wr;
    edge_rising = out_rising;
  }
  return total;
}

namespace detail {

void sort_delays(std::vector<double>& v) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  constexpr int kPasses = 8;  // one per byte of the key
  const size_t n = v.size();
  if (n < 2) return;
  // Order-preserving keys: a positive double's bits rise with its value,
  // so setting the sign bit lifts it above every negative one; a negative
  // double's bits rise as it falls, so flipping all of them reverses that.
  // The passes alternate between `keys` and v's own storage, which holds
  // raw key bits (copied with memcpy) until the last step turns them back
  // into values, so the sort allocates one buffer, not two.
  std::vector<uint64_t> keys(n);
  std::array<std::array<size_t, 256>, kPasses> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = std::bit_cast<uint64_t>(v[i]);
    const uint64_t key = bits & kSign ? ~bits : bits | kSign;
    keys[i] = key;
    for (int p = 0; p < kPasses; ++p) ++counts[p][(key >> (8 * p)) & 0xff];
  }
  void* const buffers[2] = {keys.data(), v.data()};
  const auto load = [](const void* from, size_t i) {
    uint64_t key;
    std::memcpy(&key, static_cast<const unsigned char*>(from) + i * sizeof key, sizeof key);
    return key;
  };
  int src = 0;
  for (int p = 0; p < kPasses; ++p) {
    const int shift = 8 * p;
    std::array<size_t, 256>& start = counts[p];
    // Every key has the same byte here: the pass would move nothing.
    if (start[(load(buffers[src], 0) >> shift) & 0xff] == n) continue;
    size_t offset = 0;
    for (size_t& c : start) offset += std::exchange(c, offset);
    auto* const to = static_cast<unsigned char*>(buffers[1 - src]);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = load(buffers[src], i);
      std::memcpy(to + start[(key >> shift) & 0xff]++ * sizeof key, &key, sizeof key);
    }
    src = 1 - src;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = load(buffers[src], i);
    v[i] = std::bit_cast<double>(key & kSign ? key ^ kSign : ~key);
  }
}

}  // namespace detail

void field_in_chunks(blocktext::Writer& w, std::string_view key,
                     const std::vector<double>& v) {
  const size_t chunks = (v.size() + kDelayChunk - 1) / kDelayChunk;
  if (chunks <= 1) return w.field(key, v);
  const size_t slot = kDelayChunk * w.value_bytes();
  w.formatted(key, v.size() * w.value_bytes(), [&](char* first) {
    // Chunk c formats into its own slot of the reserved span; the chunks
    // then move down in index order to close the gaps between them.
    std::vector<char*> ends;
    {
      const deadline::GraceScope grace;
      ends = exec::parallel_map<char*>(chunks, [&](size_t c) {
        const double* begin = v.data() + c * kDelayChunk;
        const double* end = v.data() + std::min(v.size(), (c + 1) * kDelayChunk);
        return w.values(first + c * slot, begin, end);
      });
    }
    char* out = first;
    for (size_t c = 0; c < chunks; ++c) {
      const char* from = first + c * slot;
      std::memmove(out, from, static_cast<size_t>(ends[c] - from));
      out += ends[c] - from;
    }
    return out;
  });
}

namespace {

// A non-finite delay or power would poison the statistics and has no
// place in the sort's key order, so it fails its sample like a model
// error: counted in variation.sample.error and skipped. A within-die
// sample has no power of its own.
void require_finite_sample(const char* who, double delay, double power = 0.0) {
  if (!std::isfinite(delay) || !std::isfinite(power))
    fail(std::string(who) + ": non-finite sample delay or power", ErrorCode::internal);
}

// Shared tail of both Monte-Carlo flavors: ordered reduction over the
// batch (index order, so sums and tallies are bit-identical at any
// thread count), failure accounting, then the summary statistics.
template <typename P>
MonteCarloResult reduce_batch(const exec::BatchResult<P>& batch,
                              const std::function<double(const P&)>& delay_of,
                              const char* who) {
  PIM_OBS_SPAN("variation.montecarlo.reduce");
  MonteCarloResult result;
  result.delays.reserve(batch.values.size());
  for (const auto& value : batch.values)
    if (value) result.delays.push_back(delay_of(*value));
  result.failed_samples = static_cast<int>(batch.failed.size());
  result.requested_samples = static_cast<int>(batch.values.size());
  result.partial = batch.truncated();
  PIM_COUNT_N("variation.sample.error", static_cast<int64_t>(batch.failed.size()));
  // A truncated batch with zero completed samples has nothing to
  // estimate from — that is the one stop that cannot degrade to a
  // partial result and must surface as the typed deadline/cancel error.
  if (result.delays.empty() && batch.truncated())
    throw deadline::stop_error(batch.stop, batch.completed, batch.values.size());
  require(!result.delays.empty(), std::string(who) + ": every sample failed",
          ErrorCode::no_convergence);
  detail::sort_delays(result.delays);
  result.mean_delay = mean(result.delays);
  double var = 0.0;
  for (double d : result.delays) {
    const double r = d - result.mean_delay;
    var += r * r;
  }
  result.sigma_delay = std::sqrt(var / static_cast<double>(result.delays.size()));
  return result;
}

}  // namespace

MonteCarloResult monte_carlo_link_within_die(const ProposedModel& model,
                                             const LinkContext& ctx,
                                             const LinkDesign& design, int samples,
                                             uint64_t seed,
                                             const VariationSigmas& sigmas) {
  PIM_OBS_SPAN("variation.montecarlo.within_die");
  require(samples >= 1, "monte_carlo_link_within_die: need at least one sample");
  // Sample i draws from its own (seed, i)-derived RNG stream, so the
  // sampled corners — and any injected faults — are a pure function of
  // the seed and the sample index, independent of thread count.
  const auto batch = exec::parallel_try_map_seeded<double>(
      static_cast<size_t>(samples), seed, [&](size_t, Rng& rng) {
        if (fault::should_fire(fault::kVariationSample))
          fail("monte_carlo_link_within_die: injected sample fault", ErrorCode::internal);
        const double delay = link_delay_within_die(model, ctx, design, rng, sigmas);
        require_finite_sample("monte_carlo_link_within_die", delay);
        return delay;
      });
  MonteCarloResult result = reduce_batch<double>(
      batch, [](const double& d) { return d; }, "monte_carlo_link_within_die");
  result.nominal_delay = model.evaluate(ctx, design).delay;
  result.mean_power = model.evaluate(ctx, design).total_power();
  tally_yield(result);
  return result;
}

MonteCarloResult monte_carlo_link(const ProposedModel& model, const LinkContext& context,
                                  const LinkDesign& design, int samples, uint64_t seed,
                                  const VariationSigmas& sigmas) {
  PIM_OBS_SPAN("variation.montecarlo.run");
  require(samples >= 1, "monte_carlo_link: need at least one sample");
  struct SamplePoint {
    double delay = 0.0;
    double power = 0.0;
  };
  // Graceful degradation: a failed corner (bad model arithmetic or an
  // injected fault) is counted and skipped; the statistics cover the
  // surviving samples. Each sample owns a (seed, i)-derived RNG stream
  // and fault stream, so the whole result is bit-identical at any
  // --threads count.
  const auto batch = exec::parallel_try_map_seeded<SamplePoint>(
      static_cast<size_t>(samples), seed, [&](size_t, Rng& rng) {
        const VariationSample s = sample_variation(rng, sigmas);
        if (fault::should_fire(fault::kVariationSample))
          fail("monte_carlo_link: injected sample fault", ErrorCode::internal);
        const LinkEstimate est = evaluate_with_variation(model, context, design, s);
        const SamplePoint point{est.delay, est.total_power()};
        require_finite_sample("monte_carlo_link", point.delay, point.power);
        return point;
      });
  MonteCarloResult result = reduce_batch<SamplePoint>(
      batch, [](const SamplePoint& p) { return p.delay; }, "monte_carlo_link");
  result.nominal_delay = model.evaluate(context, design).delay;
  double power_acc = 0.0;
  for (const auto& value : batch.values)
    if (value) power_acc += value->power;
  result.mean_power = power_acc / static_cast<double>(result.delays.size());
  tally_yield(result);
  return result;
}

namespace {

// The corner and sampling plan enter as provenance facets — the corner
// so a retune stales exactly its cone, the samples/seed plan so a deck
// that raises the sample budget shows up as a changed input rather than
// an unrelated key. Everything else folds into the "params" facet.
cache::CacheKey yield_cache_key(const ProposedModel& model, const Corner& corner,
                                const LinkContext& ctx, const LinkDesign& design,
                                int samples, uint64_t seed,
                                const VariationSigmas& sigmas) {
  cache::KeyBuilder kb("yield");
  kb.model(model.cache_signature(), model.provenance());
  kb.facet("corner", corner.name, corner.cache_id());
  key_link_context(kb, ctx);
  kb.field("design.kind", static_cast<int>(design.kind));
  kb.field("design.drive", design.drive);
  kb.field("design.repeaters", design.num_repeaters);
  kb.field("design.miller", design.miller_factor);
  kb.facet("samples", "mc", std::to_string(samples) + "/" + std::to_string(seed));
  kb.field("sigmas.drive_strength", sigmas.drive_strength);
  kb.field("sigmas.device_cap", sigmas.device_cap);
  kb.field("sigmas.leakage", sigmas.leakage);
  kb.field("sigmas.wire_res", sigmas.wire_res);
  kb.field("sigmas.wire_cap", sigmas.wire_cap);
  return kb.finish();
}

}  // namespace

MonteCarloResult monte_carlo_link_cached(const ProposedModel& model,
                                         const LinkContext& context,
                                         const LinkDesign& design, int samples,
                                         uint64_t seed, const VariationSigmas& sigmas) {
  return monte_carlo_link_at_corner(model, Corner{}, context, design, samples, seed,
                                    sigmas);
}

MonteCarloResult monte_carlo_link_at_corner(const ProposedModel& model,
                                            const Corner& corner,
                                            const LinkContext& context,
                                            const LinkDesign& design, int samples,
                                            uint64_t seed, const VariationSigmas& sigmas) {
  obs::registry()
      .counter("corner." + corner.name + ".mc.samples")
      .add(static_cast<int64_t>(samples));
  if (model.cache_signature().empty())
    return monte_carlo_link(model, context, design, samples, seed, sigmas);
  return cache::memoize<MonteCarloResult>(
      [&] {
        return yield_cache_key(model, corner, context, design, samples, seed, sigmas);
      },
      [&] { return monte_carlo_link(model, context, design, samples, seed, sigmas); },
      [&](MonteCarloResult& hit) {
        require(!hit.delays.empty() &&
                    std::is_sorted(hit.delays.begin(), hit.delays.end()),
                "yield cache: delay vector is empty or unsorted", ErrorCode::io_parse);
        hit.requested_samples = samples;  // only complete runs are cached
        tally_yield(hit);
      });
}

}  // namespace pim
