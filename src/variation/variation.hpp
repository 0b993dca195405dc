// EXTENSION beyond the paper: process-variation analysis of buffered
// links (documented in DESIGN.md as an extension; the paper's related-
// work positions its models inside flows that must ultimately close
// timing under variation).
//
// Variation is applied at the model level: each Monte-Carlo sample
// perturbs the fitted device strength (drive resistance), device
// capacitance, leakage, and the wire RC, then re-evaluates the link with
// the proposed closed-form model. This captures die-to-die (one scale
// per link) variation of the quantities the model is sensitive to,
// without re-running characterization per sample.
//
// Monte-Carlo sampling fans out over the pim::exec engine. Sample i
// draws from an RNG stream derived from (seed, i), so yields, failed
// sample counts, and every statistic are bit-identical at any
// --threads count (docs/parallelism.md).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "models/proposed.hpp"
#include "util/blocktext.hpp"
#include "util/rng.hpp"

namespace pim {

/// One sampled corner: multiplicative deviations around nominal (1.0).
struct VariationSample {
  double drive_strength = 1.0;  ///< scales 1/rd (device current)
  double device_cap = 1.0;      ///< scales gamma (and hence c_i)
  double leakage = 1.0;         ///< scales leakage power
  double wire_res = 1.0;        ///< scales wire resistance
  double wire_cap = 1.0;        ///< scales wire capacitance
};

/// Gaussian sigmas of the relative deviations. Defaults are
/// 3-sigma ~ 15 % device strength, 5 % caps, lognormal-ish 30 % leakage,
/// 10 % wire geometry — representative die-to-die magnitudes.
struct VariationSigmas {
  double drive_strength = 0.05;
  double device_cap = 0.017;
  double leakage = 0.10;  ///< sigma of ln(leakage scale)
  double wire_res = 0.033;
  double wire_cap = 0.033;
};

/// Draws one corner; scales are clamped to [0.5, 2.0].
VariationSample sample_variation(Rng& rng, const VariationSigmas& sigmas);

/// Evaluates the frame's design on a perturbed copy of the model's fit
/// and wire: one step of the frame, whose context and design it takes.
/// Build the frame once per link (LinkFrame(model.tech(), context,
/// design)) and step it once per sample.
LinkEstimate evaluate_with_variation(const ProposedModel& model, const LinkFrame& frame,
                                     const VariationSample& sample);

/// Monte-Carlo results for one link implementation.
struct MonteCarloResult {
  std::vector<double> delays;   ///< sorted ascending [s]
  double nominal_delay = 0.0;   ///< unperturbed model delay [s]
  double mean_delay = 0.0;
  double sigma_delay = 0.0;
  double mean_power = 0.0;
  /// Samples that failed to evaluate (model error or injected fault) and
  /// were skipped; counted in the "variation.sample.error" metric. The
  /// statistics above cover only the surviving samples.
  int failed_samples = 0;
  /// How many samples the caller asked for. Equals
  /// delays.size() + failed_samples unless the run was truncated.
  int requested_samples = 0;
  /// True when a deadline/cancel stop truncated the batch: statistics
  /// cover the completed prefix only (exactly [0, completed) sample
  /// indices, deterministic at any --threads), and the result is never
  /// written to the cache. yield_ci95() widens accordingly.
  bool partial = false;

  /// Fraction of samples meeting `max_delay`.
  double yield_at(double max_delay) const;

  /// 95 % binomial confidence halfwidth of yield_at(max_delay):
  /// 1.96 * sqrt(p(1-p)/n) over the n surviving samples — the interval a
  /// partial result reports widened, since n shrank.
  double yield_ci95(double max_delay) const;

  /// Delay at the given quantile in [0, 1] (e.g. 0.997 for ~3 sigma).
  double delay_quantile(double q) const;
};

/// Values per chunk when a long delay line is written: fixed, never
/// derived from the thread count, so the bytes are too.
inline constexpr size_t kDelayChunk = 2048;

/// Writes `key` and `v` exactly as blocktext::Writer::field does, but
/// formats each kDelayChunk values as one item of an exec region under a
/// deadline::GraceScope (a completed run's payload is finalization: it
/// polls no deadline and draws no stop fault), straight into the output.
/// A line of at most one chunk is formatted inline.
void field_in_chunks(blocktext::Writer& w, std::string_view key,
                     const std::vector<double>& v);
/// Reading is the plain field.
inline void field_in_chunks(blocktext::Reader& r, std::string_view key,
                            std::vector<double>& v) {
  r.field(key, v);
}

/// Result-cache payload binding (cache/memoize.hpp), in payload order;
/// only complete runs are cached, so requested_samples/partial are not.
template <typename B>
void bind(B& b, MonteCarloResult& v) {
  b.field("nominal_delay", v.nominal_delay);
  b.field("mean_delay", v.mean_delay);
  b.field("sigma_delay", v.sigma_delay);
  b.field("mean_power", v.mean_power);
  b.field("failed_samples", v.failed_samples);
  field_in_chunks(b, "delays", v.delays);
}

namespace detail {
/// The Monte-Carlo reduction's sort: an LSD radix sort over each double's
/// order-preserving bit key, ascending. On NaN-free input it orders
/// values as std::sort does, with -0.0 before +0.0. Exposed for the tests
/// and pim_bench.
void sort_delays(std::vector<double>& v);
}  // namespace detail

/// Runs `samples` Monte-Carlo corners (deterministic for a given seed).
MonteCarloResult monte_carlo_link(const ProposedModel& model, const LinkContext& context,
                                  const LinkDesign& design, int samples,
                                  uint64_t seed = 1, const VariationSigmas& sigmas = {});

/// monte_carlo_link fronted by the content-addressed result cache
/// (docs/caching.md). The key folds in the model's cache_signature()
/// (which hashes the fitted coefficients), the link context and design,
/// and the sampling plan (samples, seed, sigmas), so a hit returns the
/// exact sorted delay vector and statistics the direct run would
/// produce — bit-identical at any --threads count. Corrupt entries
/// recompute (fail-open); fault injection bypasses the cache so injected
/// sample faults always exercise the real sampling path.
MonteCarloResult monte_carlo_link_cached(const ProposedModel& model,
                                         const LinkContext& context,
                                         const LinkDesign& design, int samples,
                                         uint64_t seed = 1,
                                         const VariationSigmas& sigmas = {});

/// Monte-Carlo around a chosen process corner: `model` must be the
/// corner-calibrated model (CornerModelSet / calibrated_fit), so
/// the samples perturb that corner's fit exactly as monte_carlo_link
/// perturbs nominal — same sampler, same RNG streams, bit-identical at
/// any --threads. The cache key folds the corner id next to the model
/// signature, and corner.<name>.mc.samples is counted. At the nominal
/// corner this is exactly monte_carlo_link_cached (which forwards here).
MonteCarloResult monte_carlo_link_at_corner(const ProposedModel& model,
                                            const Corner& corner,
                                            const LinkContext& context,
                                            const LinkDesign& design, int samples,
                                            uint64_t seed = 1,
                                            const VariationSigmas& sigmas = {});

/// One WITHIN-DIE sample of the frame's design on `fit`: each repeater of
/// the chain draws its own device-strength/cap deviation (wire variation
/// stays die-wide). Stage delays then average along the chain, so an
/// N-stage link's relative sigma shrinks like ~1/sqrt(N) compared to the
/// die-to-die case — the classic argument for why repeatered interconnect
/// is naturally robust to random WID variation.
double link_delay_within_die(const TechnologyFit& fit, const LinkFrame& frame, Rng& rng,
                             const VariationSigmas& sigmas = {});

/// Monte-Carlo over within-die corners (wire variation disabled so the
/// pure stage-averaging effect is visible).
MonteCarloResult monte_carlo_link_within_die(const ProposedModel& model,
                                             const LinkContext& context,
                                             const LinkDesign& design, int samples,
                                             uint64_t seed = 1,
                                             const VariationSigmas& sigmas = {});

}  // namespace pim
