// Deterministic, seeded fault-injection harness.
//
// Tests (and operators chasing a robustness bug) arm named fault sites
// with a firing probability and a seed; instrumented code paths then ask
// should_fire(site) at the exact point where the real failure would
// originate. Each armed site owns an independent SplitMix64 stream, so a
// given (site, probability, seed) triple fires on exactly the same draws
// on every run — recovery paths can be exercised and asserted on
// deterministically.
//
// Activation:
//   - CLI: any pim subcommand accepts --inject-fault SPEC
//   - env: PIM_FAULT=SPEC (read once at process start by the CLI)
//   - tests: pim::fault::configure(SPEC) / pim::fault::clear()
//
// SPEC is a comma-separated list of site[:probability[:seed]], e.g.
// "lu.singular:0.05:7,newton.diverge:0.5". Probability defaults to 1.0,
// seed to 1. Unknown site names, and a site named twice, are rejected
// (bad_input) so typos fail loudly instead of silently injecting nothing
// or dropping an entry.
//
// When the harness is disarmed (the default), should_fire() is a single
// relaxed atomic load and branch — instrumented hot paths run at their
// uninstrumented speed. Every fire increments the metrics counter
// "fault.<site>.injected" (obs/metrics.hpp), so tests can assert that a
// recovery path actually fired.
//
// Concurrency (see docs/parallelism.md): the site set is fixed at compile
// time (Site, kSiteNames), and configure() parses a spec into one
// immutable snapshot that it publishes with a single atomic pointer
// store. Snapshots live for the whole process, so should_fire() keeps the
// pointer it loaded without a lock, and a draw never allocates. Fire
// counts are exact (atomic fetch_add). Serial code draws from one global
// per-site stream, advanced with an atomic fetch_add. Parallel work items
// additionally install a ScopedStream with their item index (the exec
// engine does this automatically): draws then come from a thread-local
// stream derived purely from (site seed, item index), so WHICH items see
// an injected fault is identical at any thread count — faults stay
// deterministic even inside parallel sweeps.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace pim::fault {

// The fault sites; kSiteNames holds their spec names, and
// docs/robustness.md lists where each fires.
enum Site : uint8_t {
  kLuSingular,        // dense LU pivot
  kNewtonDiverge,     // spice Newton loop
  kIoOpen,            // CLI output files
  kVariationSample,   // per-MC-sample solve
  kDeadlineExpire,    // deadline::check() poll
  kCancelMidchunk,    // deadline::check() poll
  kSiteCount
};

inline constexpr std::array<std::string_view, kSiteCount> kSiteNames = {
    "lu.singular",      "newton.diverge",  "io.open",
    "variation.sample", "deadline-expire", "cancel-midchunk"};

/// Parses and arms `spec` ("site[:prob[:seed]][,...]"). Replaces any
/// previous configuration. Throws Error(bad_input) on malformed specs,
/// out-of-range probabilities, unknown sites, or a site named twice.
void configure(const std::string& spec);

/// Arms from the PIM_FAULT environment variable when it is set and
/// non-empty; no-op otherwise.
void configure_from_env();

/// Disarms every site (the harness returns to zero-cost mode).
void clear();

/// One parsed spec (defined in faultinject.cpp).
struct Config;

/// The published configuration; null while disarmed.
inline std::atomic<const Config*>& current_config() {
  static std::atomic<const Config*> config{nullptr};
  return config;
}

/// True when at least one site is armed.
inline bool armed() { return current_config().load(std::memory_order_relaxed) != nullptr; }

/// Draws from `site`'s stream: true when the fault should be injected
/// here. Always false when the harness is disarmed or the site is not
/// part of the active configuration.
bool should_fire(Site site);

/// Number of times `site` has fired since it was configured.
int64_t fired_count(Site site);

/// A stream index that is a pure function of `bytes` (FNV-1a): pimd runs
/// each request line under ScopedStream(content_stream(line)), so its
/// draws depend on the request alone, never on arrival order.
uint64_t content_stream(std::string_view bytes);

/// Installs a deterministic per-item fault stream on the current thread
/// for the scope: every should_fire() draw comes from a stream that is a
/// pure function of (site seed, `stream`), independent of thread count,
/// scheduling, or draws made by other items. The exec engine installs one
/// per work item with the item index; restores the previous context (and
/// any outer item's stream positions are NOT preserved — streams restart
/// per item by design).
class ScopedStream {
 public:
  explicit ScopedStream(uint64_t stream);
  ~ScopedStream();
  ScopedStream(const ScopedStream&) = delete;
  ScopedStream& operator=(const ScopedStream&) = delete;

 private:
  bool prev_active_;
  uint64_t prev_stream_;
};

}  // namespace pim::fault
