#include "util/faultinject.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pim::fault {

// One parsed spec, per site. Everything but the two tallies is fixed
// before the configuration is published.
struct Config {
  struct Entry {
    bool armed = false;
    double probability = 1.0;
    uint64_t seed = 0;                // site-name hash already mixed in
    obs::Counter* counter = nullptr;  // "fault.<site>.injected"
    mutable std::atomic<uint64_t> serial{0};  // global sequential stream state
    mutable std::atomic<int64_t> fired{0};
  };
  std::array<Entry, kSiteCount> sites;
};

namespace {

// Every configuration ever published, never destroyed: a draw may keep
// the snapshot it loaded while configure() publishes the next one, and
// the snapshot's address doubles as its identity (the epoch).
std::deque<Config>& configs() {
  static std::deque<Config> all;
  return all;
}

std::mutex& configure_mutex() {
  static std::mutex m;
  return m;
}

// Thread-local per-item stream context, installed by ScopedStream. Each
// (site, item) pair owns an independent SplitMix64 stream seeded as a
// pure function of the site seed and the item index; draws within the
// item advance it sequentially, so a work item sees the same fault
// pattern at any thread count. Streams seeded from another configuration
// are dropped.
struct StreamContext {
  bool active = false;
  uint64_t stream = 0;
  const Config* config = nullptr;  // the snapshot `streams` were seeded from
  uint32_t seeded = 0;             // bit s set: streams[s] is live
  std::array<uint64_t, kSiteCount> streams{};
};

StreamContext& stream_context() {
  thread_local StreamContext ctx;
  return ctx;
}

}  // namespace

uint64_t content_stream(std::string_view bytes) {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) h = (h ^ static_cast<uint64_t>(c)) * 0x100000001b3ULL;
  return h;
}

void configure(const std::string& spec) {
  struct Parsed {
    Site site;
    double probability = 1.0;
    uint64_t seed = 1;
  };
  std::vector<Parsed> parsed;
  uint32_t named = 0;
  for (const std::string& entry : split(spec, ',')) {
    const std::string trimmed(trim(entry));
    if (trimmed.empty()) continue;
    const auto parts = split(trimmed, ':');
    require(parts.size() <= 3,
            "fault: expected site[:prob[:seed]], got '" + trimmed + "'",
            ErrorCode::bad_input);
    const std::string& name = parts[0];
    const auto it = std::find(kSiteNames.begin(), kSiteNames.end(), name);
    require(it != kSiteNames.end(), "fault: unknown site '" + name + "'",
            ErrorCode::bad_input);
    Parsed p{static_cast<Site>(it - kSiteNames.begin())};
    require((named & (1u << p.site)) == 0, "fault: site '" + name + "' named twice",
            ErrorCode::bad_input);
    named |= 1u << p.site;
    if (parts.size() >= 2) {
      p.probability = parse_double(parts[1]);
      require(p.probability >= 0.0 && p.probability <= 1.0,
              "fault: probability must be in [0, 1] for site '" + name + "'",
              ErrorCode::bad_input);
    }
    if (parts.size() == 3) p.seed = static_cast<uint64_t>(parse_long(parts[2]));
    parsed.push_back(p);
  }
  // An effectively empty spec is a caller mistake (clear() is the way to
  // disarm), and silently arming nothing would hide it.
  require(!parsed.empty(), "fault: empty spec", ErrorCode::bad_input);

  std::lock_guard<std::mutex> lock(configure_mutex());
  Config& config = configs().emplace_back();
  for (const Parsed& p : parsed) {
    Config::Entry& s = config.sites[p.site];
    const std::string name(kSiteNames[p.site]);
    s.armed = true;
    s.probability = p.probability;
    // Mix the site name into the seed so sites armed with the same seed
    // still draw independent streams.
    s.seed = p.seed ^ content_stream(name);
    s.serial.store(s.seed, std::memory_order_relaxed);
    s.counter = &obs::registry().counter("fault." + name + ".injected");
  }
  current_config().store(&config, std::memory_order_release);
}

void configure_from_env() {
  const char* spec = std::getenv("PIM_FAULT");
  if (spec != nullptr && spec[0] != '\0') configure(spec);
}

void clear() { current_config().store(nullptr, std::memory_order_release); }

bool should_fire(Site site) {
  if (!armed()) return false;  // disarmed: one relaxed load and a branch
  const Config* config = current_config().load(std::memory_order_acquire);
  if (config == nullptr) return false;  // cleared since the check above
  const Config::Entry& s = config->sites[site];
  if (!s.armed) return false;

  uint64_t bits = 0;
  StreamContext& ctx = stream_context();
  if (ctx.active) {
    // Item-stream path: the draw sequence depends only on (site seed,
    // item index), never on other threads, so parallel sweeps inject
    // deterministically.
    if (ctx.config != config) {
      ctx.config = config;
      ctx.seeded = 0;
    }
    const uint32_t bit = 1u << site;
    if ((ctx.seeded & bit) == 0) {
      ctx.streams[site] = derive_stream_seed(s.seed, ctx.stream);
      ctx.seeded |= bit;
    }
    bits = splitmix_next(ctx.streams[site]);
  } else {
    // Serial path: one global sequential stream per site, the same
    // sequence as Rng(seed), advanced atomically instead of under a lock.
    bits = mix_u64(s.serial.fetch_add(kSplitMixGamma, std::memory_order_relaxed) +
                   kSplitMixGamma);
  }
  if (unit_double(bits) >= s.probability) return false;
  s.fired.fetch_add(1, std::memory_order_relaxed);
  // Registry counter is gated on obs::set_enabled like every metric;
  // fired_count() below is the always-on tally for tests that do not
  // collect metrics.
  s.counter->add(1);
  return true;
}

int64_t fired_count(Site site) {
  const Config* config = current_config().load(std::memory_order_acquire);
  if (config == nullptr || !config->sites[site].armed) return 0;
  return config->sites[site].fired.load(std::memory_order_relaxed);
}

ScopedStream::ScopedStream(uint64_t stream) {
  StreamContext& ctx = stream_context();
  prev_active_ = ctx.active;
  prev_stream_ = ctx.stream;
  ctx.active = true;
  ctx.stream = stream;
  ctx.seeded = 0;
}

ScopedStream::~ScopedStream() {
  StreamContext& ctx = stream_context();
  ctx.active = prev_active_;
  ctx.stream = prev_stream_;
  ctx.seeded = 0;
}

}  // namespace pim::fault
