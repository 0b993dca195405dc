#include "util/faultinject.hpp"

#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pim::fault {
namespace {

// Per-site state. Entries are created on demand and never destroyed (the
// registry lives for the process), so should_fire can hold a SiteState*
// across the draw without racing a concurrent configure()/clear() — only
// the armed/probability/seed fields change, under the registry mutex.
struct SiteState {
  bool armed = false;
  double probability = 1.0;
  uint64_t seed = 1;  // site-name hash already mixed in
  Rng serial_rng{1};  // global sequential stream (serial callers)
  std::atomic<int64_t> fired{0};
  obs::Counter* counter = nullptr;  // "fault.<site>.injected"
};

std::mutex& mu() {
  static std::mutex m;
  return m;
}

std::map<std::string, SiteState>& sites() {
  static std::map<std::string, SiteState> s;
  return s;
}

// Bumped by configure()/clear() so thread-local item streams derived from
// a previous configuration are discarded instead of reused.
std::atomic<uint64_t>& config_epoch() {
  static std::atomic<uint64_t> epoch{0};
  return epoch;
}

// Thread-local per-item stream context, installed by ScopedStream. Each
// (site, item) pair owns an independent SplitMix64 stream seeded as a
// pure function of the site seed and the item index; draws within the
// item advance it sequentially, so a work item sees the same fault
// pattern at any thread count.
struct StreamContext {
  bool active = false;
  uint64_t stream = 0;
  uint64_t epoch = 0;
  std::map<std::string, Rng> item_rngs;
};

StreamContext& stream_context() {
  thread_local StreamContext ctx;
  return ctx;
}

void refresh_armed_flag_locked() {
  bool any = false;
  for (const auto& [name, state] : sites()) any = any || state.armed;
  armed_flag().store(any, std::memory_order_relaxed);
}

}  // namespace

uint64_t content_stream(std::string_view bytes) {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) h = (h ^ static_cast<uint64_t>(c)) * 0x100000001b3ULL;
  return h;
}

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> names = {
      kLuSingular,      kNewtonDiverge,  kIoOpen,
      kVariationSample, kDeadlineExpire, kCancelMidchunk};
  return names;
}

void configure(const std::string& spec) {
  struct Parsed {
    std::string name;
    double probability = 1.0;
    uint64_t seed = 1;
  };
  std::vector<Parsed> parsed;
  for (const std::string& entry : split(spec, ',')) {
    const std::string trimmed(trim(entry));
    if (trimmed.empty()) continue;
    const auto parts = split(trimmed, ':');
    require(parts.size() <= 3,
            "fault: expected site[:prob[:seed]], got '" + trimmed + "'",
            ErrorCode::bad_input);
    Parsed p;
    p.name = parts[0];
    bool known = false;
    for (const std::string& s : known_sites()) known = known || s == p.name;
    require(known, "fault: unknown site '" + p.name + "'", ErrorCode::bad_input);
    if (parts.size() >= 2) {
      p.probability = parse_double(parts[1]);
      require(p.probability >= 0.0 && p.probability <= 1.0,
              "fault: probability must be in [0, 1] for site '" + p.name + "'",
              ErrorCode::bad_input);
    }
    if (parts.size() == 3) p.seed = static_cast<uint64_t>(parse_long(parts[2]));
    parsed.push_back(p);
  }
  // An effectively empty spec is a caller mistake (clear() is the way to
  // disarm), and silently arming nothing would hide it.
  require(!parsed.empty(), "fault: empty spec", ErrorCode::bad_input);

  std::lock_guard<std::mutex> lock(mu());
  for (auto& [name, state] : sites()) {
    state.armed = false;
    state.fired.store(0, std::memory_order_relaxed);
  }
  for (const Parsed& p : parsed) {
    SiteState& state = sites()[p.name];
    state.armed = true;
    state.probability = p.probability;
    // Mix the site name into the seed so sites armed with the same seed
    // still draw independent streams.
    state.seed = p.seed ^ content_stream(p.name);
    state.serial_rng = Rng(state.seed);
    state.fired.store(0, std::memory_order_relaxed);
    if (state.counter == nullptr)
      state.counter = &obs::registry().counter("fault." + p.name + ".injected");
  }
  refresh_armed_flag_locked();
  config_epoch().fetch_add(1, std::memory_order_relaxed);
}

void configure_from_env() {
  const char* spec = std::getenv("PIM_FAULT");
  if (spec != nullptr && spec[0] != '\0') configure(spec);
}

void clear() {
  std::lock_guard<std::mutex> lock(mu());
  for (auto& [name, state] : sites()) {
    state.armed = false;
    state.fired.store(0, std::memory_order_relaxed);
  }
  armed_flag().store(false, std::memory_order_relaxed);
  config_epoch().fetch_add(1, std::memory_order_relaxed);
}

bool should_fire(const char* site) {
  if (!armed()) return false;
  SiteState* state = nullptr;
  double probability = 0.0;
  uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(mu());
    const auto it = sites().find(site);
    if (it == sites().end() || !it->second.armed) return false;
    state = &it->second;
    probability = state->probability;
    seed = state->seed;
  }

  double draw = 0.0;
  StreamContext& ctx = stream_context();
  if (ctx.active) {
    // Item-stream path: the draw sequence depends only on (site seed,
    // item index), never on other threads, so parallel sweeps inject
    // deterministically. Streams from a stale configuration are dropped.
    const uint64_t epoch = config_epoch().load(std::memory_order_relaxed);
    if (ctx.epoch != epoch) {
      ctx.item_rngs.clear();
      ctx.epoch = epoch;
    }
    const auto [it, inserted] =
        ctx.item_rngs.try_emplace(site, Rng(derive_stream_seed(seed, ctx.stream)));
    draw = it->second.next_double();
  } else {
    // Serial path: one global sequential stream per site, exactly the
    // pre-parallelism behavior; the registry mutex serializes the draw.
    std::lock_guard<std::mutex> lock(mu());
    draw = state->serial_rng.next_double();
  }
  if (draw >= probability) return false;
  state->fired.fetch_add(1, std::memory_order_relaxed);
  // Registry counter is gated on obs::set_enabled like every metric;
  // fired_count() below is the always-on tally for tests that do not
  // collect metrics.
  state->counter->add(1);
  return true;
}

int64_t fired_count(const char* site) {
  std::lock_guard<std::mutex> lock(mu());
  const auto it = sites().find(site);
  if (it == sites().end() || !it->second.armed) return 0;
  return it->second.fired.load(std::memory_order_relaxed);
}

ScopedStream::ScopedStream(uint64_t stream) {
  StreamContext& ctx = stream_context();
  prev_active_ = ctx.active;
  prev_stream_ = ctx.stream;
  ctx.active = true;
  ctx.stream = stream;
  if (!ctx.item_rngs.empty()) ctx.item_rngs.clear();
}

ScopedStream::~ScopedStream() {
  StreamContext& ctx = stream_context();
  ctx.active = prev_active_;
  ctx.stream = prev_stream_;
  if (!ctx.item_rngs.empty()) ctx.item_rngs.clear();
}

}  // namespace pim::fault
