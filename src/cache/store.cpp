#include "cache/store.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pim::cache {
namespace {

namespace fs = std::filesystem;

std::mutex& config_mutex() {
  static std::mutex mu;
  return mu;
}

std::optional<Mode>& mode_override() {
  static std::optional<Mode> value;
  return value;
}

std::string& dir_override() {
  static std::string value;
  return value;
}

void set_bytes_gauge(size_t bytes) {
  obs::registry().gauge("cache.bytes").set(static_cast<double>(bytes));
}

// Bounded retry for disk-cache I/O: transient failures (network
// filesystems, scanners holding locks, tmp-dir races) get three attempts
// with a short backoff before the operation fails open (a read becomes a
// miss, a write is skipped). Retries never change a run's outcome — only
// whether the warm start lands.
constexpr int kIoAttempts = 3;

void backoff_sleep(int attempt) {
  // Attempt-scaled base with a pid-derived jitter so concurrent processes
  // hammering one cache directory desynchronize without an RNG.
  const long base_us = 200L << attempt;
  const long jitter_us =
      (static_cast<long>(::getpid()) * 31L + attempt * 17L) % (base_us / 2 + 1);
  ::usleep(static_cast<useconds_t>(base_us + jitter_us));
}

// Reads `path` into `image`; true on success. A missing file is an
// instant miss — misses are the common path and never retried; any other
// failure retries with backoff and finally gives up (fail-open miss).
bool read_entry_file(const std::string& path, std::string& image) {
  for (int attempt = 0;; ++attempt) {
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (!in.bad()) {
        image = buffer.str();
        return true;
      }
    } else {
      std::error_code ec;
      if (!fs::exists(path, ec)) return false;
    }
    if (attempt + 1 >= kIoAttempts) {
      log_warn("cache: giving up reading '", path, "' after ", kIoAttempts,
               " attempts");
      return false;
    }
    PIM_COUNT("cache.io.retry");
    backoff_sleep(attempt);
  }
}

// cache.* deep metrics (docs/observability.md): per-tier load-latency
// histograms, a payload-size histogram (the Timer machinery is
// unit-agnostic — here the "ns" slots carry bytes), and a hit-rate gauge
// derived from the hit/miss counters so it resets with the registry.
// Handles resolve once; every record is behind obs::enabled(), keeping
// the disabled path at one relaxed load + branch.
struct CacheMetrics {
  obs::Timer& mem_load = obs::registry().timer("cache.mem.load");
  obs::Timer& disk_load = obs::registry().timer("cache.disk.load");
  obs::Timer& entry_bytes = obs::registry().timer("cache.entry.bytes");
  obs::Gauge& hit_rate = obs::registry().gauge("cache.hit_rate");
  obs::Counter& hit = obs::registry().counter("cache.hit");
  obs::Counter& miss = obs::registry().counter("cache.miss");

  static CacheMetrics& get() {
    static CacheMetrics m;
    return m;
  }

  /// Refreshes cache.hit_rate from the counters (call after the lookup's
  /// PIM_COUNT lands). Shard-buffered increments from in-flight parallel
  /// runners may lag the reading — fine for a gauge; totals stay exact.
  void update_hit_rate() {
    const double h = static_cast<double>(hit.value());
    const double total = h + static_cast<double>(miss.value());
    if (total > 0) hit_rate.set(h / total);
  }
};

}  // namespace

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::Off:
      return "off";
    case Mode::ReadOnly:
      return "ro";
    case Mode::ReadWrite:
      return "rw";
  }
  return "off";
}

bool mode_from_name(std::string_view name, Mode& out) {
  if (name == "off") {
    out = Mode::Off;
  } else if (name == "ro") {
    out = Mode::ReadOnly;
  } else if (name == "rw") {
    out = Mode::ReadWrite;
  } else {
    return false;
  }
  return true;
}

Mode mode() {
  std::lock_guard<std::mutex> lock(config_mutex());
  if (mode_override()) return *mode_override();
  if (const char* env = std::getenv("PIM_CACHE"); env != nullptr && *env != '\0') {
    Mode m;
    if (mode_from_name(env, m)) return m;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      log_warn("cache: PIM_CACHE='", env, "' is not off|ro|rw; using rw");
  }
  return Mode::ReadWrite;
}

void set_mode(Mode mode) {
  std::lock_guard<std::mutex> lock(config_mutex());
  mode_override() = mode;
}

void reset_mode() {
  std::lock_guard<std::mutex> lock(config_mutex());
  mode_override().reset();
}

std::string dir() {
  {
    std::lock_guard<std::mutex> lock(config_mutex());
    if (!dir_override().empty()) return dir_override();
  }
  if (const char* env = std::getenv("PIM_CACHE_DIR"); env != nullptr && *env != '\0')
    return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && *xdg != '\0')
    return std::string(xdg) + "/pim";
  if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0')
    return std::string(home) + "/.cache/pim";
  return ".pim-cache";
}

void set_dir(const std::string& path) {
  std::lock_guard<std::mutex> lock(config_mutex());
  dir_override() = path;
}

Store& Store::global() {
  static Store store;
  return store;
}

std::string Store::entry_path(const CacheKey& key) const {
  const std::string root = options_.disk_dir.empty() ? dir() : options_.disk_dir;
  return root + "/" + key.kind + "/" + key.hex.substr(0, 2) + "/" + key.hex +
         ".pimcache";
}

std::string Store::manifest_path(const CacheKey& key) const {
  const std::string root = options_.disk_dir.empty() ? dir() : options_.disk_dir;
  return root + "/" + key.kind + "/" + key.hex.substr(0, 2) + "/" + key.hex +
         ".pimmanifest";
}

std::string Store::encode_entry(const CacheKey& key, std::string_view payload) {
  std::string entry = "pim-cache v" + std::to_string(kFormatVersion) + "\nkind " +
                      key.kind + "\nkey " + key.hex + "\nsha256 " + sha256_hex(payload) +
                      "\nbytes " + std::to_string(payload.size()) + "\n----\n";
  entry.reserve(entry.size() + payload.size());
  entry.append(payload);
  return entry;
}

Expected<std::string> Store::decode_entry(const CacheKey& key, std::string_view file) {
  auto bad = [](const std::string& what) {
    return Error("cache entry: " + what, ErrorCode::io_parse);
  };
  auto take_line = [&file, &bad]() -> Expected<std::string> {
    const size_t nl = file.find('\n');
    if (nl == std::string_view::npos) return bad("truncated header");
    std::string line(file.substr(0, nl));
    file.remove_prefix(nl + 1);
    return line;
  };
  auto expect_field = [&take_line, &bad](const std::string& name) -> Expected<std::string> {
    Expected<std::string> line = take_line();
    if (!line.ok()) return line;
    if (!starts_with(line.value(), name + " "))
      return bad("missing '" + name + "' header field");
    return line.value().substr(name.size() + 1);
  };

  Expected<std::string> magic = take_line();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "pim-cache v" + std::to_string(kFormatVersion))
    return bad("unsupported format '" + magic.value() + "'");
  Expected<std::string> kind = expect_field("kind");
  if (!kind.ok()) return kind.error();
  if (kind.value() != key.kind)
    return bad("kind mismatch: entry is '" + kind.value() + "'");
  Expected<std::string> hex = expect_field("key");
  if (!hex.ok()) return hex.error();
  if (hex.value() != key.hex) return bad("key mismatch");
  Expected<std::string> digest = expect_field("sha256");
  if (!digest.ok()) return digest.error();
  Expected<std::string> bytes = expect_field("bytes");
  if (!bytes.ok()) return bytes.error();
  Expected<std::string> sep = take_line();
  if (!sep.ok()) return sep.error();
  if (sep.value() != "----") return bad("missing payload separator");

  size_t count = 0;
  try {
    count = static_cast<size_t>(parse_long(bytes.value()));
  } catch (const Error&) {
    return bad("malformed byte count '" + bytes.value() + "'");
  }
  if (file.size() != count)
    return bad("payload is " + std::to_string(file.size()) + " bytes, header says " +
               std::to_string(count));
  std::string payload(file);
  if (sha256_hex(payload) != digest.value()) return bad("payload digest mismatch");
  return payload;
}

void Store::insert_memory(const std::string& id, std::string payload,
                          std::string manifest_text, int64_t cost_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(id); it != index_.end()) {
    bytes_ -= it->second->payload.size() + it->second->manifest.size();
    bytes_ += payload.size() + manifest_text.size();
    it->second->payload = std::move(payload);
    it->second->manifest = std::move(manifest_text);
    it->second->cost_ns = cost_ns;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += payload.size() + manifest_text.size();
    lru_.push_front(MemEntry{id, std::move(payload), std::move(manifest_text), cost_ns});
    index_[id] = lru_.begin();
  }
  while (!lru_.empty() && (bytes_ > options_.max_memory_bytes ||
                           lru_.size() > options_.max_memory_entries)) {
    const MemEntry& victim = lru_.back();
    bytes_ -= victim.payload.size() + victim.manifest.size();
    index_.erase(victim.id);
    lru_.pop_back();
    PIM_COUNT("cache.evict");
  }
  set_bytes_gauge(bytes_);
}

std::optional<std::string> Store::get(const CacheKey& key) {
  // Fault-armed bypass is neither a hit nor a miss: the caller recomputes
  // under injection without touching (or mis-counting) cache state, so it
  // gets its own counter and the hit/miss/corrupt tallies stay a pure
  // function of actual cache traffic.
  if (fault::armed()) {
    PIM_COUNT("cache.bypass");
    return std::nullopt;
  }
  if (mode() == Mode::Off) return std::nullopt;
  const bool timing = obs::enabled();
  CacheMetrics* metrics = timing ? &CacheMetrics::get() : nullptr;
  const int64_t start = timing ? obs::now_ns() : 0;
  const std::string id = key.kind + "/" + key.hex;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(id); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      PIM_COUNT("cache.hit");
      // The hit just saved the compute the manifest priced: the
      // incremental.saved_ns counter is the warm path's receipt.
      if (it->second->cost_ns > 0)
        PIM_COUNT_N("incremental.saved_ns", it->second->cost_ns);
      if (metrics) {
        metrics->mem_load.record_ns(obs::now_ns() - start);
        metrics->update_hit_rate();
      }
      return it->second->payload;
    }
  }
  PIM_OBS_SPAN("cache.store.read");
  const int64_t disk_start = timing ? obs::now_ns() : 0;
  const std::string path = entry_path(key);
  std::string image;
  if (!read_entry_file(path, image)) {
    PIM_COUNT("cache.miss");
    if (metrics) metrics->update_hit_rate();
    return std::nullopt;
  }
  // An entry is only served together with its provenance sidecar: put()
  // writes the manifest first, so a valid entry missing one is damage
  // (or a pre-manifest leftover) and fails open like any corruption.
  const std::string mpath = manifest_path(key);
  std::string manifest_image;
  Expected<std::string> payload = decode_entry(key, image);
  Expected<Manifest> manifest =
      payload.ok() && read_entry_file(mpath, manifest_image)
          ? decode_manifest(manifest_image)
          : Expected<Manifest>(Error("cache manifest: missing sidecar",
                                     ErrorCode::io_parse));
  if (manifest.ok() &&
      (manifest.value().key.kind != key.kind || manifest.value().key.hex != key.hex))
    manifest = Error("cache manifest: key mismatch", ErrorCode::io_parse);
  if (!payload.ok() || !manifest.ok()) {
    // Fail-open: a corrupt entry (or orphaned/garbled sidecar) is a
    // miss, never an error. Scrub the pair so the recompute's put()
    // replaces both with a consistent one.
    PIM_COUNT("cache.corrupt");
    PIM_COUNT("cache.miss");
    if (metrics) metrics->update_hit_rate();
    const Error& why = payload.ok() ? manifest.error() : payload.error();
    log_warn("cache: ignoring corrupt entry '", path, "': ", why.message());
    if (mode() == Mode::ReadWrite) {
      std::error_code ec;
      fs::remove(path, ec);
      fs::remove(mpath, ec);
    }
    return std::nullopt;
  }
  PIM_COUNT("cache.hit");
  PIM_COUNT("cache.disk.hit");
  const int64_t cost_ns = manifest.value().cost_ns;
  if (cost_ns > 0) PIM_COUNT_N("incremental.saved_ns", cost_ns);
  std::string value = payload.take();
  if (metrics) {
    metrics->disk_load.record_ns(obs::now_ns() - disk_start);
    metrics->entry_bytes.record_ns(static_cast<int64_t>(value.size()));
    metrics->update_hit_rate();
  }
  insert_memory(id, value, std::move(manifest_image), cost_ns);
  return value;
}

namespace {

// Atomic file write (tmp + rename) with the store's bounded retry. True
// on success; a failure is logged and fails open.
bool write_file_atomic(const std::string& path, const std::string& image,
                       const char* what) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  for (int attempt = 0;; ++attempt) {
    try {
      fs::create_directories(fs::path(path).parent_path());
      {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        require(out.good(), "cache: cannot open '" + tmp + "'", ErrorCode::io_parse);
        out.write(image.data(), static_cast<std::streamsize>(image.size()));
        require(out.good(), "cache: write failed for '" + tmp + "'",
                ErrorCode::io_parse);
      }
      fs::rename(tmp, path);
      return true;
    } catch (const std::exception& e) {
      // A failed rename (or a later attempt bailing early) must not
      // strand the tmp file in the cache dir.
      std::error_code ec;
      fs::remove(tmp, ec);
      if (attempt + 1 >= kIoAttempts) {
        log_warn("cache: ", what, " write skipped after ", kIoAttempts,
                 " attempts: ", e.what());
        return false;
      }
      PIM_COUNT("cache.io.retry");
      backoff_sleep(attempt);
    }
  }
}

}  // namespace

void Store::put(const CacheKey& key, std::string_view payload) {
  if (fault::armed()) {
    PIM_COUNT("cache.bypass");
    return;
  }
  if (mode() == Mode::Off) return;
  if (obs::enabled())
    CacheMetrics::get().entry_bytes.record_ns(static_cast<int64_t>(payload.size()));
  // Provenance travels with the entry: the active Tracked scope (opened
  // by the cached wrapper that computed `payload`) knows every facet the
  // key hashed and every upstream artifact consumed. Outside a scope the
  // manifest is empty but still present, so the entry<->manifest
  // invariant holds unconditionally.
  const Manifest manifest = Tracked::current() != nullptr
                                ? Tracked::current()->manifest(key)
                                : Manifest{key, {}, {}, 0};
  const std::string manifest_image = encode_manifest(manifest);
  insert_memory(key.kind + "/" + key.hex, std::string(payload), manifest_image,
                manifest.cost_ns);
  if (mode() != Mode::ReadWrite) return;
  PIM_OBS_SPAN("cache.store.write");
  // Disk failures only cost future warm starts, so they retry with
  // backoff and finally demote to a warning instead of failing the
  // computation that produced `payload`. Order matters: the manifest
  // sidecar lands first, and a sidecar failure downgrades the whole put
  // to a fail-open full-entry miss — the disk tier must never hold an
  // entry without provenance (a reader would scrub it as corrupt).
  const std::string path = entry_path(key);
  const std::string mpath = manifest_path(key);
  if (!write_file_atomic(mpath, manifest_image, "manifest")) {
    PIM_COUNT("cache.manifest.fail");
    return;
  }
  if (!write_file_atomic(path, encode_entry(key, payload), "entry")) {
    // Entry write failed after the sidecar landed: scrub the sidecar so
    // verify_cache never reports this put as an orphan manifest.
    std::error_code ec;
    fs::remove(mpath, ec);
    return;
  }
  PIM_COUNT("cache.write");
}

bool Store::erase(const CacheKey& key) {
  const std::string id = key.kind + "/" + key.hex;
  bool removed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(id); it != index_.end()) {
      bytes_ -= it->second->payload.size() + it->second->manifest.size();
      lru_.erase(it->second);
      index_.erase(it);
      set_bytes_gauge(bytes_);
      removed = true;
    }
  }
  if (mode() != Mode::ReadWrite) return removed;
  std::error_code ec;
  // Entry first, then manifest: a concurrent reader that loses the race
  // sees manifest-without-entry (a plain miss), never the reverse.
  removed = fs::remove(entry_path(key), ec) || removed;
  removed = fs::remove(manifest_path(key), ec) || removed;
  return removed;
}

void Store::clear_memory() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  set_bytes_gauge(0);
}

size_t Store::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t Store::memory_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace pim::cache
