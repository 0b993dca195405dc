// serve_mixed: warm pimd traffic. An in-process pim::serve::Server with
// two workers listens on a Unix socket; set-up warms every key the mix
// uses. An open-loop generator then sends requests on a fixed schedule:
// ~85 % evaluate over 16 fixed links, 8 % buffer (cache hits), 5 % yield
// with 2000 samples (memory-tier hits) and 2 % evaluate carrying
// deadline_ms, which runs under the server's exclusive deadline lock. A
// {"op":"stats"} poll runs on its own connection. After the fixed-rate
// phase the traffic climbs a fixed ladder of offered rates, then a
// pipelined closed-loop burst runs on one connection. Model math is under
// 1 % of a request here; serve, api/wire, obs and the memory-tier cache
// are the rest.
//
// Load comes from this one process: the sender (main thread), one
// response reader and one stats poller — three threads and at most two
// connections at a time, fewer than nproc.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "charlib/coeffs_io.hpp"
#include "client.hpp"
#include "common.hpp"
#include "host_speed.hpp"
#include "models/proposed.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tech/techfile.hpp"
#include "tech/technology.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
namespace api = pim::api;

constexpr const char* kTech = "65nm";
constexpr int kWorkers = 2;
/// Admission queue (pimd --queue). Deep enough that a scheduling stall of
/// a few tens of milliseconds at the fixed rate does not refuse requests.
constexpr int kQueueLimit = 256;
constexpr int kLinks = 16;
constexpr int kCachedLinks = 4;  ///< links the buffer and yield requests use
constexpr int kYieldSamples = 2000;
constexpr int64_t kDeadlineMs = 1000;  ///< generous: the request never truncates
constexpr int kSetups = 15;

// Fixed-rate phase: the round-trip metrics. 2000 req/s is a fraction of
// the server's capacity even when the machine runs slow (capacity was
// measured between ~4000 and ~15000 req/s on the same virtual machine over
// an hour), so this phase measures latency, not overload. Round trips are
// grouped into 0.6 s windows of 1200 (p99 has 12 samples beyond it); a run
// reports the median window, so a scheduling stall of the machine moves a
// window, not the result.
constexpr double kFixedRate = 2000;
constexpr double kFixedSeconds = 6.0;
constexpr double kWindowSeconds = 0.6;
// The ladder of offered rates [req/s] and the latency limit a step must
// meet: p99 from the scheduled send within the limit, no refusals, no
// missing responses, and no more requests in flight at the end of the
// step than the limit allows at that rate. The limit sits above the
// ~1 ms a 2000-sample yield response costs (responses on one connection
// leave in order, so it delays the requests behind it) and above the
// multi-millisecond scheduling stalls of a virtual machine, so the ladder
// finds the rate at which the backlog starts to grow.
constexpr double kLadder[] = {3000,  4000,  5000,  6000,  7000,  8000,  9000,  10000,
                              11000, 12000, 13000, 14000, 15000, 16000, 18000, 20000};
constexpr double kStepSeconds = 0.3;
constexpr double kLatencyLimitUs = 10000;
// Pipelined closed-loop burst on one connection; the window stays below
// the server's queue limit, so admission never refuses it.
constexpr int kBurstRequests = 10000;
constexpr int kBurstWindow = 32;
constexpr int kStatsPollMs = 20;
/// One fixed-rate response in this many (seeded) is compared byte for
/// byte with an in-process wire::execute_line of the same line.
constexpr int kCheckOneIn = 40;
/// Requests of the mix run in-process through wire::execute_line per pass
/// (the `pim serve --local` path): p99 has 100 samples beyond it.
constexpr int kInProcessRequests = 10000;
/// In-process requests between two host-speed readings (host_speed.hpp),
/// ~40 ms of requests against a reading of ~10 ms.
constexpr int kProbeEvery = 500;
constexpr int kProbeLoops = 5;

enum Kind : uint8_t { kEvaluate, kBuffer, kYield, kDeadline };

api::LinkSpec link_spec(int i) {
  static const char* styles[] = {"SS", "DS", "SH"};
  api::LinkSpec spec;
  spec.tech = kTech;
  spec.length_mm = 1.0 + 0.5 * i;
  spec.style = styles[i % 3];
  return spec;
}

/// The request traffic mix, drawn from the workload seed.
class Mix {
 public:
  explicit Mix(uint64_t seed) : seed_(seed) {}

  Kind draw(std::mt19937_64& rng) const {
    const uint64_t u = rng() % 100;
    return u < 85 ? kEvaluate : u < 93 ? kBuffer : u < 98 ? kYield : kDeadline;
  }

  std::string line(Kind kind, int64_t id, std::mt19937_64& rng) const {
    const int link = static_cast<int>(rng() % (kind == kBuffer || kind == kYield ? kCachedLinks
                                                                                 : kLinks));
    return line_for(kind, link, id);
  }

  std::string line_for(Kind kind, int link, int64_t id) const {
    switch (kind) {
      case kBuffer: {
        api::BufferRequest r;
        r.link = link_spec(link);
        return api::wire::write_request_line(id, api::AnyRequest{r});
      }
      case kYield: {
        api::YieldRequest r;
        r.link = link_spec(link);
        r.samples = kYieldSamples;
        r.seed = mix_seed(seed_, 1000 + static_cast<uint64_t>(link));
        return api::wire::write_request_line(id, api::AnyRequest{r});
      }
      case kDeadline:
      case kEvaluate: {
        api::LinkEvalRequest r;
        r.link = link_spec(link);
        if (kind == kDeadline) r.deadline_ms = kDeadlineMs;
        return api::wire::write_request_line(id, api::AnyRequest{r});
      }
    }
    return {};
  }

 private:
  uint64_t seed_;
};

/// Requests of one phase, rendered before the phase starts.
struct Traffic {
  std::vector<std::string> lines;
  std::vector<Kind> kinds;
  std::vector<bool> keep;  ///< response kept for the byte-identity check
};

Traffic render(const Mix& mix, std::mt19937_64& rng, size_t n, int64_t& next_id,
               bool sample) {
  Traffic t;
  t.lines.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Kind kind = mix.draw(rng);
    t.kinds.push_back(kind);
    t.lines.push_back(mix.line(kind, next_id++, rng));
    t.keep.push_back(sample && rng() % kCheckOneIn == 0);
  }
  return t;
}

/// What one open-loop phase measured. Times are ns on the steady clock.
struct Phase {
  int64_t start_ns = 0;
  std::vector<int64_t> due_ns, sent_ns, recv_ns;  ///< recv 0 = missing
  std::vector<uint8_t> outcome;                   ///< 0 ok, 1 refused, 2 error
  std::vector<std::string> kept;                  ///< responses kept for checks
  int64_t in_flight_at_end = 0;

  size_t missing() const {
    return static_cast<size_t>(std::count(recv_ns.begin(), recv_ns.end(), int64_t{0}));
  }
  size_t count(uint8_t what) const {
    return static_cast<size_t>(std::count(outcome.begin(), outcome.end(), what));
  }
  std::vector<double> rtt_us(const std::vector<Kind>* kinds = nullptr, int only = -1) const {
    std::vector<double> out;
    for (size_t i = 0; i < recv_ns.size(); ++i)
      if (recv_ns[i] != 0 && (only < 0 || (*kinds)[i] == only))
        out.push_back((recv_ns[i] - due_ns[i]) / 1e3);
    return out;
  }
  std::vector<double> late_us() const {
    std::vector<double> out;
    for (size_t i = 0; i < sent_ns.size(); ++i) out.push_back((sent_ns[i] - due_ns[i]) / 1e3);
    return out;
  }
};

uint8_t classify(const std::string& response) {
  if (response.find("\"ok\":true") != std::string::npos) return 0;
  if (response.find("\"code\":\"overloaded\"") != std::string::npos) return 1;
  return 2;
}

/// Sends `traffic` at `rate` on a fresh connection, each request due at
/// start + i / rate. The sender sleeps until the next request is due and
/// then sends every request that is due in one write, so a stall delays
/// later requests too; each round trip is timed from its due time.
Phase open_loop(const std::string& socket, const Traffic& traffic, double rate) {
  const size_t n = traffic.lines.size();
  Phase p;
  p.due_ns.resize(n);
  p.sent_ns.resize(n);
  p.recv_ns.assign(n, 0);
  p.outcome.assign(n, 2);
  p.kept.resize(n);
  Connection conn(socket, 5);
  std::atomic<int64_t> received{0};
  const double period_ns = 1e9 / rate;
  p.start_ns = now_ns() + 2'000'000;
  for (size_t i = 0; i < n; ++i)
    p.due_ns[i] = p.start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);

  std::thread reader([&] {
    std::string line;
    for (size_t i = 0; i < n; ++i) {
      if (!conn.next(line)) return;  // missing responses stay recv 0
      p.recv_ns[i] = now_ns();
      p.outcome[i] = classify(line);
      if (traffic.keep[i]) p.kept[i] = line;
      received.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::string batch;
  for (size_t i = 0; i < n;) {
    const int64_t now = now_ns();
    if (now < p.due_ns[i]) {
      // A sleep can overshoot; whatever falls due meanwhile goes out in
      // the next write and is still timed from its due time. Spinning
      // instead of sleeping took a core from the server it measures and
      // made round trips slower on a contended host.
      std::this_thread::sleep_for(std::chrono::nanoseconds(p.due_ns[i] - now));
      continue;
    }
    batch.clear();
    const int64_t sent = now_ns();
    for (; i < n && p.due_ns[i] <= sent; ++i) {
      batch += traffic.lines[i];
      batch += '\n';
      p.sent_ns[i] = sent;
    }
    if (!conn.send(batch)) break;
  }
  p.in_flight_at_end = static_cast<int64_t>(n) - received.load(std::memory_order_relaxed);
  reader.join();
  return p;
}

/// Closed loop: keeps `kBurstWindow` requests in flight on one
/// connection until all are answered. Returns requests per second, and
/// counts failed responses into `failed`.
double burst(const std::string& socket, const Traffic& traffic, size_t& failed) {
  const size_t n = traffic.lines.size();
  Connection conn(socket, 5);
  const auto t0 = Clock::now();
  size_t next = 0;
  std::string out;
  for (; next < n && next < static_cast<size_t>(kBurstWindow); ++next)
    out += traffic.lines[next] + "\n";
  if (!conn.send(out)) {
    failed += n;
    return 0;
  }
  std::string line;
  size_t done = 0;
  for (; done < n; ++done) {
    if (!conn.next(line)) break;
    if (classify(line) != 0) ++failed;
    if (next < n && !conn.send(traffic.lines[next++] + "\n")) break;
  }
  failed += n - done;
  return static_cast<double>(done) / seconds_since(t0);
}

/// Polls {"op":"stats"} on its own connection until stopped, tracking
/// the deepest admission queue it saw and counting polls that failed.
class StatsPoller {
 public:
  explicit StatsPoller(const std::string& socket) : conn_(socket, 5) {
    thread_ = std::thread([this] {
      std::string response;
      while (!stop_.load()) {
        if (!conn_.round_trip("{\"op\":\"stats\"}", response)) {
          errors_.fetch_add(1);
          return;
        }
        try {
          const pim::obs::JsonValue v = pim::obs::parse_json(response);
          const pim::obs::JsonValue* result = v.find("result");
          const pim::obs::JsonValue* depth = result ? result->find("queue_depth") : nullptr;
          if (depth == nullptr) throw std::runtime_error("no queue_depth");
          const int64_t d = static_cast<int64_t>(depth->number);
          int64_t cur = max_depth_.load();
          while (d > cur && !max_depth_.compare_exchange_weak(cur, d)) {
          }
        } catch (const std::exception&) {
          errors_.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(kStatsPollMs));
      }
    });
  }
  ~StatsPoller() { stop(); }
  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Resets the running maximum (a new phase starts).
  int64_t take_max() { return max_depth_.exchange(0); }
  int64_t errors() const { return errors_.load(); }

 private:
  Connection conn_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_depth_{0};
  std::atomic<int64_t> errors_{0};
  std::thread thread_;
};

/// The server's own view, from one {"op":"stats"} round trip.
struct ServerStats {
  double p50_us = 0, p99_us = 0, hit_rate = 0;
  int64_t rejected = 0, store_hits = 0, store_misses = 0;
};

ServerStats read_stats(const std::string& socket) {
  Connection conn(socket, 5);
  std::string response;
  ServerStats s;
  if (!conn.round_trip("{\"op\":\"stats\"}", response)) return s;
  const pim::obs::JsonValue v = pim::obs::parse_json(response);
  const pim::obs::JsonValue* r = v.find("result");
  if (!r) return s;
  auto num = [](const pim::obs::JsonValue* obj, const char* key) {
    const pim::obs::JsonValue* m = obj ? obj->find(key) : nullptr;
    return m ? m->number : 0.0;
  };
  const pim::obs::JsonValue* lat = r->find("latency_ms");
  const pim::obs::JsonValue* cache = r->find("cache");
  s.p50_us = 1e3 * num(lat, "p50");
  s.p99_us = 1e3 * num(lat, "p99");
  s.hit_rate = num(cache, "hit_rate");
  s.rejected = static_cast<int64_t>(num(r, "rejected"));
  s.store_hits = static_cast<int64_t>(num(cache, "store_hits"));
  s.store_misses = static_cast<int64_t>(num(cache, "store_misses"));
  return s;
}

/// Everything one pass (fixed rate, ladder, burst) measured.
struct Pass {
  std::vector<double> window_p50_us, window_p99_us;  ///< fixed-rate windows
  double goodput_rps = 0;  ///< fixed-rate responses ok and within the limit, per second
  double local_p50_us = 0, local_p99_us = 0;  ///< in-process execute_line of the mix
  double local_wall_p50_us = 0;               ///< the same p50, wall time
  double sustained_rps = 0, burst_rps = 0;
  std::vector<double> deadline_rtt_us, plain_rtt_us, late_us;
  ServerStats fixed_stats, end_stats;
  int64_t queue_depth_max = 0;
};

class ServeMixed {
 public:
  ServeMixed(const Options& opt, Report& report, Tracer& tracer)
      : opt_(opt), report_(report), tracer_(tracer),
        host_(Work::kAllocation, kProbeLoops, Reading::kMedian), mix_(opt.seed),
        store_(fs::path(opt.work_dir) / "serve-cache"),
        coeffs_((fs::absolute(opt.work_dir) / "fit" / "coeffs_65nm.pimfit").string()),
        socket_(opt.work_dir + "/pimd.sock") {}

  /// Fresh process state, every key of the mix warmed in process (as
  /// `pimd --warm` warms before it serves; the server shares the process's
  /// result cache) and a server started. Returns the seconds it took, wall
  /// time. Warm-up through the socket took 25 round trips, each waiting on
  /// the host to wake a server thread, and its time spread 30-45 % over
  /// ten runs.
  double setup() {
    const auto t0 = Clock::now();
    fresh_cache(store_);
    fs::create_directories(fs::path(coeffs_).parent_path());
    fs::copy_file(fs::path(opt_.data_dir) / "coeffs_65nm.pimfit", coeffs_,
                  fs::copy_options::overwrite_existing);
    std::vector<std::string> warm;
    api::FitRequest fit;
    fit.tech = kTech;
    fit.coeffs_path = coeffs_;
    warm.push_back(api::wire::write_request_line(0, api::AnyRequest{fit}));
    for (int l = 0; l < kLinks; ++l) warm.push_back(mix_.line_for(kEvaluate, l, 0));
    for (int l = 0; l < kCachedLinks; ++l) {
      warm.push_back(mix_.line_for(kBuffer, l, 0));
      warm.push_back(mix_.line_for(kYield, l, 0));
    }
    for (const std::string& line : warm) {
      const int64_t op = report_.attempt();
      const std::string response = api::wire::execute_line(line);
      report_.check(op, classify(response) == 0,
                    "warm-up request failed: " + response.substr(0, 200));
    }
    start_server();
    const double seconds = seconds_since(t0);
    stop_server();
    return seconds;
  }

  Pass pass(int64_t index) {
    Pass out;
    start_server();
    StatsPoller poller(socket_);
    std::mt19937_64 rng(mix_seed(opt_.seed, 7 + static_cast<uint64_t>(index)));
    Tracer::Scope root(tracer_, "serve.pass", index);

    // Fixed rate: the round-trip metrics and the sampled byte checks.
    const Traffic fixed =
        render(mix_, rng, static_cast<size_t>(kFixedRate * kFixedSeconds), next_id_, true);
    poller.take_max();
    const Phase p = [&] {
      Tracer::Scope s(tracer_, "serve.fixed_rate");
      Phase phase = open_loop(socket_, fixed, kFixedRate);
      record_requests(phase, fixed, s.id());
      return phase;
    }();
    out.queue_depth_max = poller.take_max();
    out.fixed_stats = read_stats(socket_);
    for (size_t i = 0; i < fixed.lines.size(); ++i) {
      const int64_t op = report_.attempt();
      if (p.recv_ns[i] == 0)
        report_.fail(op, "fixed rate: no response");
      else if (p.outcome[i] != 0)
        report_.fail(op, "fixed rate: request failed or refused");
      else if (fixed.keep[i])
        checks_.push_back({op, fixed.lines[i], p.kept[i]});
    }
    const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
    for (int64_t w = 0; w * window_ns < static_cast<int64_t>(kFixedSeconds * 1e9); ++w) {
      std::vector<double> rtt;
      for (size_t i = 0; i < p.recv_ns.size(); ++i)
        if (p.recv_ns[i] != 0 && (p.due_ns[i] - p.start_ns) / window_ns == w)
          rtt.push_back((p.recv_ns[i] - p.due_ns[i]) / 1e3);
      out.window_p50_us.push_back(median(rtt));
      out.window_p99_us.push_back(supported_percentile(rtt, 99).value_or(0.0));
    }
    size_t good = 0;
    for (size_t i = 0; i < p.recv_ns.size(); ++i)
      good += p.recv_ns[i] != 0 && p.outcome[i] == 0 &&
              (p.recv_ns[i] - p.due_ns[i]) / 1e3 <= kLatencyLimitUs;
    out.goodput_rps = static_cast<double>(good) / kFixedSeconds;
    out.deadline_rtt_us = p.rtt_us(&fixed.kinds, kDeadline);
    for (Kind k : {kEvaluate, kBuffer, kYield}) {
      const auto v = p.rtt_us(&fixed.kinds, k);
      out.plain_rtt_us.insert(out.plain_rtt_us.end(), v.begin(), v.end());
    }
    out.late_us = p.late_us();

    // The ladder: the highest offered rate that meets the latency limit.
    int failed_steps = 0;
    for (double rate : kLadder) {
      const Traffic step = render(mix_, rng, static_cast<size_t>(rate * kStepSeconds),
                                  next_id_, false);
      const Phase q = [&] {
        Tracer::Scope s(tracer_, "serve.ladder_step", static_cast<int64_t>(rate));
        return open_loop(socket_, step, rate);
      }();
      // Above capacity a step may be refused or time out: that is a miss
      // of the latency limit, not a failed op. Other errors are failures.
      for (size_t i = 0; i < step.lines.size(); ++i) {
        const int64_t op = report_.attempt();
        if (q.recv_ns[i] != 0 && q.outcome[i] == 2) report_.fail(op, "ladder: request failed");
      }
      const auto step_rtt = q.rtt_us();
      const double step_p99 = quantile(step_rtt, 0.99);
      const size_t refused = q.count(1), missing = q.missing();
      const size_t errors = q.count(2) - missing;
      const bool meets = missing == 0 && refused == 0 && errors == 0 &&
                         step_p99 <= kLatencyLimitUs &&
                         q.in_flight_at_end <= static_cast<int64_t>(rate * kLatencyLimitUs / 1e6) +
                                                   kWorkers;
      char note[200];
      std::snprintf(note, sizeof note,
                    "pass %lld ladder %6.0f req/s: sent %5zu refused %4zu missing %3zu "
                    "errors %zu p50 %8.0f us p99 %8.0f us in flight %3lld -> %s",
                    static_cast<long long>(index), rate, step.lines.size(), refused, missing,
                    errors, median(step_rtt), step_p99,
                    static_cast<long long>(q.in_flight_at_end), meets ? "meets" : "misses");
      report_.notes.push_back(note);
      if (meets) {
        out.sustained_rps = std::max(out.sustained_rps, rate);
        failed_steps = 0;
      } else if (++failed_steps == 2) {
        break;  // two misses in a row: past capacity
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let a backlog drain
    }

    // Pipelined closed-loop burst.
    const Traffic pipelined =
        render(mix_, rng, static_cast<size_t>(kBurstRequests), next_id_, false);
    size_t burst_failed = 0;
    {
      Tracer::Scope s(tracer_, "serve.burst");
      out.burst_rps = burst(socket_, pipelined, burst_failed);
    }
    for (size_t i = 0; i < pipelined.lines.size(); ++i) {
      const int64_t op = report_.attempt();
      if (i < burst_failed) report_.fail(op, "burst: request failed");
    }
    out.end_stats = read_stats(socket_);
    poller.stop();
    report_.check(report_.attempt(), poller.errors() == 0, "a stats poll failed");
    stop_server();
    return out;
  }

  /// Runs with the server stopped, so the in-process calls do not disturb
  /// its counters. Compares every sampled response with an in-process
  /// execute_line of the same line, then times the mix through
  /// execute_line: the request path of `pim serve --local`, which pimd's
  /// workers share, without the socket and the hand-offs between threads.
  /// Latencies are at the reference host speed: every kProbeEvery
  /// requests are scaled by the readings around them.
  void run_in_process(int64_t index, Pass& out) {
    for (const Check& c : checks_)
      report_.check(c.op, api::wire::execute_line(c.line) == c.response,
                    "response differs from in-process execute_line: " + c.line.substr(0, 120));
    checks_.clear();
    std::mt19937_64 rng(mix_seed(opt_.seed, 1'000'000 + static_cast<uint64_t>(index)));
    const Traffic local = render(mix_, rng, kInProcessRequests, next_id_, false);
    std::vector<double> us, wall_us;
    Tracer::Scope s(tracer_, "serve.in_process", index);
    host_.read();
    for (size_t i = 0; i < local.lines.size(); ++i) {
      const int64_t op = report_.attempt();
      const auto t0 = Clock::now();
      const std::string response = api::wire::execute_line(local.lines[i]);
      us.push_back(1e6 * seconds_since(t0));
      wall_us.push_back(us.back());
      report_.check(op, classify(response) == 0, "in-process request failed");
      if ((i + 1) % kProbeEvery == 0 || i + 1 == local.lines.size()) {
        const double factor = host_.factor();
        for (size_t j = i / kProbeEvery * kProbeEvery; j <= i; ++j) us[j] *= factor;
      }
    }
    out.local_p50_us = median(us);
    out.local_wall_p50_us = median(wall_us);
    out.local_p99_us = supported_percentile(us, 99).value_or(0.0);
  }

  double speed() const { return host_.speed(); }

  /// Traced run: the in-process cost of the api and wire layers and of a
  /// registry reset, per call.
  void trace_in_process(std::map<std::string, double>& L, RegistryTally& tally) {
    constexpr int kReps = 400;
    auto time_us = [&](const char* span, auto&& call) {
      std::vector<double> us;
      for (int i = 0; i < kReps; ++i) {
        const auto t0 = Clock::now();
        {
          Tracer::Scope s(tracer_, span);
          call(i);
        }
        us.push_back(1e6 * seconds_since(t0));
      }
      tally.absorb();
      return median(us);
    };
    L["api.run_evaluate_us"] = time_us("api.run_evaluate", [&](int i) {
      api::LinkEvalRequest r;
      r.link = link_spec(i % kLinks);
      (void)api::run_evaluate(r);
    });
    const char* kinds[] = {"evaluate", "buffer", "yield"};
    const Kind kind_of[] = {kEvaluate, kBuffer, kYield};
    for (int k = 0; k < 3; ++k) {
      std::vector<std::string> lines;
      for (int i = 0; i < kReps; ++i)
        lines.push_back(mix_.line_for(kind_of[k], i % kCachedLinks, i));
      L[std::string("api.execute_line_us.") + kinds[k]] = time_us(
          "api.execute_line", [&](int i) { (void)api::wire::execute_line(lines[i]); });
    }
    const std::string line = mix_.line_for(kEvaluate, 3, 1);
    L["api.wire_parse_us"] = time_us("api.wire.parse_request_line",
                                     [&](int) { (void)api::wire::parse_request_line(line); });
    const api::wire::RequestLine parsed = api::wire::parse_request_line(line);
    const auto result = api::run_any(parsed.request);
    L["api.wire_write_us"] = time_us("api.wire.write_result_line", [&](int) {
      (void)api::wire::write_result_line(parsed, result);
    });
    std::vector<double> reset_us;
    for (int i = 0; i < kReps; ++i) {
      api::LinkEvalRequest r;
      r.link = link_spec(i % kLinks);
      (void)api::run_evaluate(r);  // fills the registry the way one request does
      const auto t0 = Clock::now();
      {
        Tracer::Scope s(tracer_, "obs.registry_reset");
        obs::registry().reset();
      }
      reset_us.push_back(1e6 * seconds_since(t0));
    }
    L["obs.reset_us"] = median(reset_us);

    const pim::ProposedModel model(
        pim::corner_technology(pim::technology_from_spec(kTech), pim::Corner{}),
        pim::load_fit(coeffs_));
    std::vector<pim::LinkContext> contexts;
    std::vector<pim::LinkDesign> designs;
    for (int l = 0; l < kLinks; ++l) {
      const api::LinkSpec spec = link_spec(l);
      contexts.push_back(link_context(spec.length_mm, spec.style));
      pim::LinkDesign design;
      design.drive = spec.drive;
      design.num_repeaters = std::max(1, static_cast<int>(std::lround(spec.length_mm)));
      designs.push_back(design);
    }
    constexpr int kEvalReps = 2000;
    double sink = 0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer_, "models.evaluate");
      for (int rep = 0; rep < kEvalReps; ++rep)
        for (int l = 0; l < kLinks; ++l) sink += model.evaluate(contexts[l], designs[l]).delay;
    }
    L["models.eval_ns"] = 1e9 * seconds_since(t0) / (kEvalReps * kLinks);
    report_.check(report_.attempt(), sink > 0, "model evaluation returned no delay");
  }

 private:
  struct Check {
    int64_t op;
    std::string line, response;
  };

  void start_server() {
    pim::serve::ServerOptions options;
    options.socket_path = socket_;
    options.workers = kWorkers;
    options.queue_limit = kQueueLimit;
    server_ = std::make_unique<pim::serve::Server>(options);
    server_->start();
  }
  void stop_server() {
    if (server_) server_->stop();
    server_.reset();
  }

  /// Traced run: one span per fixed-rate request, from its due time to
  /// its response, added after the phase so the generator is not slowed.
  void record_requests(const Phase& p, const Traffic& t, int parent) {
    if (!tracer_.enabled()) return;
    static const char* names[] = {"serve.request.evaluate", "serve.request.buffer",
                                  "serve.request.yield", "serve.request.deadline"};
    for (size_t i = 0; i < p.recv_ns.size(); ++i)
      if (p.recv_ns[i] != 0)
        tracer_.add(names[t.kinds[i]], p.due_ns[i], p.recv_ns[i], parent,
                    static_cast<int64_t>(i), 1);
  }

  const Options& opt_;
  Report& report_;
  Tracer& tracer_;
  HostSpeed host_;
  Mix mix_;
  fs::path store_;
  std::string coeffs_;
  std::string socket_;
  std::unique_ptr<pim::serve::Server> server_;
  int64_t next_id_ = 1;
  std::vector<Check> checks_;
};

}  // namespace

Report run_serve_mixed(const Options& opt, Tracer& tracer) {
  Report report;
  ServeMixed workload(opt, report, tracer);
  // Set-up times are scaled by the median of readings taken before each
  // set-up (host_speed.hpp): a single short reading per set-up is too noisy.
  std::vector<double> setups;
  HostSpeed setup_host(Work::kAllocation, kProbeLoops, Reading::kMedian);
  for (int i = 0; i < kSetups; ++i) {
    setup_host.read();
    setups.push_back(workload.setup());
  }

  // Passes until the next one would overrun the budget (at least one).
  // The traced run makes its first pass untraced, as the overhead baseline.
  const auto start = Clock::now();
  std::vector<Pass> passes, traced;
  RegistryTally tally;
  double last = 0;
  while (passes.empty() || (!opt.trace && seconds_since(start) + last <= opt.seconds)) {
    const auto t0 = Clock::now();
    passes.push_back(workload.pass(static_cast<int64_t>(passes.size())));
    workload.run_in_process(static_cast<int64_t>(passes.size()), passes.back());
    last = seconds_since(t0);
  }
  if (opt.trace) {
    tracer.set_enabled(true);
    do {
      const auto t0 = Clock::now();
      const auto index = static_cast<int64_t>(passes.size() + traced.size());
      traced.push_back(workload.pass(index));
      workload.run_in_process(index, traced.back());
      last = seconds_since(t0);
    } while (seconds_since(start) + last <= opt.seconds);
    workload.trace_in_process(report.layers, tally);
    tracer.set_enabled(false);
  }
  fs::remove_all(fs::path(opt.work_dir) / "serve-cache");

  auto med = [](const std::vector<Pass>& runs, double Pass::*field) {
    std::vector<double> v;
    for (const Pass& p : runs) v.push_back(p.*field);
    return median(v);
  };
  auto windows = [](const std::vector<Pass>& runs, std::vector<double> Pass::*field) {
    std::vector<double> all;
    for (const Pass& p : runs) all.insert(all.end(), (p.*field).begin(), (p.*field).end());
    return median(all);
  };
  const double rtt_p50 = windows(passes, &Pass::window_p50_us);
  const double rtt_p99 = windows(passes, &Pass::window_p99_us);
  const double sustained = med(passes, &Pass::sustained_rps);
  const double local_p50 = med(passes, &Pass::local_p50_us);
  const double local_p99 = med(passes, &Pass::local_p99_us);
  // What is gated: the per-request latency of the serving path in process
  // and the goodput at the fixed rate. The daemon's round trips and its
  // capacity (rtt_*, sustained_rps, burst_rps) follow how promptly the
  // host schedules the hand-offs between threads: on the virtual machine
  // this was tuned on, the same code gave a median round trip of 0.3 ms
  // when the host was quiet and 1-5 ms when it was busy, and a capacity
  // anywhere between ~4000 and ~15000 req/s. They are printed by name and
  // are per-layer metrics of the traced run.
  const double goodput = med(passes, &Pass::goodput_rps);
  report.end_to_end["setup_s"] = median(setups) * setup_host.speed();
  report.end_to_end["op_p50_ms"] = local_p50 / 1e3;
  report.end_to_end["op_tail_ms"] = local_p99 / 1e3;
  report.end_to_end["ops_per_s"] = goodput;
  report.name("local_p50_us", local_p50, "us");
  report.name("local_p99_us", local_p99, "us");
  report.name("local_wall_p50_us", med(passes, &Pass::local_wall_p50_us), "us");
  report.name("goodput_rps", goodput, "1/s");
  report.name("rtt_p50_us", rtt_p50, "us");
  report.name("rtt_p99_us", rtt_p99, "us");
  report.name("sustained_rps", sustained, "1/s");
  report.name("burst_rps", med(passes, &Pass::burst_rps), "1/s");
  report.name("passes", static_cast<double>(passes.size()), "count");
  report.name("host_speed", workload.speed(), "ratio");
  report.name("fixed_rate_rps", kFixedRate, "1/s");
  report.name("latency_limit_us", kLatencyLimitUs, "us");

  if (opt.trace && !traced.empty()) {
    auto& L = report.layers;
    std::vector<double> deadline, plain, late, server_p50, server_p99, hit_rate;
    int64_t depth = 0;
    double rejected = 0, hits = 0, misses = 0;
    for (const std::vector<Pass>* runs : {&passes, &traced})
      for (const Pass& p : *runs) {
        deadline.insert(deadline.end(), p.deadline_rtt_us.begin(), p.deadline_rtt_us.end());
        plain.insert(plain.end(), p.plain_rtt_us.begin(), p.plain_rtt_us.end());
        late.insert(late.end(), p.late_us.begin(), p.late_us.end());
      }
    for (const Pass& p : traced) {
      server_p50.push_back(p.fixed_stats.p50_us);
      server_p99.push_back(p.fixed_stats.p99_us);
      hit_rate.push_back(p.fixed_stats.hit_rate);
      depth = std::max(depth, p.queue_depth_max);
      rejected += static_cast<double>(p.end_stats.rejected);
      hits += static_cast<double>(p.end_stats.store_hits);
      misses += static_cast<double>(p.end_stats.store_misses);
    }
    const double n = static_cast<double>(traced.size());
    L["serve.rtt_p50_us"] = windows(traced, &Pass::window_p50_us);
    L["serve.rtt_p99_us"] = windows(traced, &Pass::window_p99_us);
    L["serve.server_p50_us"] = median(server_p50);
    L["serve.server_p99_us"] = median(server_p99);
    L["serve.transport_us"] = L["serve.rtt_p50_us"] - L["serve.server_p50_us"];
    L["serve.queue_depth_max"] = static_cast<double>(depth);
    L["serve.rejected"] = rejected / n;
    // 2 % of the fixed-rate requests carry a deadline: a few hundred per
    // run, enough for p90 (ten beyond) but not for p99.
    L["serve.deadline_rtt_p90_us"] = supported_percentile(deadline, 90).value_or(0.0);
    L["serve.plain_rtt_p90_us"] = supported_percentile(plain, 90).value_or(0.0);
    L["serve.generator_late_us_p99"] = supported_percentile(late, 99).value_or(0.0);
    L["serve.store_hit_rate"] = median(hit_rate);
    L["serve.burst_rps"] = med(traced, &Pass::burst_rps);
    L["serve.sustained_rps"] = med(traced, &Pass::sustained_rps);
    L["cache.hits"] = hits / n;
    L["cache.misses"] = misses / n;
    L["trace.overhead_pct"] =
        100.0 * (med(traced, &Pass::local_p50_us) - local_p50) / local_p50;
  }
  return report;
}

}  // namespace e2e
