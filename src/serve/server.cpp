#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "api/wire.hpp"
#include "deadline/deadline.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace pim::serve {
namespace {

using Clock = std::chrono::steady_clock;

// A request line longer than this is a protocol violation, not a
// request — the connection is answered with an error and closed before
// the buffer can grow without bound.
constexpr size_t kMaxLineBytes = size_t{64} * 1024 * 1024;

// One client connection. The reader thread appends response slots to
// the outbox in request order; whichever worker completes the
// head-of-line slot flushes the completed prefix, so responses leave in
// request order no matter how the pool interleaves.
struct Pending {
  bool done = false;  // guarded by Connection::mu
  std::string text;
};

struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::mutex mu;
  std::deque<std::shared_ptr<Pending>> outbox;
  bool write_failed = false;
};

struct Job {
  std::shared_ptr<Connection> conn;
  std::shared_ptr<Pending> slot;
  std::string line;
};

// Requires conn.mu held. Keeps draining even after a write failure so
// slots are released (the responses just have nowhere to go).
void flush_locked(Connection& conn) {
  while (!conn.outbox.empty() && conn.outbox.front()->done) {
    const std::string& text = conn.outbox.front()->text;
    if (!conn.write_failed) {
      std::string framed = text;
      framed += '\n';
      size_t off = 0;
      while (off < framed.size()) {
        const ssize_t n = ::send(conn.fd, framed.data() + off, framed.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
          conn.write_failed = true;
          break;
        }
        off += static_cast<size_t>(n);
      }
    }
    conn.outbox.pop_front();
  }
}

// Best-effort id/op extraction for responses produced outside the
// worker path (stats, admission rejections): never throws, tolerates
// malformed lines (the identity just stays absent).
void envelope_identity(const std::string& line, bool& has_id, int64_t& id,
                       std::string& op) {
  try {
    const obs::JsonValue v = obs::parse_json(line);
    if (v.kind != obs::JsonValue::Kind::Object) return;
    if (const obs::JsonValue* m = v.find("id");
        m != nullptr && m->kind == obs::JsonValue::Kind::Number) {
      has_id = true;
      id = static_cast<int64_t>(m->number);
    }
    if (const obs::JsonValue* m = v.find("op");
        m != nullptr && m->kind == obs::JsonValue::Kind::String)
      op = m->text;
  } catch (...) {
  }
}

// Whether a response line reports failure. The envelope's own "ok" is
// the first one in every response (only "id" and "op" precede it, and a
// quote inside a string value is escaped, so no value can spell it); a
// batch whose envelope is ok but holds failed items is not an error.
bool failed(const std::string& response) {
  const size_t at = response.find("\"ok\":");
  return at != std::string::npos && response.compare(at + 5, 5, "false") == 0;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts) : options(std::move(opts)) {}

  ServerOptions options;

  std::atomic<bool> stopping{false};
  // Workers may only exit once the reader threads are joined — a reader
  // mid-enqueue after the last worker exited would strand a response.
  std::atomic<bool> drain_workers{false};
  std::once_flag stop_once;

  int unix_fd = -1;
  int tcp_fd = -1;
  int bound_tcp_port = -1;

  std::vector<std::thread> accept_threads;
  std::vector<std::thread> worker_threads;

  // Connection registry + reader lifecycle. Readers are detached (a
  // daemon serves unbounded short-lived connections; a join list would
  // grow without bound) and counted, so drain can wait for the last one.
  std::mutex conn_mu;
  std::condition_variable conn_cv;
  int active_readers = 0;  // guarded by conn_mu
  std::set<std::shared_ptr<Connection>> live;

  mutable std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Job> queue;

  // Daemon-owned stats. Standalone metric instances, NOT registry
  // entries: the registry is the process's, which an embedder may
  // reset, so daemon-lifetime aggregates live outside it.
  Clock::time_point started = Clock::now();
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> rejected{0};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> store_hits{0};
  std::atomic<int64_t> store_misses{0};
  std::atomic<int64_t> resident_hits{0};
  obs::Timer latency;
  // Counters the stats fold in from each request's MetricShard.
  const obs::Counter& cache_hit = obs::registry().counter("cache.hit");
  const obs::Counter& cache_miss = obs::registry().counter("cache.miss");
  const obs::Counter& fit_resident_hit = obs::registry().counter("fit.resident.hit");
  const obs::Counter& model_resident_hit = obs::registry().counter("model.resident.hit");

  void bind_unix();
  void bind_tcp();
  void accept_loop(int listen_fd);
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  void respond_inline(const std::shared_ptr<Connection>& conn, std::string text);
  std::string stats_json() const;
};

void Server::Impl::bind_unix() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(options.socket_path.size() < sizeof(addr.sun_path),
          "pimd: socket path too long: " + options.socket_path, ErrorCode::bad_input);
  std::strncpy(addr.sun_path, options.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(unix_fd >= 0, "pimd: socket(AF_UNIX) failed", ErrorCode::io_parse);
  ::unlink(options.socket_path.c_str());
  require(::bind(unix_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
          "pimd: cannot bind " + options.socket_path + ": " + std::strerror(errno),
          ErrorCode::io_parse);
  require(::listen(unix_fd, 64) == 0, "pimd: listen failed on " + options.socket_path,
          ErrorCode::io_parse);
}

void Server::Impl::bind_tcp() {
  tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  require(tcp_fd >= 0, "pimd: socket(AF_INET) failed", ErrorCode::io_parse);
  const int one = 1;
  ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.tcp_port));
  require(::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
          "pimd: cannot bind 127.0.0.1:" + std::to_string(options.tcp_port) + ": " +
              std::strerror(errno),
          ErrorCode::io_parse);
  require(::listen(tcp_fd, 64) == 0, "pimd: listen failed", ErrorCode::io_parse);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  require(::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
          "pimd: getsockname failed", ErrorCode::io_parse);
  bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
}

void Server::Impl::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or fatal — either way, stop accepting
    }
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      live.insert(conn);
      // A connection that races the drain still gets its reader (so
      // buffered lines are answered), but its read side closes at once.
      if (stopping.load()) ::shutdown(fd, SHUT_RD);
      ++active_readers;
    }
    std::thread([this, conn] { reader_loop(conn); }).detach();
  }
}

void Server::Impl::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    // Lines are cut at an advancing offset and the consumed prefix is
    // erased once per recv, so pipelined input costs linear time. Bytes
    // kept from the last recv hold no newline; the scan skips them.
    size_t start = 0;
    size_t pos = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    while ((pos = buffer.find('\n', pos)) != std::string::npos) {
      std::string line = buffer.substr(start, pos - start);
      start = ++pos;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      respond_inline(conn,
                     api::wire::write_error_line(
                         false, 0, "",
                         Error("pimd: request line exceeds " +
                                   std::to_string(kMaxLineBytes) + " bytes",
                               ErrorCode::bad_input)));
      break;
    }
  }
  // Deregister. Queued jobs and outbox entries keep the Connection (and
  // its fd) alive until their responses flush; the last reference closes
  // it. The notify happens under the lock so a drain waiting in stop()
  // cannot destroy the Impl out from under this call.
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    live.erase(conn);
    --active_readers;
    conn_cv.notify_all();
  }
}

void Server::Impl::respond_inline(const std::shared_ptr<Connection>& conn,
                                  std::string text) {
  auto slot = std::make_shared<Pending>();
  slot->done = true;
  slot->text = std::move(text);
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->outbox.push_back(std::move(slot));
  flush_locked(*conn);
}

void Server::Impl::handle_line(const std::shared_ptr<Connection>& conn,
                               const std::string& line) {
  // Stats stays live under load: answered by the reader, never queued.
  // The substring gate keeps the hot path at a single parse (inside the
  // worker); a false hit only costs this extra parse.
  if (line.find("\"stats\"") != std::string::npos) {
    bool has_id = false;
    int64_t id = 0;
    std::string op;
    envelope_identity(line, has_id, id, op);
    if (op == "stats") {
      std::string text = "{";
      if (has_id) text += "\"id\":" + std::to_string(id) + ",";
      text += "\"op\":\"stats\",\"ok\":true,\"result\":" + stats_json() + "}";
      respond_inline(conn, std::move(text));
      return;
    }
  }
  auto slot = std::make_shared<Pending>();
  {
    std::unique_lock<std::mutex> lock(queue_mu);
    const bool draining = stopping.load();
    if (draining || queue.size() >= static_cast<size_t>(options.queue_limit)) {
      lock.unlock();
      rejected.fetch_add(1);
      bool has_id = false;
      int64_t id = 0;
      std::string op;
      envelope_identity(line, has_id, id, op);
      const Error error =
          draining ? Error("pimd: server is draining; request not accepted",
                           ErrorCode::cancelled)
                   : Error("pimd: request queue is full (" +
                               std::to_string(options.queue_limit) +
                               " pending); retry later",
                           ErrorCode::overloaded);
      respond_inline(conn, api::wire::write_error_line(has_id, id, op, error));
      return;
    }
    accepted.fetch_add(1);
    {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      conn->outbox.push_back(slot);
    }
    queue.push_back(Job{conn, slot, line});
  }
  queue_cv.notify_one();
}

void Server::Impl::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      queue_cv.wait(lock, [&] { return drain_workers.load() || !queue.empty(); });
      if (queue.empty()) {
        if (drain_workers.load()) return;
        continue;
      }
      job = std::move(queue.front());
      queue.pop_front();
    }
    const Clock::time_point t0 = Clock::now();
    // The request runs under its own shard (its pool chunks merge into
    // it), so the counts read back are exactly its own — every item of a
    // batch — at any worker count.
    obs::MetricShard shard;
    std::string response;
    {
      obs::ShardScope scope(shard);
      response = api::wire::execute_line(job.line);
    }
    latency.record_ns(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    store_hits.fetch_add(shard.counted(cache_hit));
    store_misses.fetch_add(shard.counted(cache_miss));
    resident_hits.fetch_add(shard.counted(fit_resident_hit) +
                            shard.counted(model_resident_hit));
    shard.flush();
    completed.fetch_add(1);
    if (failed(response)) errors.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(job.conn->mu);
      job.slot->text = response;
      job.slot->done = true;
      flush_locked(*job.conn);
    }
  }
}

std::string Server::Impl::stats_json() const {
  const int64_t hits = store_hits.load() + resident_hits.load();
  const int64_t lookups = hits + store_misses.load();
  obs::TimerSnapshot lat;
  lat.count = latency.count();
  lat.total_ns = latency.total_ns();
  lat.min_ns = latency.min_ns();
  lat.max_ns = latency.max_ns();
  for (int k = 0; k < obs::Timer::kBuckets; ++k) {
    const int64_t n = latency.bucket(k);
    if (n > 0) lat.buckets.emplace_back(int64_t{1} << (k + 1), n);
  }
  const double to_ms = 1e-6;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    depth = queue.size();
  }
  std::string out = "{\"schema\":\"pim.serve.v1\"";
  out += ",\"uptime_ms\":" + std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                                 Clock::now() - started)
                                 .count());
  out += ",\"workers\":" + std::to_string(options.workers);
  out += ",\"queue_limit\":" + std::to_string(options.queue_limit);
  out += ",\"queue_depth\":" + std::to_string(depth);
  out += ",\"accepted\":" + std::to_string(accepted.load());
  out += ",\"rejected\":" + std::to_string(rejected.load());
  out += ",\"completed\":" + std::to_string(completed.load());
  out += ",\"errors\":" + std::to_string(errors.load());
  out += ",\"cache\":{\"store_hits\":" + std::to_string(store_hits.load());
  out += ",\"store_misses\":" + std::to_string(store_misses.load());
  out += ",\"resident_hits\":" + std::to_string(resident_hits.load());
  out += ",\"hit_rate\":" +
         obs::json_number(lookups == 0 ? 0.0
                                       : static_cast<double>(hits) /
                                             static_cast<double>(lookups));
  out += "},\"latency_ms\":{\"count\":" + std::to_string(lat.count);
  out += ",\"mean\":" + obs::json_number(lat.mean_ns() * to_ms);
  out += ",\"p50\":" + obs::json_number(lat.quantile_ns(0.5) * to_ms);
  out += ",\"p99\":" + obs::json_number(lat.quantile_ns(0.99) * to_ms);
  out += ",\"max\":" + obs::json_number(static_cast<double>(lat.max_ns) * to_ms);
  out += "}}";
  return out;
}

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& s = *impl_;
  require(s.options.workers >= 1, "pimd: workers must be at least 1",
          ErrorCode::bad_input);
  require(s.options.queue_limit >= 1, "pimd: queue limit must be at least 1",
          ErrorCode::bad_input);
  require(!s.options.socket_path.empty() || s.options.tcp_port >= 0,
          "pimd: no listener configured (need a socket path or a TCP port)",
          ErrorCode::bad_input);
  // Latency histograms and the per-request cache counters the stats
  // endpoint reads both ride the obs registry switch.
  obs::set_enabled(true);
  if (!s.options.socket_path.empty()) s.bind_unix();
  if (s.options.tcp_port >= 0) s.bind_tcp();
  s.started = Clock::now();
  for (int i = 0; i < s.options.workers; ++i)
    s.worker_threads.emplace_back([&s] { s.worker_loop(); });
  // The fds go in by value: stop() resets the members while these run.
  if (s.unix_fd >= 0)
    s.accept_threads.emplace_back([&s, fd = s.unix_fd] { s.accept_loop(fd); });
  if (s.tcp_fd >= 0)
    s.accept_threads.emplace_back([&s, fd = s.tcp_fd] { s.accept_loop(fd); });
  log_info("pimd: serving",
           s.options.socket_path.empty() ? "" : " on " + s.options.socket_path,
           s.bound_tcp_port >= 0 ? " tcp 127.0.0.1:" + std::to_string(s.bound_tcp_port)
                                 : "",
           " (", s.options.workers, " worker(s), queue ", s.options.queue_limit, ")");
}

void Server::run() {
  while (!impl_->stopping.load() && !deadline::cancel_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop();
}

void Server::stop() {
  Impl& s = *impl_;
  std::call_once(s.stop_once, [&s] {
    s.stopping.store(true);
    // 1. Stop accepting: closing the listeners unblocks accept().
    if (s.unix_fd >= 0) {
      ::shutdown(s.unix_fd, SHUT_RDWR);
      ::close(s.unix_fd);
      ::unlink(s.options.socket_path.c_str());
      s.unix_fd = -1;
    }
    if (s.tcp_fd >= 0) {
      ::shutdown(s.tcp_fd, SHUT_RDWR);
      ::close(s.tcp_fd);
      s.tcp_fd = -1;
    }
    for (std::thread& t : s.accept_threads) t.join();
    s.accept_threads.clear();
    // 2. Unblock readers; they finish lines already received (each gets
    // a response — accepted work is never dropped) and exit on EOF.
    // Readers are detached, so drain waits on the live counter instead
    // of joining.
    {
      std::unique_lock<std::mutex> lock(s.conn_mu);
      for (const auto& conn : s.live) ::shutdown(conn->fd, SHUT_RD);
      s.conn_cv.wait(lock, [&s] { return s.active_readers == 0; });
    }
    // 3. Only now may workers drain to empty and exit — no reader can
    // still be enqueueing. In-flight flows observe the cooperative
    // cancel flag (when the drain came from SIGINT/SIGTERM) and degrade
    // to partial results; their responses still flush.
    {
      // Under the lock, or a worker between predicate and wait misses it.
      std::lock_guard<std::mutex> lock(s.queue_mu);
      s.drain_workers.store(true);
    }
    s.queue_cv.notify_all();
    for (std::thread& t : s.worker_threads) t.join();
    s.worker_threads.clear();
    // 4. Drop connections: outboxes are empty, so this closes the fds.
    {
      std::lock_guard<std::mutex> lock(s.conn_mu);
      s.live.clear();
    }
    log_info("pimd: drained (", s.completed.load(), " completed, ",
             s.rejected.load(), " rejected)");
  });
}

int Server::tcp_port() const { return impl_->bound_tcp_port; }

std::string Server::stats_json() const { return impl_->stats_json(); }

}  // namespace pim::serve
