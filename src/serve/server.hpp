// pim::serve — the model-serving daemon core behind tools/pimd.cpp.
//
// A Server listens on a Unix-domain socket (and optionally TCP), reads
// newline-delimited JSON request lines (api/wire.hpp), executes each via
// the pim::api facade on a small worker pool, and writes back one JSON
// response line per request, in per-connection request order. Because
// the process stays alive, technologies, calibrated fits, resident
// models, and the content-addressed cache stay warm in RAM across
// millions of evaluations — the paper's "characterize once, evaluate
// cheaply forever" serving shape (ROADMAP item 1).
//
// Semantics (docs/serving.md):
//  - Admission control: a bounded queue of accepted-but-unstarted
//    requests. When full, new requests are rejected immediately with a
//    typed `overloaded` error (exit_code 3) — retryable by contract,
//    since the work never started. Rejections keep per-connection
//    response order like any other response.
//  - Deadlines: a request's deadline_ms budget is armed on the worker
//    thread running it and inherited by the pool chunks that request
//    submits, so requests with and without budgets run concurrently and
//    never truncate each other. Flows degrade to partial results or
//    typed deadline errors exactly as direct pim::api calls do.
//  - Heavy flows parallelize internally through pim::exec, so a worker
//    here is a dispatcher, not the unit of compute parallelism.
//  - Graceful drain: once stop() is called (pimd calls it when
//    SIGINT/SIGTERM trips the cooperative cancel flag), listeners
//    close, accepted requests finish — in-flight flows see the cancel
//    flag and degrade — every pending response is flushed, and run()
//    returns. Nothing accepted is ever silently dropped.
//  - A {"op":"stats"} request is answered inline by the connection
//    reader (never queued, so it stays live under load) with queue
//    depth, admission counters, exact cache hit counts (each request
//    runs under its own obs::MetricShard), and p50/p99 request latency
//    from the obs histogram.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace pim::serve {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener. An
  /// existing socket file at the path is replaced.
  std::string socket_path;
  /// TCP port on 127.0.0.1; -1 disables, 0 binds an ephemeral port
  /// (read it back via tcp_port() — tests do this).
  int tcp_port = -1;
  /// Dispatcher threads executing requests.
  int workers = 1;
  /// Max accepted-but-unstarted requests before admission control
  /// rejects with `overloaded`.
  int queue_limit = 64;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the accept/worker threads. Throws
  /// pim::Error (io_parse) when a socket cannot be bound.
  void start();

  /// Blocks until stop() is called from another thread OR the
  /// process-wide cancel flag trips (SIGINT/SIGTERM via
  /// deadline::install_signal_handlers), then drains and returns.
  void run();

  /// Initiates drain and joins every thread. Idempotent, callable from
  /// any thread; returns once every accepted request has a flushed
  /// response.
  void stop();

  /// The bound TCP port (resolves an ephemeral bind), or -1.
  int tcp_port() const;

  /// The live stats object ({"schema":"pim.serve.v1",...}).
  std::string stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pim::serve
