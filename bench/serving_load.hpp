// Wire-protocol load driver shared by bench/serving_throughput (the
// standalone load generator) and the pim_bench `serving_throughput`
// case, so the committed BENCH_*.json and the CI gate measure the same
// traffic. Drives a warm pimd-shaped daemon over its Unix socket with
// the three shapes that matter for serving (docs/serving.md):
//
//  - a pipelined burst of identical single evaluate lines (throughput:
//    the client never waits, so the socket + codec + dispatch path is
//    saturated the way a batching client saturates it),
//  - lock-step request/response round trips (tail latency as an
//    interactive caller sees it),
//  - one large {"op":"batch"} line (per-item cost with the envelope
//    amortized).
//
// The caller owns the server (in-process pim::serve::Server or a real
// pimd) and must have materialized the bench coeffs cache first
// (cached_model(TechNode::N65)) — the first warm-up round trip then
// pays only the fit load + resident-model build, and everything
// measured after it is the daemon's steady state.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "common.hpp"
#include "serve/transport.hpp"
#include "util/error.hpp"

namespace pim::bench::serving {

/// Counts responses until `want` arrive; returns how many it saw (short
/// on EOF). Used for the pipelined burst, where the responses are
/// identical and only their arrival matters.
inline int drain(serve::LineReader& reader, int want) {
  int seen = 0;
  std::string line;
  while (seen < want && reader.next(line) == serve::LineReader::Status::line) ++seen;
  return seen;
}

/// The "simple model eval" the ≥10k req/s acceptance bar counts: a 5 mm
/// 65nm link evaluated from the bench's cached calibrated fit
/// (bench_out/coeffs_65nm.pimfit — materialize it with cached_model
/// before driving load, or the first request characterizes).
inline api::LinkEvalRequest eval_request() {
  api::LinkEvalRequest req;
  req.link.tech = "65nm";
  req.link.length_mm = 5.0;
  req.link.coeffs_path = out_dir() + "/coeffs_65nm.pimfit";
  return req;
}

/// eval_request() as one canonical envelope line, newline included.
inline std::string eval_request_line(int64_t id) {
  return api::wire::write_request_line(id, api::AnyRequest{eval_request()}) +
         "\n";
}

struct LoadReport {
  int pipelined_requests = 0;
  double pipelined_seconds = 0.0;
  std::vector<double> rtt_us;  ///< sorted lock-step round-trip times [us]
  int batch_items = 0;
  double batch_seconds = 0.0;
  /// The last warm single-request response line (no newline) — callers
  /// compare it against wire::execute_line for the byte-identity check.
  std::string warm_response;
};

/// A quantile over the sorted rtt_us vector (linear interpolation).
inline double rtt_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Drives the three load shapes against the daemon at `socket_path`.
/// Throws Error when the stream breaks (daemon died, send failed,
/// responses missing) — a load run that did not complete has no number
/// worth recording.
inline LoadReport drive(const std::string& socket_path, int pipelined,
                        int lockstep, int batch_items) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const int fd = serve::connect_unix(socket_path);
  serve::LineReader reader(fd);
  const auto round_trip = [&](const std::string& request, std::string& response) {
    return serve::send_all(fd, request) &&
           reader.next(response) == serve::LineReader::Status::line;
  };
  const std::string line = eval_request_line(1);
  LoadReport report;

  // Warm-up round trip: pays the fit load + resident-model build once.
  if (!round_trip(line, report.warm_response)) {
    ::close(fd);
    throw Error("serving bench: warm-up request failed");
  }

  // Pipelined burst. The writer runs off-thread so the reader drains
  // concurrently — with both sides of the socket full the daemon's
  // flush would otherwise wait on this process.
  std::string burst;
  burst.reserve(line.size() * static_cast<size_t>(pipelined));
  for (int i = 0; i < pipelined; ++i) burst += line;
  std::atomic<bool> sent{true};
  const auto burst_start = Clock::now();
  std::thread writer([&] { sent = serve::send_all(fd, burst); });
  const int got = drain(reader, pipelined);
  report.pipelined_seconds = seconds_since(burst_start);
  writer.join();
  if (!sent || got != pipelined) {
    ::close(fd);
    throw Error("serving bench: pipelined stream failed (" +
                std::to_string(got) + "/" + std::to_string(pipelined) +
                " responses)");
  }
  report.pipelined_requests = pipelined;

  // Lock-step round trips: per-request latency as an interactive
  // caller sees it, including both socket crossings.
  report.rtt_us.reserve(static_cast<size_t>(lockstep));
  std::string response;
  for (int i = 0; i < lockstep; ++i) {
    const auto t0 = Clock::now();
    if (!round_trip(line, response)) {
      ::close(fd);
      throw Error("serving bench: lock-step request failed");
    }
    report.rtt_us.push_back(seconds_since(t0) * 1e6);
  }
  if (lockstep > 0) report.warm_response = response;
  std::sort(report.rtt_us.begin(), report.rtt_us.end());

  // One batch line: per-item cost with the envelope amortized.
  if (batch_items > 0) {
    api::BatchRequest batch;
    batch.items.assign(static_cast<size_t>(batch_items),
                       api::AnyRequest{eval_request()});
    const std::string batch_line =
        api::wire::write_request_line(2, batch) + "\n";
    const auto t0 = Clock::now();
    if (!round_trip(batch_line, response)) {
      ::close(fd);
      throw Error("serving bench: batch request failed");
    }
    report.batch_seconds = seconds_since(t0);
    report.batch_items = batch_items;
  }

  ::close(fd);
  return report;
}

}  // namespace pim::bench::serving
