#include "deadline/deadline.hpp"

#include <signal.h>

#include <atomic>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "util/faultinject.hpp"

namespace pim::deadline {
namespace {

int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The calling thread's deadline and grace depth. Constant-initialized,
// so reading it needs no TLS guard.
thread_local State tls_state;

// Process-wide: a SIGINT/SIGTERM (or request_cancel) stops every thread.
std::atomic<bool> cancel_flag{false};

extern "C" void pim_deadline_signal_handler(int) {
  // Async-signal-safe: one lock-free atomic store, nothing else.
  cancel_flag.store(true, std::memory_order_relaxed);
}

}  // namespace

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::none: return "none";
    case StopReason::deadline_exceeded: return "deadline_exceeded";
    case StopReason::cancelled: return "cancelled";
  }
  return "none";
}

ErrorCode error_code_for(StopReason reason) {
  return reason == StopReason::cancelled ? ErrorCode::cancelled
                                         : ErrorCode::deadline_exceeded;
}

void set_budget_ms(int64_t budget_ms) {
  tls_state.deadline_ns = budget_ms <= 0 ? 0 : steady_now_ns() + budget_ms * 1'000'000;
}

void reset() {
  tls_state.deadline_ns = 0;
  cancel_flag.store(false, std::memory_order_relaxed);
}

void request_cancel() { cancel_flag.store(true, std::memory_order_relaxed); }

bool cancel_requested() { return cancel_flag.load(std::memory_order_relaxed); }

int64_t remaining_ns() {
  const int64_t deadline = tls_state.deadline_ns;
  if (deadline == 0) return INT64_MAX;
  const int64_t left = deadline - steady_now_ns();
  return left > 0 ? left : 0;
}

bool engaged() { return tls_state.deadline_ns != 0 || cancel_requested(); }

StopReason check() {
  // Fast path: nothing armed for this thread — its deadline, the cancel
  // flag and the fault harness are all idle.
  const State& state = tls_state;
  const bool live = state.deadline_ns != 0 || cancel_requested();
  if (!live && !fault::armed()) return StopReason::none;
  if (state.grace_depth > 0) return StopReason::none;

  // Fault sites first so injected stops are index-pure under the exec
  // engine's per-item streams (the wall clock would otherwise race them).
  if (fault::should_fire(fault::kDeadlineExpire)) return StopReason::deadline_exceeded;
  if (fault::should_fire(fault::kCancelMidchunk)) return StopReason::cancelled;
  if (!live) return StopReason::none;

  PIM_COUNT("cancel.checks");
  if (cancel_requested()) return StopReason::cancelled;
  if (state.deadline_ns != 0 && steady_now_ns() >= state.deadline_ns)
    return StopReason::deadline_exceeded;
  return StopReason::none;
}

void install_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = pim_deadline_signal_handler;
  sigemptyset(&action.sa_mask);
  // One signal trips the token for a graceful partial exit; a second one
  // falls back to the default disposition (kill) for stuck processes.
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

Error stop_error(StopReason reason, size_t completed, size_t total) {
  const char* what = reason == StopReason::cancelled ? "cancelled" : "deadline exceeded";
  return Error("stopped after " + std::to_string(completed) + "/" +
                   std::to_string(total) + " items: " + std::string(what),
               error_code_for(reason));
}

void record_stop_metrics(size_t partial_items) {
  // force_set like the proc.* gauges: ledger records of truncated runs
  // carry these even when --profile collection is off.
  const int64_t left = remaining_ns();
  obs::registry().gauge("deadline.remaining_ns")
      .force_set(left == INT64_MAX ? 0.0 : static_cast<double>(left));
  obs::registry().gauge("partial.items").force_set(static_cast<double>(partial_items));
}

GraceScope::GraceScope() { ++tls_state.grace_depth; }
GraceScope::~GraceScope() { --tls_state.grace_depth; }

Scope::Scope(int64_t budget_ms) : prev_deadline_ns_(tls_state.deadline_ns) {
  if (budget_ms > 0) {
    const int64_t mine = steady_now_ns() + budget_ms * 1'000'000;
    // Never loosen an outer deadline: nested scopes keep the tighter one.
    if (prev_deadline_ns_ == 0 || mine < prev_deadline_ns_) tls_state.deadline_ns = mine;
  }
}

Scope::~Scope() {
  const int64_t left = remaining_ns();
  obs::registry().gauge("deadline.remaining_ns")
      .force_set(left == INT64_MAX ? 0.0 : static_cast<double>(left));
  tls_state.deadline_ns = prev_deadline_ns_;
}

State current() { return tls_state; }

InheritScope::InheritScope(const State& state) : prev_(tls_state) { tls_state = state; }
InheritScope::~InheritScope() { tls_state = prev_; }

}  // namespace pim::deadline
