// Cooperative cancellation and wall-clock time budgets.
//
// Each thread carries (a) an absolute steady-clock deadline armed from a
// millisecond budget and (b) a GraceScope depth; the exec engine runs
// every pool chunk under its submitter's state, so concurrent requests
// keep their own budgets. The external cancel flag tripped by
// request_cancel() — typically from SIGINT/SIGTERM handlers — is
// process-wide. Long-running code does not receive a token argument; it
// polls check() at item boundaries (the exec engine does this
// automatically for every parallel region), which keeps the API surface
// identical whether or not a budget is set.
//
// check() is engineered for the hot path: when this thread has no
// deadline, no cancel is pending, and the fault harness is disarmed, it
// is a thread-local read, two relaxed loads and a branch — regions
// without budgets run at full speed and produce byte-identical output to
// a build without this layer.
//
// Determinism contract (docs/robustness.md): wall-clock expiry is
// inherently timing-dependent, so the engine converts any stop into a
// *prefix cutoff* — the completed item set is always exactly [0, cutoff)
// and per-item results are bit-identical at any --threads. For tests, the
// `deadline-expire` and `cancel-midchunk` fault sites make the stop
// itself deterministic: their per-item streams are pure functions of
// (seed, item index), so the cutoff is identical at any thread count.
//
// Metrics: cancel.checks counts engaged polls (zero when idle),
// deadline.remaining_ns is force-set at region stops and scope exit so
// the run ledger captures truncated runs even without --profile.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/error.hpp"

namespace pim::deadline {

/// Why a cooperative region stopped early. `none` means it ran to
/// completion.
enum class StopReason {
  none,
  deadline_exceeded,  ///< wall-clock budget expired (or deadline-expire fault)
  cancelled,          ///< external cancel: SIGINT/SIGTERM or request_cancel()
};

/// Stable lowercase name, e.g. "deadline_exceeded".
const char* stop_reason_name(StopReason reason);

/// The ErrorCode a stop maps to (deadline_exceeded / cancelled).
/// `reason` must not be none.
ErrorCode error_code_for(StopReason reason);

/// Arms the calling thread's wall-clock budget: check() there starts
/// reporting deadline_exceeded once `budget_ms` milliseconds of steady-clock time
/// have elapsed from this call. budget_ms <= 0 clears any armed deadline.
/// Does not touch the cancel flag.
void set_budget_ms(int64_t budget_ms);

/// Disarms this thread's deadline AND clears the cancel flag (tests /
/// request boundaries). The CLI's signal handlers can re-trip cancel.
void reset();

/// Trips the external cancel flag. Async-signal-safe (one lock-free
/// atomic store), so SIGINT/SIGTERM handlers may call it directly.
void request_cancel();

/// True when request_cancel() has been called since the last reset().
bool cancel_requested();

/// Nanoseconds of this thread's budget left; INT64_MAX when no deadline
/// is armed, clamped at 0 once expired.
int64_t remaining_ns();

/// True when this thread has a deadline armed or a cancel is pending —
/// i.e. check() is off its fast path for a reason other than faults.
bool engaged();

/// The poll. Order of precedence: fault sites (deterministic, drawn from
/// the current fault stream so the exec engine's per-item ScopedStream
/// makes them index-pure) > cancel flag > wall clock. Increments
/// cancel.checks only when off the fast path.
StopReason check();

/// Installs SIGINT/SIGTERM handlers that call request_cancel(), with
/// SA_RESETHAND so a second signal force-kills a stuck process. Idempotent.
void install_signal_handlers();

/// The typed error a stopped region raises when it cannot degrade to a
/// partial result: code from error_code_for(reason), message carrying the
/// completed-item count ("stopped after 137/1000 items: deadline
/// exceeded").
Error stop_error(StopReason reason, size_t completed, size_t total);

/// Force-sets the deadline.remaining_ns and partial.items gauges (they
/// appear in reports and the ledger even with collection off, like the
/// proc.* gauges). The exec engine calls this at every stopped region;
/// api entry points call it at scope exit.
void record_stop_metrics(size_t partial_items);

/// Suppresses check() on this thread (and its regions' pool chunks) for
/// the scope: every poll there reports none while at least one
/// GraceScope is alive. For the *bounded* finalization work that must
/// still complete after a stop was acknowledged — re-evaluating an
/// already-built best-so-far architecture, flushing reports — not for
/// dodging the budget.
class GraceScope {
 public:
  GraceScope();
  ~GraceScope();
  GraceScope(const GraceScope&) = delete;
  GraceScope& operator=(const GraceScope&) = delete;
};

/// RAII budget scope for api entry points: arms set_budget_ms(budget_ms)
/// on entry (<= 0 arms nothing) and on exit restores the previously
/// armed deadline (absolute, not re-derived) and records
/// deadline.remaining_ns. Does not clear the cancel flag — a SIGINT must
/// survive into the caller's finish path.
class Scope {
 public:
  explicit Scope(int64_t budget_ms);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int64_t prev_deadline_ns_;  // absolute; 0 = none was armed
};

/// A thread's deadline state. current() captures the calling thread's;
/// an InheritScope installs one on another thread for its lifetime (the
/// exec engine wraps every pool chunk in one, as it wraps every item in
/// a fault::ScopedStream).
struct State {
  int64_t deadline_ns = 0;  ///< absolute steady-clock ns; 0 = none armed
  int grace_depth = 0;      ///< live GraceScopes
};
State current();

class InheritScope {
 public:
  explicit InheritScope(const State& state);
  ~InheritScope();
  InheritScope(const InheritScope&) = delete;
  InheritScope& operator=(const InheritScope&) = delete;

 private:
  State prev_;
};

}  // namespace pim::deadline
