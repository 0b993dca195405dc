#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace e2e {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const std::string& name, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = stack_.empty() ? -1 : stack_.back();
  // A child inherits the request id of the span that caused it.
  span.request = request >= 0 || span.parent < 0 ? request : spans_[span.parent].request;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now_ns();
  // Spans close innermost-first on the main thread.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

int Tracer::add(const std::string& name, int64_t start_ns, int64_t end_ns, int parent,
                int64_t request, int lane) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request, lane});
  return static_cast<int>(spans_.size() - 1);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = std::max<int64_t>(0, s.end_ns - s.start_ns);
    // Union of the child intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open_run = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) covered += run_hi - run_lo;
    SelfTime& agg = out[s.name];
    ++agg.count;
    agg.total_ns += dur;
    agg.self_ns += dur - covered;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", (s.start_ns - epoch) / 1e3,
                  std::max<int64_t>(0, s.end_ns - s.start_ns) / 1e3);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":" << buf
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace e2e
