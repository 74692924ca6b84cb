// Shared pieces of the cfbench binary: order statistics, the run
// report (metrics, operation counts, correctness gates) and the
// in-memory span log the traced mode records.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; +inf entries
/// (misses) sort last. NaN when `values` is empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// The highest percentile of `values` that still has at least ten
/// samples beyond it, and its value; q = 0 when the sample is too small
/// (fewer than 20 values) to support any tail percentile.
struct Tail {
  double q = 0.0;
  double value = 0.0;
};
Tail supported_tail(std::vector<double> values);

/// One run's results. Metrics keep their insertion order; "details" are
/// extra JSON fields that go into the record line, not the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& key, double value);
  void detail(const std::string& key, const std::string& value);
  /// Records a correctness gate; a failed gate makes the run incorrect
  /// and the process exit non-zero.
  void gate(const std::string& name, bool passed, const std::string& what);
  void count_ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const noexcept { return gates_failed_ == 0; }
  /// The machine-readable result, printed last: {"correct",
  /// "attempted", "failed", "metrics"}.
  std::string result_json() const;
  /// Everything else (provenance, gates, details) as one JSON object.
  std::string record_json(const std::string& provenance_json) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;  // raw JSON
  std::vector<std::pair<std::string, bool>> gates_;
  int gates_failed_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::string json_number(double value);
std::string json_string(const std::string& value);

/// Spans recorded by the benchmark around its calls into the library.
/// Single writer: only one thread records into a log.
struct Span {
  std::string name;
  std::uint64_t op = 0;  // the step or request all its spans belong to
  int parent = -1;       // index of the enclosing span, -1 at top level
  double start = 0.0;    // seconds since the log's epoch
  double end = 0.0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  /// Opens a span; its parent is the innermost span still open.
  int begin(std::string name, std::uint64_t op);
  void end(int id);
  /// Adds a finished span from timestamps measured elsewhere.
  int add(std::string name, std::uint64_t op, int parent,
          Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time of span i: its duration minus the part of it that its
  /// children cover.
  double self_seconds(std::size_t i) const;
  /// Durations of every span named `name`, in recording order.
  std::vector<double> seconds_of(const std::string& name) const;
  /// Chrome trace-event JSON ("X" events, one tid per top-level name).
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), id_(log ? log->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace cfbench
