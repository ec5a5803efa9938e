#pragma once
// Benchmark-side spans and the arithmetic the benchmark reports with.
//
// The benchmark wraps each public library call it makes in a Span (name,
// start, end, parent, request id).  Spans stay in memory and are
// written out when the run ends; nothing inside the library is
// instrumented.  Self time of a span is its duration minus the part of
// its interval that its children cover (overlapping children counted
// once), and coverage is the share of an interval that a set of spans
// covers.  Header-only so span_test.cpp can test it without the library.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile (p in [0, 1]) of `values`, the
/// definition numpy uses by default.  0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// True when a percentile p rests on at least `min_beyond` samples
/// above it, the condition for reporting it.
inline bool percentile_supported(std::size_t samples, double p,
                                 std::size_t min_beyond = 10) {
  return static_cast<double>(samples) * (1.0 - p) >=
         static_cast<double>(min_beyond);
}

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double covered_length(std::vector<Interval> intervals, double lo,
                             double hi) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.end <= iv.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int id = -1;
  int parent = -1;         ///< -1: root
  std::int64_t request = -1;  ///< spans of one request share it
};

/// Self time of `spans[index]`: duration minus its children's coverage.
inline double self_time(const std::vector<SpanRecord>& spans, std::size_t index) {
  const SpanRecord& span = spans[index];
  std::vector<Interval> children;
  for (const SpanRecord& other : spans) {
    if (other.parent == span.id) children.push_back({other.start, other.end});
  }
  return (span.end - span.start) - covered_length(children, span.start, span.end);
}

/// Share of `spans[index]`'s interval covered by its children.
inline double child_coverage(const std::vector<SpanRecord>& spans,
                             std::size_t index) {
  const SpanRecord& span = spans[index];
  const double length = span.end - span.start;
  if (length <= 0.0) return 1.0;
  return 1.0 - self_time(spans, index) / length;
}

/// In-memory span recorder shared by the benchmark's client threads.
/// Disabled tracers record nothing and return id -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  /// Pauses or resumes recording.  Call only while no other thread
  /// records.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  int begin(std::string name, int parent = -1, std::int64_t request = -1) {
    if (!enabled_) return -1;
    const double now = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now, now, id, parent, request});
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    const double now = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name, int parent = -1,
       std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, request)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
