#pragma once
/// \file spans.hpp
/// In-memory span log for the traced run. The benchmark records a span
/// around each call it makes into a layer's public function; nothing
/// inside the simulator records spans. The log is written out once, when
/// the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t parent = 0;  ///< id of the enclosing span, 0 for a root
  std::int64_t op = -1;      ///< timed op index, -1 outside the op loop
};

/// Per-name totals: self time is a span's duration minus the part of it
/// its children cover.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanLog {
 public:
  /// Starts a span and returns its id (ids start at 1). Thread-safe.
  std::uint32_t open(const char* name, std::uint32_t parent, std::int64_t op,
                     Clock::time_point start = Clock::now());
  void close(std::uint32_t id, Clock::time_point end = Clock::now());
  /// A span whose start and end are both known.
  std::uint32_t add(const char* name, std::uint32_t parent, std::int64_t op,
                    Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;
  std::map<std::string, SpanTotals> totals() const;
  /// {"spans": [...], "self_time": {...}} with times in seconds from the
  /// first span's start.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< index = id - 1
};

/// Opens a span on construction and closes it on destruction; a null log
/// records nothing, which is how the untraced run skips tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t parent = 0,
             std::int64_t op = -1)
      : log_(log), id_(log ? log->open(name, parent, op) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

}  // namespace perfbench
