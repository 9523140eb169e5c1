// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent). Spans are recorded by the benchmark
// around its own calls into each SmartML layer, kept in memory, and written
// out once the run ends. Per-layer metrics are derived from them as self
// times (a span's duration minus the part covered by its children) and
// counts. A disabled recorder records nothing, so the untraced run pays only
// a branch per call site.
//
// One recorder belongs to one thread; threads that trace concurrently each
// own a recorder and the results are merged afterwards.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< Seconds since the recorder's epoch.
  double end = 0.0;
  int parent = -1;     ///< Index into the same recorder's spans, -1 = root.
};

/// Count, total duration and total self time of all spans of one name.
struct SpanStats {
  size_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }
  Clock::time_point epoch() const { return epoch_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int Begin(const std::string& name);
  void End(int index);

  /// Wall time spent inside Begin/End themselves: what tracing adds.
  double overhead_seconds() const { return overhead_seconds_; }

  /// Appends `other`'s spans (parents re-indexed) and overhead.
  void Merge(const SpanRecorder& other);

  /// Aggregates spans by name.
  std::map<std::string, SpanStats> Stats() const;

  /// Writes the spans as a JSON array to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  double overhead_seconds_ = 0.0;
};

/// RAII span; a null or disabled recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (index_ >= 0) recorder_->End(index_);
    index_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
