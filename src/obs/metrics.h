// Lock-cheap metrics for the concurrent serving core.
//
// The registry hands out stable pointers to monotonic counters, gauges and
// fixed-bucket histograms. Registration (name + label set lookup) takes a
// mutex once; after that every Increment/Set/Observe is a handful of atomic
// operations, so instrumented hot paths (HTTP workers, tuning loops, KB
// lookups) never contend on a lock. Callers cache the returned pointers —
// typically in a function-local static — and the registry keeps every metric
// alive for its own lifetime.
//
// Exposition follows the Prometheus text format (version 0.0.4): counters
// end in `_total`, histograms emit cumulative `_bucket{le="..."}` series
// plus `_sum`/`_count`, and every family carries `# HELP` / `# TYPE` lines.
//
// One process-global registry (`GlobalMetrics()`) receives every built-in
// metric and backs the REST server's GET /v1/metrics. Each family is
// registered in exactly one place; readers such as GET /v1/health and tests
// use the read-only `Value()` instead of re-declaring it.
#ifndef SMARTML_OBS_METRICS_H_
#define SMARTML_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stopwatch.h"

namespace smartml {

/// Label set of one series, e.g. {{"code", "2xx"}}. Order-insensitive:
/// the registry canonicalizes by sorting on the label name.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. All operations are atomic and lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Gauge: a value that can go up and down (queue depths, running jobs).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram with one atomic cell per bucket. Observe() is a
/// branchless-ish upper-bound scan plus two atomic adds — cheap enough for
/// per-request latencies and per-fold tuning evaluations.
class Histogram {
 public:
  /// `bounds` are inclusive upper bucket bounds; they are sorted and
  /// deduplicated, and an implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Consistent-enough snapshot for exposition and tests (each cell is read
  /// atomically; concurrent writers may land between reads).
  struct Snapshot {
    std::vector<double> bounds;          ///< Finite upper bounds.
    std::vector<uint64_t> cumulative;    ///< Per bound, then +Inf last.
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot TakeSnapshot() const;

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 cells; the last is the +Inf overflow bucket.
  std::vector<std::atomic<uint64_t>> cells_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Reasonable request-latency bounds (seconds), 0.5ms .. 10s.
const std::vector<double>& LatencyBuckets();

/// Coarser bounds (seconds) for experiment phases, 10ms .. 300s.
const std::vector<double>& PhaseBuckets();

/// A named family of series sharing one metric name, help text and type.
/// The registry owns all families and series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter for (name, labels), creating it at zero on first
  /// use. The pointer stays valid for the registry's lifetime. If `name`
  /// was already registered with a different type, a detached dummy is
  /// returned (writes are dropped) rather than corrupting the family.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const MetricLabels& labels = {});

  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const MetricLabels& labels = {});

  /// All series of one histogram family share the bounds of the first
  /// registration.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& bounds,
                          const MetricLabels& labels = {});

  /// Current value of one series without registering anything: a
  /// counter's or gauge's value, or a histogram's observation count. An
  /// absent family or label set reads 0. `labels` match in any order.
  double Value(const std::string& name, const MetricLabels& labels = {}) const;

  /// Prometheus text exposition (format version 0.0.4) of every family,
  /// sorted by metric name. Safe to call while writers are active.
  std::string EncodePrometheus() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::vector<double> bounds;  // Histogram families only.
    /// Keyed by the canonical rendered label string ("" for no labels),
    /// which keeps exposition output deterministic.
    std::vector<std::pair<std::string, Series>> series;
  };

  Series* GetSeries(const std::string& name, const std::string& help,
                    Type type, const std::vector<double>& bounds,
                    const MetricLabels& labels);

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Family>> families_;  // Sorted by name.
};

/// The process-global registry every built-in instrumentation point writes
/// to. Never destroyed (worker threads may record metrics during shutdown).
MetricsRegistry& GlobalMetrics();

/// Observes the elapsed wall-clock into a histogram on destruction.
/// Null-safe: a null histogram disables the timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Observe(watch_.ElapsedSeconds());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  Stopwatch watch_;
};

}  // namespace smartml

#endif  // SMARTML_OBS_METRICS_H_
