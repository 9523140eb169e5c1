#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"

namespace smartml {

namespace {

/// Relaxed add on an atomic double (fetch_add on floating atomics is C++20
/// but not universally lock-free; the CAS loop is portable and TSan-clean).
void AtomicAdd(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + value,
                                        std::memory_order_relaxed)) {
  }
}

/// Appends a Prometheus sample value: integers render without a decimal
/// point, +Inf as "+Inf", everything else with enough digits to round trip
/// visually.
void AppendValue(std::string* out, double value) {
  if (std::isinf(value)) {
    *out += value > 0 ? "+Inf" : "-Inf";
  } else if (value == std::floor(value) && std::fabs(value) < 1e15) {
    AppendFixed0(out, value);
  } else {
    AppendDouble(out, value, 10);
  }
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Canonical rendered label string: `code="2xx",phase="tuning"` (sorted by
/// label name, "" when unlabeled). Doubles as the series map key.
std::string RenderLabels(const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [name, value] : sorted) {
    if (!out.empty()) out += ',';
    out += name + "=\"" + EscapeLabelValue(value) + "\"";
  }
  return out;
}

/// One exposition line: name{labels,extra} value.
void AppendSample(std::string* out, const std::string& name,
                  const std::string& rendered_labels,
                  const std::string& extra_label, double value) {
  *out += name;
  if (!rendered_labels.empty() || !extra_label.empty()) {
    *out += '{';
    *out += rendered_labels;
    if (!rendered_labels.empty() && !extra_label.empty()) *out += ',';
    *out += extra_label;
    *out += '}';
  }
  *out += ' ';
  AppendValue(out, value);
  *out += '\n';
}

/// First entry of a key-sorted vector of (key, value) pairs whose key is not
/// less than `key`.
template <typename Entries>
auto LowerBoundByKey(Entries& entries, const std::string& key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  cells_ = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
}

void Histogram::Observe(double value) {
  // Prometheus `le` bounds are inclusive: a value equal to a bound belongs
  // in that bucket, hence lower_bound (first bound >= value).
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  cells_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.cumulative.reserve(cells_.size());
  uint64_t running = 0;
  for (const auto& cell : cells_) {
    running += cell.load(std::memory_order_relaxed);
    snapshot.cumulative.push_back(running);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

const std::vector<double>& LatencyBuckets() {
  static const std::vector<double>* const kBuckets = new std::vector<double>{
      0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
      0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};
  return *kBuckets;
}

const std::vector<double>& PhaseBuckets() {
  static const std::vector<double>* const kBuckets = new std::vector<double>{
      0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
      2.5,  5.0,   10.0, 30.0, 60.0, 120.0, 300.0};
  return *kBuckets;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Series* MetricsRegistry::GetSeries(
    const std::string& name, const std::string& help, Type type,
    const std::vector<double>& bounds, const MetricLabels& labels) {
  const std::string key = RenderLabels(labels);
  std::lock_guard<std::mutex> lock(mutex_);

  auto family_it = LowerBoundByKey(families_, name);
  if (family_it == families_.end() || family_it->first != name) {
    Family family;
    family.type = type;
    family.help = help;
    family.bounds = bounds;
    family_it = families_.insert(family_it, {name, std::move(family)});
  }
  Family& family = family_it->second;
  if (family.type != type) return nullptr;  // Caller hands out a dummy.

  auto series_it = LowerBoundByKey(family.series, key);
  if (series_it != family.series.end() && series_it->first == key) {
    return &series_it->second;
  }
  Series series;
  series.labels = labels;
  std::sort(series.labels.begin(), series.labels.end());
  switch (type) {
    case Type::kCounter:
      series.counter = std::make_unique<Counter>();
      break;
    case Type::kGauge:
      series.gauge = std::make_unique<Gauge>();
      break;
    case Type::kHistogram:
      series.histogram = std::make_unique<Histogram>(family.bounds);
      break;
  }
  series_it = family.series.insert(series_it, {key, std::move(series)});
  return &series_it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const MetricLabels& labels) {
  Series* series = GetSeries(name, help, Type::kCounter, {}, labels);
  if (series == nullptr) {
    // Type collision: drop writes rather than corrupting the family.
    static Counter* const dummy = new Counter();
    return dummy;
  }
  return series->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const MetricLabels& labels) {
  Series* series = GetSeries(name, help, Type::kGauge, {}, labels);
  if (series == nullptr) {
    static Gauge* const dummy = new Gauge();
    return dummy;
  }
  return series->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         const std::vector<double>& bounds,
                                         const MetricLabels& labels) {
  Series* series = GetSeries(name, help, Type::kHistogram, bounds, labels);
  if (series == nullptr) {
    static Histogram* const dummy = new Histogram({1.0});
    return dummy;
  }
  return series->histogram.get();
}

double MetricsRegistry::Value(const std::string& name,
                              const MetricLabels& labels) const {
  const std::string key = RenderLabels(labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto family_it = LowerBoundByKey(families_, name);
  if (family_it == families_.end() || family_it->first != name) return 0.0;
  const Family& family = family_it->second;
  auto series_it = LowerBoundByKey(family.series, key);
  if (series_it == family.series.end() || series_it->first != key) return 0.0;
  const Series& series = series_it->second;
  switch (family.type) {
    case Type::kCounter:
      return static_cast<double>(series.counter->Value());
    case Type::kGauge:
      return static_cast<double>(series.gauge->Value());
    case Type::kHistogram:
      return static_cast<double>(series.histogram->TotalCount());
  }
  return 0.0;
}

std::string MetricsRegistry::EncodePrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    switch (family.type) {
      case Type::kCounter:
        out += "counter\n";
        break;
      case Type::kGauge:
        out += "gauge\n";
        break;
      case Type::kHistogram:
        out += "histogram\n";
        break;
    }
    for (const auto& [rendered, series] : family.series) {
      switch (family.type) {
        case Type::kCounter:
          AppendSample(&out, name, rendered, "",
                       static_cast<double>(series.counter->Value()));
          break;
        case Type::kGauge:
          AppendSample(&out, name, rendered, "",
                       static_cast<double>(series.gauge->Value()));
          break;
        case Type::kHistogram: {
          const Histogram::Snapshot snapshot =
              series.histogram->TakeSnapshot();
          for (size_t i = 0; i < snapshot.bounds.size(); ++i) {
            std::string le = "le=\"";
            AppendValue(&le, snapshot.bounds[i]);
            le += '"';
            AppendSample(&out, name + "_bucket", rendered, le,
                         static_cast<double>(snapshot.cumulative[i]));
          }
          AppendSample(&out, name + "_bucket", rendered, "le=\"+Inf\"",
                       static_cast<double>(snapshot.cumulative.back()));
          AppendSample(&out, name + "_sum", rendered, "", snapshot.sum);
          AppendSample(&out, name + "_count", rendered, "",
                       static_cast<double>(snapshot.count));
          break;
        }
      }
    }
  }
  return out;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

}  // namespace smartml
