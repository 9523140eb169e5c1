#include "src/kb/knowledge_base.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/common/crc32.h"
#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/kb/kb_snapshot.h"
#include "src/obs/metrics.h"
#include "src/persist/snapshot_io.h"

namespace smartml {

namespace {
constexpr char kHeader[] = "smartml-kb v1";
constexpr char kCrcPrefix[] = "crc32 ";

/// Below this size kAuto stays on the linear scan: tree build/traversal
/// overhead only pays off once the scan is long enough.
constexpr size_t kKdTreeMinRecords = 256;
/// Appends tolerated in the linear tail before a full rebuild (the bound
/// also scales with the built prefix, see RebuildIndexLocked).
constexpr size_t kTailRebuildFloor = 64;

// Resolved once against the global registry; every member is a stable
// pointer whose updates are pure atomics (safe under the KB's shared lock).
struct KbMetrics {
  Histogram* lookup_seconds = nullptr;
  Histogram* lookup_neighbors = nullptr;
  Counter* warm_start_hits = nullptr;
  Counter* warm_start_misses = nullptr;
  Counter* updates = nullptr;
  Counter* recoveries = nullptr;
  Counter* index_rebuilds = nullptr;
  Gauge* index_depth = nullptr;
  Gauge* index_records = nullptr;
  Gauge* index_tail = nullptr;
  Counter* lookups_kdtree = nullptr;
  Counter* lookups_linear = nullptr;
  Histogram* snapshot_load_seconds = nullptr;
  Gauge* snapshot_bytes = nullptr;
  Counter* snapshot_saves_binary = nullptr;
  Counter* snapshot_saves_text = nullptr;
  Counter* snapshot_loads_binary = nullptr;
  Counter* snapshot_loads_text = nullptr;
  Counter* snapshot_sections_salvaged = nullptr;
  Counter* compactions = nullptr;
  Counter* records_deduped = nullptr;
  Counter* records_evicted = nullptr;
  Counter* rejected_records = nullptr;

  static const KbMetrics& Get() {
    static const KbMetrics metrics = [] {
      MetricsRegistry& registry = GlobalMetrics();
      KbMetrics m;
      m.lookup_seconds = registry.GetHistogram(
          "smartml_kb_lookup_seconds",
          "Latency of knowledge-base nearest-neighbour lookups.",
          LatencyBuckets());
      m.lookup_neighbors = registry.GetHistogram(
          "smartml_kb_lookup_neighbors",
          "Neighbours returned per knowledge-base lookup.",
          {0.0, 1.0, 2.0, 4.0, 8.0, 16.0});
      m.warm_start_hits = registry.GetCounter(
          "smartml_kb_warm_start_hits_total",
          "Nominations that carried warm-start configurations.");
      m.warm_start_misses = registry.GetCounter(
          "smartml_kb_warm_start_misses_total",
          "Nominations without any warm-start configuration.");
      m.updates = registry.GetCounter(
          "smartml_kb_updates_total",
          "Knowledge-base record inserts and merges.");
      m.recoveries = registry.GetCounter(
          "smartml_kb_recoveries_total",
          "Knowledge-base loads that required salvage or .bak fallback.");
      m.index_rebuilds = registry.GetCounter(
          "smartml_kb_index_rebuilds_total",
          "Full rebuilds of the normalized matrix and k-d tree.");
      m.index_depth = registry.GetGauge(
          "smartml_kb_index_depth",
          "Depth of the built k-d tree (0 = linear scan).");
      m.index_records = registry.GetGauge(
          "smartml_kb_index_records",
          "Records covered by the built k-d tree.");
      m.index_tail = registry.GetGauge(
          "smartml_kb_index_tail_records",
          "Appended records in the linear tail since the last rebuild.");
      m.lookups_kdtree = registry.GetCounter(
          "smartml_kb_lookup_path_total",
          "Nearest-neighbour lookups by execution path.",
          {{"path", "kdtree"}});
      m.lookups_linear = registry.GetCounter(
          "smartml_kb_lookup_path_total",
          "Nearest-neighbour lookups by execution path.",
          {{"path", "linear"}});
      m.snapshot_load_seconds = registry.GetHistogram(
          "smartml_kb_snapshot_load_seconds",
          "Latency of knowledge-base loads from disk.", LatencyBuckets());
      m.snapshot_bytes = registry.GetGauge(
          "smartml_kb_snapshot_bytes",
          "Size of the last knowledge-base file saved or loaded.");
      m.snapshot_saves_binary = registry.GetCounter(
          "smartml_kb_snapshot_saves_total",
          "Knowledge-base saves by on-disk format.", {{"format", "binary"}});
      m.snapshot_saves_text = registry.GetCounter(
          "smartml_kb_snapshot_saves_total",
          "Knowledge-base saves by on-disk format.", {{"format", "text"}});
      m.snapshot_loads_binary = registry.GetCounter(
          "smartml_kb_snapshot_loads_total",
          "Knowledge-base loads by on-disk format.", {{"format", "binary"}});
      m.snapshot_loads_text = registry.GetCounter(
          "smartml_kb_snapshot_loads_total",
          "Knowledge-base loads by on-disk format.", {{"format", "text"}});
      m.snapshot_sections_salvaged = registry.GetCounter(
          "smartml_kb_snapshot_sections_salvaged_total",
          "Damaged snapshot sections dropped or prefix-parsed by salvage.");
      m.compactions = registry.GetCounter(
          "smartml_kb_compactions_total",
          "Knowledge-base compaction passes.");
      m.records_deduped = registry.GetCounter(
          "smartml_kb_records_deduped_total",
          "Near-identical records merged away by compaction.");
      m.records_evicted = registry.GetCounter(
          "smartml_kb_records_evicted_total",
          "Records evicted by the quality-weighted size cap.");
      m.rejected_records = registry.GetCounter(
          "smartml_kb_rejected_records_total",
          "Records refused or dropped for a non-finite meta-feature.");
      return m;
    }();
    return metrics;
  }
};

/// True when every coordinate is finite. One NaN or inf meta-feature makes
/// a record's distance to every query NaN, and a NaN in the normalizer
/// spreads that to every record, so such a record is never stored.
template <typename Vector>
bool AllFinite(const Vector& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Folds `from`'s per-algorithm results into `into` (higher accuracy wins;
/// unseen algorithms append) — the paper's incremental update, shared by
/// MergeRecordInto and compaction dedup.
void MergeResultsInto(KbRecord* into, const KbRecord& from) {
  for (const auto& incoming : from.results) {
    bool merged = false;
    for (auto& r : into->results) {
      if (r.algorithm == incoming.algorithm) {
        if (incoming.accuracy > r.accuracy) r = incoming;
        merged = true;
        break;
      }
    }
    if (!merged) into->results.push_back(incoming);
  }
}

/// Folds a re-observation of the same dataset (same name) into `existing`:
/// the newer meta-features win, landmarks are taken when the newcomer has
/// them, and results merge per algorithm. The one merge rule for AddRecord
/// and bulk loads.
void MergeRecordInto(KbRecord* existing, const KbRecord& record) {
  existing->meta_features = record.meta_features;
  if (record.has_landmarks) {
    existing->has_landmarks = true;
    existing->landmarks = record.landmarks;
  }
  MergeResultsInto(existing, record);
}
}  // namespace

KnowledgeBase::KnowledgeBase(const KnowledgeBase& other) {
  std::shared_lock lock(other.mutex_);
  state_ = other.state_;
}

KnowledgeBase& KnowledgeBase::operator=(const KnowledgeBase& other) {
  if (this == &other) return *this;
  // std::lock takes both without ordering deadlocks (a = b racing b = a).
  std::unique_lock lock(mutex_, std::defer_lock);
  std::shared_lock other_lock(other.mutex_, std::defer_lock);
  std::lock(lock, other_lock);
  state_ = other.state_;
  return *this;
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept {
  std::unique_lock lock(other.mutex_);
  state_ = std::exchange(other.state_, State());
}

KnowledgeBase& KnowledgeBase::operator=(KnowledgeBase&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  state_ = std::exchange(other.state_, State());
  return *this;
}

Status KnowledgeBase::AddRecord(const KbRecord& record) {
  if (!AllFinite(record.meta_features)) {
    KbMetrics::Get().rejected_records->Increment();
    SMARTML_LOG_WARN << "KB: refused record '" << record.dataset_name
                     << "' with a non-finite meta-feature";
    return Status::InvalidArgument("KB: record '" + record.dataset_name +
                                   "' has a non-finite meta-feature");
  }
  KbMetrics::Get().updates->Increment();
  std::unique_lock lock(mutex_);
  for (auto& existing : state_.records) {
    if (existing.dataset_name != record.dataset_name) continue;
    MergeRecordInto(&existing, record);
    // The record may have moved in meta-feature space: the tree's split
    // planes can no longer be trusted, so this is always a full rebuild.
    RebuildIndexLocked(/*appended_one=*/false);
    return Status::OK();
  }
  state_.records.push_back(record);
  RebuildIndexLocked(/*appended_one=*/true);
  return Status::OK();
}

size_t KnowledgeBase::NumRecords() const {
  std::shared_lock lock(mutex_);
  return state_.records.size();
}

std::vector<KbRecord> KnowledgeBase::SnapshotRecords() const {
  std::shared_lock lock(mutex_);
  return state_.records;
}

std::optional<KbRecord> KnowledgeBase::Find(
    const std::string& dataset_name) const {
  std::shared_lock lock(mutex_);
  for (const auto& r : state_.records) {
    if (r.dataset_name == dataset_name) return r;
  }
  return std::nullopt;
}

bool KnowledgeBase::WantTreeLocked() const {
  switch (state_.strategy) {
    case KbLookupStrategy::kLinearScan:
      return false;
    case KbLookupStrategy::kKdTree:
      return !state_.records.empty();
    case KbLookupStrategy::kAuto:
      return state_.records.size() >= kKdTreeMinRecords;
  }
  return false;
}

void KnowledgeBase::RebuildIndexLocked(bool appended_one) {
  const KbMetrics& metrics = KbMetrics::Get();
  const size_t n = state_.records.size();
  if (appended_one && WantTreeLocked() && state_.normalizer.fitted() &&
      state_.tree_records > 0 && state_.normalized.size() == n - 1 &&
      n - state_.tree_records <=
          std::max(kTailRebuildFloor, state_.tree_records / 8)) {
    // Bounded append: freeze the normalizer, put the new record in the
    // linear tail. Large KBs absorb inserts in O(d) instead of paying the
    // O(N·d + N log N) refit+rebuild on every write; the z-statistics of a
    // big KB drift far too slowly for the frozen normalizer to matter, and
    // every query still sees the record via the tail scan.
    state_.normalized.push_back(
        state_.normalizer.Apply(state_.records.back().meta_features));
    metrics.index_tail->Set(static_cast<int64_t>(n - state_.tree_records));
    return;
  }
  std::vector<MetaFeatureVector> vectors;
  vectors.reserve(n);
  for (const auto& r : state_.records) vectors.push_back(r.meta_features);
  state_.normalizer.Fit(vectors);
  state_.normalized.clear();
  state_.normalized.reserve(n);
  for (const auto& r : state_.records) {
    state_.normalized.push_back(state_.normalizer.Apply(r.meta_features));
  }
  if (WantTreeLocked()) {
    state_.tree.Build(state_.normalized);
    state_.tree_records = n;
  } else {
    state_.tree.Clear();
    state_.tree_records = 0;
  }
  metrics.index_rebuilds->Increment();
  metrics.index_depth->Set(static_cast<int64_t>(state_.tree.depth()));
  metrics.index_records->Set(static_cast<int64_t>(state_.tree_records));
  metrics.index_tail->Set(static_cast<int64_t>(n - state_.tree_records));
}

void KnowledgeBase::SetLookupStrategy(KbLookupStrategy strategy) {
  std::unique_lock lock(mutex_);
  if (state_.strategy == strategy) return;
  state_.strategy = strategy;
  RebuildIndexLocked(/*appended_one=*/false);
}

KbLookupStrategy KnowledgeBase::lookup_strategy() const {
  std::shared_lock lock(mutex_);
  return state_.strategy;
}

KbIndexStats KnowledgeBase::IndexStats() const {
  std::shared_lock lock(mutex_);
  KbIndexStats stats;
  stats.strategy = state_.strategy;
  stats.records = state_.records.size();
  stats.indexed_records = state_.tree_records;
  stats.tail_records = state_.records.size() - state_.tree_records;
  stats.tree_active = state_.tree_records > 0;
  stats.tree_depth = state_.tree.depth();
  stats.tree_nodes = state_.tree.node_count();
  return stats;
}

std::vector<KbNeighbor> KnowledgeBase::NearestRecords(
    const MetaFeatureVector& mf, size_t k) const {
  return NearestRecords(mf, nullptr, 0.0, k);
}

std::vector<KbNeighbor> KnowledgeBase::NearestRecords(
    const MetaFeatureVector& mf, const LandmarkVector* landmarks,
    double landmark_weight, size_t k) const {
  std::shared_lock lock(mutex_);
  const auto neighbors = NearestIndicesLocked(mf, landmarks, landmark_weight, k);
  std::vector<KbNeighbor> out;
  out.reserve(neighbors.size());
  for (const auto& [index, distance] : neighbors) {
    out.push_back(KbNeighbor{state_.records[index], distance});
  }
  return out;
}

std::vector<std::pair<size_t, double>> KnowledgeBase::NearestIndicesLocked(
    const MetaFeatureVector& mf, const LandmarkVector* landmarks,
    double landmark_weight, size_t k) const {
  const KbMetrics& metrics = KbMetrics::Get();
  ScopedTimer timer(metrics.lookup_seconds);
  std::vector<std::pair<size_t, double>> out;
  if (state_.records.empty() || k == 0) {
    metrics.lookup_neighbors->Observe(0.0);
    return out;
  }
  // One normalization for the query; every record distance reads the cached
  // normalized matrix built by RebuildIndexLocked(). The distance itself is
  // the unrolled SquaredDistance kernel (src/common/simd.h), shared by the
  // scan, the k-d tree, and Compact's dedup so all paths agree bit-for-bit.
  const MetaFeatureVector query = state_.normalizer.Apply(mf);
  // The landmark term is not part of the indexed space, so combined-distance
  // queries always take the scan.
  const bool combined = landmarks != nullptr && landmark_weight > 0.0;
  if (!combined && state_.tree_records > 0 && WantTreeLocked()) {
    // Sublinear path: linear tail first (appends since the last rebuild),
    // then the tree, pruning against the running k-th best. Both feed the
    // same (distance, index) total order as the scan, so the result is
    // byte-identical to the linear oracle.
    TopKCollector collector(k);
    for (size_t i = state_.tree_records; i < state_.normalized.size(); ++i) {
      collector.Offer(MetaFeatureDistance(query, state_.normalized[i]), i);
    }
    state_.tree.Search(state_.normalized, query, &collector);
    out = collector.TakeSorted();
    metrics.lookups_kdtree->Increment();
    metrics.lookup_neighbors->Observe(static_cast<double>(out.size()));
    return out;
  }
  out.reserve(state_.records.size());
  for (size_t i = 0; i < state_.records.size(); ++i) {
    double distance = MetaFeatureDistance(query, state_.normalized[i]);
    if (combined && state_.records[i].has_landmarks) {
      distance += landmark_weight *
                  LandmarkDistance(*landmarks, state_.records[i].landmarks);
    }
    out.emplace_back(i, distance);
  }
  // partial_sort is not stable, so ties break on the record index to keep
  // equal-distance neighbours in deterministic insertion order.
  const size_t top = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + top, out.end(),
                    [](const auto& a, const auto& b) {
                      return a.second < b.second ||
                             (a.second == b.second && a.first < b.first);
                    });
  out.resize(top);
  metrics.lookups_linear->Increment();
  metrics.lookup_neighbors->Observe(static_cast<double>(out.size()));
  return out;
}

KbCompactionStats KnowledgeBase::Compact(const KbCompactionOptions& options) {
  const KbMetrics& metrics = KbMetrics::Get();
  std::unique_lock lock(mutex_);
  KbCompactionStats stats;
  stats.before = state_.records.size();
  bool mutated = false;
  if (options.dedup_epsilon > 0.0 && state_.records.size() >= 2) {
    // Cover everything with the tree first so the duplicate probe is a
    // radius search instead of an O(N^2) all-pairs pass.
    if (WantTreeLocked() && state_.tree_records != state_.records.size()) {
      RebuildIndexLocked(/*appended_one=*/false);
    }
    const size_t n = state_.records.size();
    const bool use_tree = state_.tree_records == n && n > 0;
    std::vector<bool> absorbed(n, false);
    std::vector<size_t> hits;
    for (size_t i = 0; i < n; ++i) {
      if (absorbed[i]) continue;
      hits.clear();
      if (use_tree) {
        state_.tree.SearchRadius(state_.normalized, state_.normalized[i],
                                 options.dedup_epsilon, &hits);
      } else {
        for (size_t j = i + 1; j < n; ++j) {
          if (MetaFeatureDistance(state_.normalized[i], state_.normalized[j]) <=
              options.dedup_epsilon) {
            hits.push_back(j);
          }
        }
      }
      std::sort(hits.begin(), hits.end());
      for (size_t j : hits) {
        if (j <= i || absorbed[j]) continue;
        // The earliest observation survives; the newcomer's results fold in.
        MergeResultsInto(&state_.records[i], state_.records[j]);
        if (state_.records[j].has_landmarks &&
            !state_.records[i].has_landmarks) {
          state_.records[i].has_landmarks = true;
          state_.records[i].landmarks = state_.records[j].landmarks;
        }
        absorbed[j] = true;
        ++stats.merged;
      }
    }
    if (stats.merged > 0) {
      std::vector<KbRecord> kept;
      kept.reserve(n - stats.merged);
      for (size_t i = 0; i < n; ++i) {
        if (!absorbed[i]) kept.push_back(std::move(state_.records[i]));
      }
      state_.records = std::move(kept);
      mutated = true;
    }
  }
  if (options.max_records > 0 && state_.records.size() > options.max_records) {
    // Quality-weighted eviction: a record's quality is its best stored
    // accuracy (a dataset where something worked well is worth keeping as
    // warm-start evidence). Lowest quality goes first; ties evict the older
    // record so fresher observations win.
    std::vector<std::pair<double, size_t>> quality;
    quality.reserve(state_.records.size());
    for (size_t i = 0; i < state_.records.size(); ++i) {
      double best = 0.0;
      for (const auto& result : state_.records[i].results) {
        best = std::max(best, result.accuracy);
      }
      quality.emplace_back(best, i);
    }
    std::sort(quality.begin(), quality.end(),
              [](const auto& a, const auto& b) {
                return a.first < b.first ||
                       (a.first == b.first && a.second < b.second);
              });
    const size_t to_evict = state_.records.size() - options.max_records;
    std::vector<bool> evict(state_.records.size(), false);
    for (size_t i = 0; i < to_evict; ++i) evict[quality[i].second] = true;
    std::vector<KbRecord> kept;
    kept.reserve(options.max_records);
    for (size_t i = 0; i < state_.records.size(); ++i) {
      if (!evict[i]) kept.push_back(std::move(state_.records[i]));
    }
    state_.records = std::move(kept);
    stats.evicted = to_evict;
    mutated = true;
  }
  stats.after = state_.records.size();
  if (mutated) RebuildIndexLocked(/*appended_one=*/false);
  metrics.compactions->Increment();
  metrics.records_deduped->Increment(stats.merged);
  metrics.records_evicted->Increment(stats.evicted);
  return stats;
}

void KnowledgeBase::BulkLoad(std::vector<KbRecord>&& records) {
  std::unique_lock lock(mutex_);
  state_.records.clear();
  state_.records.reserve(records.size());
  // Hash-merge duplicate names (AddRecord's by-name scan would make a
  // million-record cold start O(N^2)).
  std::unordered_map<std::string, size_t> by_name;
  by_name.reserve(records.size());
  size_t rejected = 0;
  for (auto& record : records) {
    if (!AllFinite(record.meta_features)) {
      ++rejected;
      continue;
    }
    auto [it, inserted] = by_name.try_emplace(record.dataset_name,
                                              state_.records.size());
    if (inserted) {
      state_.records.push_back(std::move(record));
      continue;
    }
    MergeRecordInto(&state_.records[it->second], record);
  }
  if (rejected > 0) {
    KbMetrics::Get().rejected_records->Increment(rejected);
    SMARTML_LOG_WARN << "KB: dropped " << rejected
                     << " loaded records with a non-finite meta-feature";
  }
  RebuildIndexLocked(/*appended_one=*/false);
}

std::vector<Nomination> KnowledgeBase::Nominate(
    const MetaFeatureVector& mf, const NominationOptions& options) const {
  // A non-finite query is NaN away from every record, and NaN scores break
  // the ranking's sort: the caller gets the empty-KB answer instead.
  if (!AllFinite(mf)) return {};
  std::shared_lock lock(mutex_);
  return NominateImpl(
      NearestIndicesLocked(mf, nullptr, 0.0, options.max_neighbors), options);
}

std::vector<Nomination> KnowledgeBase::Nominate(
    const MetaFeatureVector& mf, const LandmarkVector& landmarks,
    const NominationOptions& options) const {
  if (!AllFinite(mf) ||
      (options.landmark_weight > 0.0 && !AllFinite(landmarks))) {
    return {};
  }
  std::shared_lock lock(mutex_);
  return NominateImpl(
      NearestIndicesLocked(mf, &landmarks, options.landmark_weight,
                           options.max_neighbors),
      options);
}

std::vector<Nomination> KnowledgeBase::NominateImpl(
    const std::vector<std::pair<size_t, double>>& neighbors,
    const NominationOptions& options) const {
  std::vector<Nomination> out;
  if (state_.records.empty() || options.max_algorithms == 0) return out;

  // Score every (algorithm, neighbour) pair: the distance kernel rewards
  // close datasets, the performance term rewards algorithms that did well
  // there. Evidence is summed so an algorithm confirmed by several similar
  // datasets — or dominant on one very similar dataset — rises to the top
  // (the paper's two weighted factors).
  struct Accumulator {
    double score = 0.0;
    // (accuracy-weighted) configs from contributing neighbours.
    std::vector<std::pair<double, ParamConfig>> configs;
  };
  std::map<std::string, Accumulator> by_algorithm;
  for (const auto& [record_index, distance] : neighbors) {
    const KbRecord& record = state_.records[record_index];
    const double sim =
        1.0 / std::pow(1.0 + distance, options.distance_sharpness);
    for (const auto& result : record.results) {
      const double perf =
          options.performance_weight > 0
              ? std::pow(std::max(result.accuracy, 0.0),
                         options.performance_weight)
              : 1.0;
      Accumulator& acc = by_algorithm[result.algorithm];
      acc.score += sim * perf;
      acc.configs.emplace_back(sim * perf, result.best_config);
    }
  }

  for (auto& [algorithm, acc] : by_algorithm) {
    Nomination nomination;
    nomination.algorithm = algorithm;
    nomination.score = acc.score;
    std::sort(acc.configs.begin(), acc.configs.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (auto& [w, config] : acc.configs) {
      nomination.warm_start_configs.push_back(std::move(config));
      if (nomination.warm_start_configs.size() >= 3) break;
    }
    out.push_back(std::move(nomination));
  }
  std::sort(out.begin(), out.end(), [](const Nomination& a, const Nomination& b) {
    return a.score > b.score;
  });
  if (out.size() > options.max_algorithms) out.resize(options.max_algorithms);
  const KbMetrics& metrics = KbMetrics::Get();
  for (const Nomination& nomination : out) {
    (nomination.warm_start_configs.empty() ? metrics.warm_start_misses
                                           : metrics.warm_start_hits)
        ->Increment();
  }
  return out;
}

std::string KnowledgeBase::Serialize() const {
  std::string body;
  {
    std::shared_lock lock(mutex_);
    body = SerializeLocked();
  }
  // Checksum outside the lock: it is O(body) work that needs no KB state.
  body += StrFormat("%s%08x\n", kCrcPrefix, Crc32(body));
  return body;
}

std::string KnowledgeBase::SerializeLocked() const {
  std::string out = kHeader;
  out += '\n';
  for (const auto& record : state_.records) {
    out += "record ";
    out += record.dataset_name;
    out += "\nmeta ";
    out += MetaFeaturesToString(record.meta_features);
    out += '\n';
    if (record.has_landmarks) {
      out += "landmarks ";
      out += LandmarksToString(record.landmarks);
      out += '\n';
    }
    for (const auto& result : record.results) {
      out += "algo ";
      out += result.algorithm;
      out += ' ';
      AppendDouble(&out, result.accuracy, 17);
      out += ' ';
      out += result.best_config.ToExactString();
      out += '\n';
    }
    out += "end\n";
  }
  return out;
}

namespace {

/// Splits off a trailing "crc32 <hex>" line. Returns the body (everything
/// before the crc line; the whole text when no crc line exists) and whether
/// the checksum, if present, matches.
struct CrcSplit {
  std::string_view body;
  bool has_crc = false;
  bool crc_ok = true;
};

CrcSplit SplitTrailingCrc(const std::string& text) {
  CrcSplit out;
  out.body = text;
  // Locate the start of the last non-empty line.
  size_t end = text.find_last_not_of("\r\n \t");
  if (end == std::string::npos) return out;
  size_t line_start = text.rfind('\n', end);
  line_start = line_start == std::string::npos ? 0 : line_start + 1;
  const std::string_view last =
      StripAsciiWhitespace(std::string_view(text).substr(line_start));
  if (last.rfind(kCrcPrefix, 0) != 0) return out;
  out.has_crc = true;
  out.body = std::string_view(text).substr(0, line_start);
  uint32_t stored = 0;
  const std::string hex(StripAsciiWhitespace(last.substr(6)));
  char* parse_end = nullptr;
  stored = static_cast<uint32_t>(std::strtoul(hex.c_str(), &parse_end, 16));
  out.crc_ok = parse_end != nullptr && *parse_end == '\0' && !hex.empty() &&
               stored == Crc32(out.body);
  return out;
}

/// Records decoded from the text format.
struct KbTextDecodeResult {
  std::vector<KbRecord> records;
  /// Input lines dropped by lenient parsing.
  size_t skipped_lines = 0;
};

/// Line-oriented KB parser shared by the strict and salvage paths. In
/// lenient mode a torn/corrupt line ends parsing (keeping every record that
/// reached its "end" marker) instead of failing; `skipped_lines` counts the
/// input lines dropped that way.
StatusOr<KbTextDecodeResult> ParseKbBody(std::string_view body, bool lenient) {
  std::istringstream in{std::string(body)};
  std::string line;
  if (!std::getline(in, line) ||
      std::string(StripAsciiWhitespace(line)) != kHeader) {
    return Status::InvalidArgument("KB: bad or missing header");
  }
  KbTextDecodeResult out;
  KbRecord current;
  bool in_record = false;
  size_t lines_in_open_record = 0;
  auto fail = [&](Status status) -> Status {
    if (!lenient) return status;
    // Count the bad line plus everything buffered in the open record.
    size_t dropped = 1 + lines_in_open_record;
    while (std::getline(in, line)) ++dropped;
    out.skipped_lines = dropped;
    in_record = false;  // The open record is part of the dropped tail.
    return Status::OK();
  };
  while (std::getline(in, line)) {
    const std::string_view sv = StripAsciiWhitespace(line);
    if (sv.empty()) continue;
    if (sv.rfind("record ", 0) == 0) {
      if (in_record) {
        SMARTML_RETURN_NOT_OK(fail(Status::InvalidArgument("KB: nested record")));
        break;
      }
      current = KbRecord();
      current.dataset_name = std::string(sv.substr(7));
      in_record = true;
      lines_in_open_record = 1;
    } else if (sv.rfind("meta ", 0) == 0) {
      if (!in_record) {
        SMARTML_RETURN_NOT_OK(
            fail(Status::InvalidArgument("KB: meta outside record")));
        break;
      }
      auto mf = MetaFeaturesFromString(std::string(sv.substr(5)));
      if (!mf.ok()) {
        SMARTML_RETURN_NOT_OK(fail(mf.status()));
        break;
      }
      current.meta_features = *mf;
      ++lines_in_open_record;
    } else if (sv.rfind("landmarks ", 0) == 0) {
      if (!in_record) {
        SMARTML_RETURN_NOT_OK(
            fail(Status::InvalidArgument("KB: landmarks outside record")));
        break;
      }
      auto lm = LandmarksFromString(std::string(sv.substr(10)));
      if (!lm.ok()) {
        SMARTML_RETURN_NOT_OK(fail(lm.status()));
        break;
      }
      current.landmarks = *lm;
      current.has_landmarks = true;
      ++lines_in_open_record;
    } else if (sv.rfind("algo ", 0) == 0) {
      if (!in_record) {
        SMARTML_RETURN_NOT_OK(
            fail(Status::InvalidArgument("KB: algo outside record")));
        break;
      }
      // "algo <name> <accuracy> <config...>"; config may be empty.
      const std::string rest(sv.substr(5));
      const size_t sp1 = rest.find(' ');
      if (sp1 == std::string::npos) {
        SMARTML_RETURN_NOT_OK(
            fail(Status::InvalidArgument("KB: malformed algo line")));
        break;
      }
      size_t sp2 = rest.find(' ', sp1 + 1);
      if (sp2 == std::string::npos) sp2 = rest.size();
      KbAlgorithmResult result;
      result.algorithm = rest.substr(0, sp1);
      if (!ParseDouble(rest.substr(sp1 + 1, sp2 - sp1 - 1),
                       &result.accuracy)) {
        SMARTML_RETURN_NOT_OK(
            fail(Status::InvalidArgument("KB: bad accuracy in algo line")));
        break;
      }
      if (sp2 < rest.size()) {
        auto config = ParamConfig::FromString(rest.substr(sp2 + 1));
        if (!config.ok()) {
          SMARTML_RETURN_NOT_OK(fail(config.status()));
          break;
        }
        result.best_config = *config;
      }
      current.results.push_back(std::move(result));
      ++lines_in_open_record;
    } else if (sv == "end") {
      if (!in_record) {
        SMARTML_RETURN_NOT_OK(fail(Status::InvalidArgument("KB: stray end")));
        break;
      }
      out.records.push_back(std::move(current));
      in_record = false;
      lines_in_open_record = 0;
    } else {
      SMARTML_RETURN_NOT_OK(fail(Status::InvalidArgument(
          "KB: unrecognized line '" + std::string(sv) + "'")));
      break;
    }
  }
  if (in_record) {
    if (!lenient) return Status::InvalidArgument("KB: truncated record");
    out.skipped_lines += lines_in_open_record;
  }
  return out;
}

}  // namespace

StatusOr<KnowledgeBase> KnowledgeBase::Deserialize(const std::string& bytes) {
  return Decode(bytes, /*lenient=*/false, nullptr);
}

StatusOr<KnowledgeBase> KnowledgeBase::DeserializeSalvage(
    const std::string& bytes, size_t* skipped) {
  return Decode(bytes, /*lenient=*/true, skipped);
}

StatusOr<KnowledgeBase> KnowledgeBase::Decode(const std::string& bytes,
                                              bool lenient, size_t* skipped) {
  std::vector<KbRecord> records;
  size_t dropped = 0;  // Records (binary) or lines (text) lost to damage.
  if (LooksLikeKbSnapshot(bytes)) {
    SMARTML_ASSIGN_OR_RETURN(KbSnapshotDecodeResult decoded,
                             DecodeKbSnapshot(bytes, lenient));
    if (decoded.damaged_sections > 0) {
      KbMetrics::Get().snapshot_sections_salvaged->Increment(
          decoded.damaged_sections);
    }
    records = std::move(decoded.records);
    dropped = decoded.dropped_records;
  } else {
    // Salvage ignores the text checksum by design: it runs exactly when the
    // file is known-torn, and the crc line (possibly itself truncated) is
    // just another unrecognized line that stops the lenient parser.
    std::string_view body = bytes;
    if (!lenient) {
      const CrcSplit split = SplitTrailingCrc(bytes);
      if (split.has_crc && !split.crc_ok) {
        return Status::InvalidArgument(
            "KB: checksum mismatch (torn or corrupt)");
      }
      body = split.body;
    }
    SMARTML_ASSIGN_OR_RETURN(KbTextDecodeResult decoded,
                             ParseKbBody(body, lenient));
    records = std::move(decoded.records);
    dropped = decoded.skipped_lines;
  }
  if (skipped != nullptr) *skipped = dropped;
  KnowledgeBase kb;
  kb.BulkLoad(std::move(records));
  return kb;
}

Status KnowledgeBase::SaveToFile(const std::string& path,
                                 KbFileFormat format) const {
  const std::string payload = format == KbFileFormat::kBinary
                                  ? EncodeKbSnapshot(SnapshotRecords())
                                  : Serialize();
  const Status status =
      AtomicWriteFile(path, payload, /*keep_bak=*/true, "kb_save_crash",
                      "kb_rename_fail");
  if (status.ok()) {
    const KbMetrics& metrics = KbMetrics::Get();
    metrics.snapshot_bytes->Set(static_cast<int64_t>(payload.size()));
    (format == KbFileFormat::kBinary ? metrics.snapshot_saves_binary
                                     : metrics.snapshot_saves_text)
        ->Increment();
  }
  return status;
}

StatusOr<KnowledgeBase> KnowledgeBase::LoadFromFile(const std::string& path) {
  const KbMetrics& metrics = KbMetrics::Get();
  ScopedTimer timer(metrics.snapshot_load_seconds);
  // Loads one file's bytes: strict first, then salvage. Sets *salvaged_out
  // when the result came from the lenient path (the caller counts one
  // recovery per load, no matter how many fallbacks it took).
  auto load_bytes = [](const std::string& bytes, const std::string& origin,
                       bool* salvaged_out) -> StatusOr<KnowledgeBase> {
    auto strict = Deserialize(bytes);
    if (strict.ok()) return strict;
    size_t skipped = 0;
    auto salvaged = DeserializeSalvage(bytes, &skipped);
    if (salvaged.ok() && salvaged->NumRecords() > 0) {
      SMARTML_LOG_WARN << "KB '" << origin << "': " << strict.status().ToString()
                       << " -- salvaged " << salvaged->NumRecords()
                       << " records, dropped " << skipped
                       << " torn lines/records";
      *salvaged_out = true;
      return salvaged;
    }
    return strict.status();
  };
  auto recovered = [&metrics]() { metrics.recoveries->Increment(); };
  auto loaded_ok = [&metrics](const std::string& bytes) {
    metrics.snapshot_bytes->Set(static_cast<int64_t>(bytes.size()));
    (LooksLikeKbSnapshot(bytes) ? metrics.snapshot_loads_binary
                                : metrics.snapshot_loads_text)
        ->Increment();
  };

  Status main_error = Status::OK();
  auto bytes = ReadFileBytes(path);
  if (bytes.ok()) {
    std::string body = std::move(*bytes);
    // kb_load_corrupt simulates silent on-disk corruption: flip one byte in
    // the middle of the body so the checksum (or parser) must catch it.
    if (!body.empty() && FaultShouldFire("kb_load_corrupt")) {
      body[body.size() / 2] ^= 0x20;
    }
    bool salvaged = false;
    auto loaded = load_bytes(body, path, &salvaged);
    if (loaded.ok()) {
      if (salvaged) recovered();
      loaded_ok(body);
      return loaded;
    }
    main_error = loaded.status();
  } else {
    main_error = bytes.status();
  }
  // Main file missing or beyond salvage (e.g. crash between the two
  // renames): fall back to the .bak copy of the last-good state.
  auto bak = ReadFileBytes(path + ".bak");
  if (bak.ok()) {
    bool salvaged = false;
    auto from_bak = load_bytes(*bak, path + ".bak", &salvaged);
    if (from_bak.ok()) {
      SMARTML_LOG_WARN << "KB '" << path
                       << "' unloadable; recovered last-good state from .bak";
      recovered();
      loaded_ok(*bak);
      return from_bak;
    }
  }
  return main_error;
}

}  // namespace smartml
