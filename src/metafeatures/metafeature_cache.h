// Memoization of dataset meta-feature and landmark extraction.
//
// Meta-feature extraction (and especially landmarking, which trains four
// models) is pure in the dataset contents, yet the serving path recomputes
// it for every POST /v1/runs and /v1/select. This cache keys extraction
// results by a content hash of the dataset — not its name, which callers can
// reuse across different uploads — so repeated requests on the same data skip
// the work entirely. A bounded LRU keeps memory flat under many distinct
// datasets.
//
// Thread safety: all members are safe to call concurrently. Extraction runs
// outside the lock, so two racing misses on the same dataset may both do the
// work once (last insert wins) — acceptable duplicated effort, never a stall
// of other requests behind a slow extraction.
#ifndef SMARTML_METAFEATURES_METAFEATURE_CACHE_H_
#define SMARTML_METAFEATURES_METAFEATURE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/metafeatures/landmarking.h"
#include "src/metafeatures/metafeatures.h"
#include "src/obs/metrics.h"

namespace smartml {

/// 64-bit content hash over a dataset's schema and values: feature names,
/// types, category dictionaries, cell bytes, labels and class names. The
/// dataset's display name is deliberately excluded — two uploads with equal
/// contents hash equal regardless of what they are called.
uint64_t DatasetContentHash(const Dataset& dataset);

class MetaFeatureCache {
 public:
  /// `capacity` bounds the number of distinct datasets retained (LRU
  /// eviction). Hits and misses count into the process registry's
  /// smartml_metafeature_cache_{hits,misses}_total.
  explicit MetaFeatureCache(size_t capacity = 128);

  /// Process-wide instance used by the serving path.
  static MetaFeatureCache& Global();

  /// ExtractMetaFeatures(dataset), memoized by content hash.
  StatusOr<MetaFeatureVector> MetaFeatures(const Dataset& dataset);

  /// ExtractLandmarkers(dataset, seed), memoized by (content hash, seed).
  StatusOr<LandmarkVector> Landmarks(const Dataset& dataset, uint64_t seed);

  /// Number of datasets currently cached.
  size_t size() const;

  void Clear();

 private:
  struct Entry {
    uint64_t key = 0;
    bool has_meta = false;
    MetaFeatureVector meta{};
    bool has_landmarks = false;
    uint64_t landmark_seed = 0;
    LandmarkVector landmarks{};
  };

  // Returns the entry for `key`, promoting it to most-recently-used, or
  // nullptr on miss. Caller holds mutex_.
  Entry* LookupLocked(uint64_t key);
  // Inserts or refreshes `key`'s entry (evicting the LRU tail past
  // capacity_) and returns it. Caller holds mutex_.
  Entry* InsertLocked(uint64_t key);

  const size_t capacity_;
  Counter* hits_;
  Counter* misses_;
  mutable std::mutex mutex_;
  // MRU-first list of entries; the map indexes it by content hash.
  std::list<Entry> entries_;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace smartml

#endif  // SMARTML_METAFEATURES_METAFEATURE_CACHE_H_
