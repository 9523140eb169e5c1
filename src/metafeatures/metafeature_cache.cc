#include "src/metafeatures/metafeature_cache.h"

#include <string_view>

#include "src/common/crc32.h"

namespace smartml {

uint64_t DatasetContentHash(const Dataset& dataset) {
  // Crc32 over each field, folded FNV-style into 64 bits. Sizes are mixed in
  // before variable-length payloads so field boundaries cannot alias (e.g.
  // ["ab","c"] vs ["a","bc"]).
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t len) {
    h ^= Crc32(std::string_view(static_cast<const char*>(data), len));
    h *= 0x100000001b3ull;
  };
  auto mix_u64 = [&mix](uint64_t v) { mix(&v, sizeof v); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    mix(s.data(), s.size());
  };
  mix_u64(dataset.NumRows());
  mix_u64(dataset.NumFeatures());
  for (const auto& feature : dataset.features()) {
    mix_str(feature.name);
    mix_u64(static_cast<uint64_t>(feature.type));
    mix_u64(feature.categories.size());
    for (const auto& category : feature.categories) mix_str(category);
    mix(feature.values.data(), feature.values.size() * sizeof(double));
  }
  mix_u64(dataset.labels().size());
  mix(dataset.labels().data(), dataset.labels().size() * sizeof(int));
  mix_u64(dataset.class_names().size());
  for (const auto& name : dataset.class_names()) mix_str(name);
  return h;
}

MetaFeatureCache::MetaFeatureCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  MetricsRegistry& registry = GlobalMetrics();
  hits_ = registry.GetCounter(
      "smartml_metafeature_cache_hits_total",
      "Meta-feature/landmark extractions served from the content-hash cache.");
  misses_ = registry.GetCounter(
      "smartml_metafeature_cache_misses_total",
      "Meta-feature/landmark extractions that had to run.");
}

MetaFeatureCache& MetaFeatureCache::Global() {
  static MetaFeatureCache* cache = new MetaFeatureCache();
  return *cache;
}

StatusOr<MetaFeatureVector> MetaFeatureCache::MetaFeatures(
    const Dataset& dataset) {
  const uint64_t key = DatasetContentHash(dataset);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry* entry = LookupLocked(key);
    if (entry != nullptr && entry->has_meta) {
      hits_->Increment();
      return entry->meta;
    }
  }
  misses_->Increment();
  // Extraction runs unlocked; failures are returned but never cached, so a
  // transiently bad dataset does not poison the entry.
  auto mf = ExtractMetaFeatures(dataset);
  if (!mf.ok()) return mf.status();
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = InsertLocked(key);
  entry->has_meta = true;
  entry->meta = *mf;
  return *mf;
}

StatusOr<LandmarkVector> MetaFeatureCache::Landmarks(const Dataset& dataset,
                                                     uint64_t seed) {
  const uint64_t key = DatasetContentHash(dataset);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry* entry = LookupLocked(key);
    if (entry != nullptr && entry->has_landmarks &&
        entry->landmark_seed == seed) {
      hits_->Increment();
      return entry->landmarks;
    }
  }
  misses_->Increment();
  auto lm = ExtractLandmarkers(dataset, seed);
  if (!lm.ok()) return lm.status();
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = InsertLocked(key);
  entry->has_landmarks = true;
  entry->landmark_seed = seed;
  entry->landmarks = *lm;
  return *lm;
}

size_t MetaFeatureCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MetaFeatureCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  index_.clear();
}

MetaFeatureCache::Entry* MetaFeatureCache::LookupLocked(uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  entries_.splice(entries_.begin(), entries_, it->second);
  return &*it->second;
}

MetaFeatureCache::Entry* MetaFeatureCache::InsertLocked(uint64_t key) {
  if (Entry* existing = LookupLocked(key)) return existing;
  entries_.push_front(Entry{});
  entries_.front().key = key;
  index_[key] = entries_.begin();
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
  }
  return &entries_.front();
}

}  // namespace smartml
