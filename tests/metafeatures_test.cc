// Tests for the 25 meta-features and their normalizer.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/metafeature_cache.h"
#include "src/metafeatures/metafeatures.h"
#include "src/obs/metrics.h"

namespace smartml {
namespace {

Dataset MakeMixedDataset() {
  SyntheticSpec spec;
  spec.num_instances = 200;
  spec.num_informative = 4;
  spec.num_noise = 2;
  spec.num_categorical = 2;
  spec.categorical_cardinality = 3;
  spec.num_classes = 4;
  spec.seed = 33;
  return GenerateSynthetic(spec);
}

TEST(MetaFeaturesTest, ExactlyTwentyFive) {
  EXPECT_EQ(kNumMetaFeatures, 25u);
  EXPECT_EQ(MetaFeatureNames().size(), 25u);
}

TEST(MetaFeaturesTest, BasicCountsCorrect) {
  const Dataset d = MakeMixedDataset();
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  EXPECT_DOUBLE_EQ((*mf)[0], 200.0);                    // num_instances
  EXPECT_NEAR((*mf)[1], std::log(200.0), 1e-12);        // log
  EXPECT_DOUBLE_EQ((*mf)[2], 8.0);                      // num_features
  EXPECT_DOUBLE_EQ((*mf)[4], 4.0);                      // num_classes
  EXPECT_DOUBLE_EQ((*mf)[5], 6.0);                      // numeric
  EXPECT_DOUBLE_EQ((*mf)[6], 2.0);                      // categorical
  EXPECT_NEAR((*mf)[7] + (*mf)[8], 1.0, 1e-12);         // Ratios sum to 1.
  EXPECT_NEAR((*mf)[9], 8.0 / 200.0, 1e-12);            // dimensionality
}

TEST(MetaFeaturesTest, ClassEntropyBalancedBinary) {
  Dataset d("bal");
  d.AddNumericFeature("x", {1, 2, 3, 4});
  d.SetLabels({0, 1, 0, 1}, {"a", "b"});
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  EXPECT_NEAR((*mf)[11], 1.0, 1e-12);  // log2(2) bits.
  EXPECT_NEAR((*mf)[12], 1.0, 1e-12);  // Imbalance ratio 1.
  EXPECT_NEAR((*mf)[13], 0.5, 1e-12);
  EXPECT_NEAR((*mf)[14], 0.5, 1e-12);
}

TEST(MetaFeaturesTest, SymbolStatistics) {
  Dataset d("sym");
  d.AddCategoricalFeature("c2", {0, 1}, {"a", "b"});
  d.AddCategoricalFeature("c4", {0, 1}, {"a", "b", "c", "d"});
  d.SetLabels({0, 1}, {"x", "y"});
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  EXPECT_DOUBLE_EQ((*mf)[21], 3.0);  // mean
  EXPECT_DOUBLE_EQ((*mf)[22], 2.0);  // min
  EXPECT_DOUBLE_EQ((*mf)[23], 4.0);  // max
  EXPECT_DOUBLE_EQ((*mf)[24], 6.0);  // sum
}

TEST(MetaFeaturesTest, SkewnessOfSymmetricDataNearZero) {
  Dataset d("sk");
  Rng rng(3);
  std::vector<double> values(2000);
  for (double& v : values) v = rng.Normal();
  d.AddNumericFeature("x", values);
  d.SetLabels(std::vector<int>(2000, 0), {"y"});
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  EXPECT_NEAR((*mf)[15], 0.0, 0.15);  // skew mean
  EXPECT_NEAR((*mf)[18], 0.0, 0.30);  // kurtosis mean (excess)
}

TEST(MetaFeaturesTest, InvariantToRowPermutation) {
  const Dataset d = MakeMixedDataset();
  auto mf1 = ExtractMetaFeatures(d);
  Rng rng(7);
  std::vector<size_t> perm = rng.Permutation(d.NumRows());
  const Dataset shuffled = d.Subset(perm);
  auto mf2 = ExtractMetaFeatures(shuffled);
  ASSERT_TRUE(mf1.ok() && mf2.ok());
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    EXPECT_NEAR((*mf1)[i], (*mf2)[i], 1e-9) << MetaFeatureNames()[i];
  }
}

TEST(MetaFeaturesTest, MissingRatio) {
  Dataset d("miss");
  d.AddNumericFeature("x", {1, std::nan(""), 3, std::nan("")});
  d.SetLabels({0, 0, 1, 1}, {"a", "b"});
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  EXPECT_NEAR((*mf)[10], 0.5, 1e-12);
}

TEST(MetaFeaturesTest, EmptyDatasetRejected) {
  Dataset d;
  EXPECT_FALSE(ExtractMetaFeatures(d).ok());
}

TEST(MetaFeaturesTest, SerializationRoundTrip) {
  const Dataset d = MakeMixedDataset();
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  auto back = MetaFeaturesFromString(MetaFeaturesToString(*mf));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    EXPECT_EQ((*mf)[i], (*back)[i]);
  }
}

TEST(MetaFeaturesTest, DeserializeRejectsWrongArity) {
  EXPECT_FALSE(MetaFeaturesFromString("1 2 3").ok());
  EXPECT_FALSE(MetaFeaturesFromString("").ok());
}

TEST(MetaFeaturesTest, DistanceZeroToSelf) {
  const Dataset d = MakeMixedDataset();
  auto mf = ExtractMetaFeatures(d);
  ASSERT_TRUE(mf.ok());
  EXPECT_DOUBLE_EQ(MetaFeatureDistance(*mf, *mf), 0.0);
}

TEST(NormalizerTest, ZScoresFittedVectors) {
  std::vector<MetaFeatureVector> vectors(10);
  Rng rng(11);
  for (auto& v : vectors) {
    for (double& x : v) x = rng.Uniform(0, 1000);
  }
  MetaFeatureNormalizer normalizer;
  normalizer.Fit(vectors);
  // Mean of normalized vectors ~ 0, stddev ~ 1.
  MetaFeatureVector mean{};
  for (const auto& v : vectors) {
    const MetaFeatureVector z = normalizer.Apply(v);
    for (size_t i = 0; i < kNumMetaFeatures; ++i) mean[i] += z[i];
  }
  for (double m : mean) EXPECT_NEAR(m / 10.0, 0.0, 1e-9);
}

TEST(NormalizerTest, ConstantDimensionDoesNotBlowUp) {
  std::vector<MetaFeatureVector> vectors(5);
  for (auto& v : vectors) v.fill(3.0);
  MetaFeatureNormalizer normalizer;
  normalizer.Fit(vectors);
  const MetaFeatureVector z = normalizer.Apply(vectors[0]);
  for (double x : z) EXPECT_TRUE(std::isfinite(x));
}

TEST(NormalizerTest, DistanceBecomesScaleFree) {
  // Two datasets differing hugely in instance count but otherwise similar
  // should be closer after normalization than a dataset differing in many
  // normalized dimensions.
  std::vector<MetaFeatureVector> all;
  MetaFeatureVector a{}, b{}, c{};
  a.fill(1.0);
  b.fill(1.0);
  c.fill(5.0);
  a[0] = 100;
  b[0] = 90000;  // Same shape, vastly more rows.
  c[0] = 100;
  all = {a, b, c};
  MetaFeatureNormalizer n;
  n.Fit(all);
  const double dist_ab = MetaFeatureDistance(n.Apply(a), n.Apply(b));
  const double dist_ac = MetaFeatureDistance(n.Apply(a), n.Apply(c));
  EXPECT_LT(dist_ab, dist_ac);
}


// ---------------------------------------------------------------------------
// MetaFeatureCache: content-hash memoization of extraction
// ---------------------------------------------------------------------------

struct CacheStats {
  uint64_t hits;
  uint64_t misses;
};

// The cache counters of the process registry; a test subtracts the values
// it read before touching its cache.
CacheStats CacheTotals() {
  auto read = [](const char* name) {
    return static_cast<uint64_t>(GlobalMetrics().Value(name));
  };
  return {read("smartml_metafeature_cache_hits_total"),
          read("smartml_metafeature_cache_misses_total")};
}

CacheStats StatsSince(const CacheStats& base) {
  const CacheStats now = CacheTotals();
  return {now.hits - base.hits, now.misses - base.misses};
}

TEST(MetaFeatureCacheTest, ContentHashIgnoresNameButSeesData) {
  Dataset a = MakeMixedDataset();
  Dataset b = MakeMixedDataset();
  b.set_name("a_different_name");
  EXPECT_EQ(DatasetContentHash(a), DatasetContentHash(b));

  // Any cell change changes the hash.
  Dataset c = MakeMixedDataset();
  c.mutable_feature(0).values[0] += 1.0;
  EXPECT_NE(DatasetContentHash(a), DatasetContentHash(c));
}

TEST(MetaFeatureCacheTest, RepeatedExtractionHitsTheCache) {
  const CacheStats base = CacheTotals();
  MetaFeatureCache cache(/*capacity=*/8);
  const Dataset d = MakeMixedDataset();

  auto first = cache.MetaFeatures(d);
  ASSERT_TRUE(first.ok());
  CacheStats stats = StatsSince(base);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  auto second = cache.MetaFeatures(d);
  ASSERT_TRUE(second.ok());
  stats = StatsSince(base);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    EXPECT_DOUBLE_EQ((*first)[i], (*second)[i]);
  }
  // The cached result matches a direct extraction exactly.
  auto direct = ExtractMetaFeatures(d);
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    EXPECT_DOUBLE_EQ((*second)[i], (*direct)[i]);
  }
}

TEST(MetaFeatureCacheTest, LandmarksKeyedByDatasetAndSeed) {
  const CacheStats base = CacheTotals();
  MetaFeatureCache cache(/*capacity=*/8);
  const Dataset d = MakeMixedDataset();

  ASSERT_TRUE(cache.Landmarks(d, /*seed=*/1).ok());
  ASSERT_TRUE(cache.Landmarks(d, /*seed=*/1).ok());  // Hit.
  ASSERT_TRUE(cache.Landmarks(d, /*seed=*/2).ok());  // Different seed: miss.
  const CacheStats stats = StatsSince(base);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(MetaFeatureCacheTest, BoundedLruEvictsLeastRecentlyUsed) {
  const CacheStats base = CacheTotals();
  MetaFeatureCache cache(/*capacity=*/2);
  auto make = [](int seed) {
    SyntheticSpec spec;
    spec.num_instances = 60;
    spec.seed = 100 + seed;
    return GenerateSynthetic(spec);
  };
  const Dataset d0 = make(0), d1 = make(1), d2 = make(2);

  ASSERT_TRUE(cache.MetaFeatures(d0).ok());  // miss {d0}
  ASSERT_TRUE(cache.MetaFeatures(d1).ok());  // miss {d1,d0}
  ASSERT_TRUE(cache.MetaFeatures(d0).ok());  // hit  {d0,d1}
  ASSERT_TRUE(cache.MetaFeatures(d2).ok());  // miss, evicts d1 {d2,d0}
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.MetaFeatures(d1).ok());  // miss again (was evicted)
  ASSERT_TRUE(cache.MetaFeatures(d2).ok());  // hit (still resident)
  const CacheStats stats = StatsSince(base);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(MetaFeatureCacheTest, ExtractionErrorsAreNotCached) {
  const CacheStats base = CacheTotals();
  MetaFeatureCache cache(/*capacity=*/4);
  const Dataset empty;  // No rows/features: extraction fails.
  EXPECT_FALSE(cache.MetaFeatures(empty).ok());
  EXPECT_FALSE(cache.MetaFeatures(empty).ok());
  EXPECT_EQ(cache.size(), 0u);
  const CacheStats stats = StatsSince(base);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

}  // namespace
}  // namespace smartml
