// k-d tree lookup-index tests: the tree path must return *byte-identical*
// neighbour lists (order, ties, distances) to the linear scan, which stays
// available as the correctness oracle via SetLookupStrategy. Randomized KBs
// cover clustered data (where the tree prunes hard), exact duplicate points
// (tie-break stress), and the bounded-rebuild append tail; a threaded case
// exercises lookups racing appends under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/kb/kd_tree.h"
#include "src/kb/knowledge_base.h"

namespace smartml {
namespace {

// "d<i>". Appending, rather than `Name(i)`, keeps GCC 12's
// -Wrestrict false positive out of Release builds.
std::string Name(size_t i) {
  std::string name = "d";
  name += std::to_string(i);
  return name;
}

KbRecord MakeRecord(const std::string& name, const MetaFeatureVector& mf) {
  KbRecord record;
  record.dataset_name = name;
  record.meta_features = mf;
  KbAlgorithmResult result;
  result.algorithm = "random_forest";
  result.accuracy = 0.5;
  record.results.push_back(result);
  return record;
}

/// Random meta-features with low intrinsic dimension: a few latent factors
/// drive all 25 dimensions (like real meta-features, where e.g. instance
/// and feature counts correlate with many derived statistics). `dup_every`
/// > 0 repeats an earlier point exactly to force distance ties.
std::vector<MetaFeatureVector> RandomPoints(size_t n, uint32_t seed,
                                            size_t dup_every = 0) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_int_distribution<int> cluster(0, 7);
  std::vector<MetaFeatureVector> out;
  out.reserve(n);
  // Per-cluster centers and a shared factor-loading matrix.
  constexpr size_t kFactors = 3;
  double loadings[kFactors][kNumMetaFeatures];
  for (auto& row : loadings) {
    for (double& v : row) v = normal(rng);
  }
  double centers[8][kFactors];
  for (auto& c : centers) {
    for (double& v : c) v = 4.0 * normal(rng);
  }
  for (size_t i = 0; i < n; ++i) {
    if (dup_every > 0 && i % dup_every == 0 && i > 0) {
      out.push_back(out[rng() % i]);
      continue;
    }
    const int c = cluster(rng);
    double factors[kFactors];
    for (size_t f = 0; f < kFactors; ++f) {
      factors[f] = centers[c][f] + 0.3 * normal(rng);
    }
    MetaFeatureVector mf{};
    for (size_t d = 0; d < kNumMetaFeatures; ++d) {
      for (size_t f = 0; f < kFactors; ++f) {
        mf[d] += factors[f] * loadings[f][d];
      }
      mf[d] += 0.01 * normal(rng);
    }
    out.push_back(mf);
  }
  return out;
}

/// Asserts the two neighbour lists are byte-identical: same records, same
/// order, bit-equal distances.
void ExpectSameNeighbors(const std::vector<KbNeighbor>& tree,
                         const std::vector<KbNeighbor>& linear) {
  ASSERT_EQ(tree.size(), linear.size());
  for (size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(tree[i].record.dataset_name, linear[i].record.dataset_name)
        << "rank " << i;
    // Bit equality, not near-equality: both paths must compute the same
    // MetaFeatureDistance over the same cached normalized vectors.
    EXPECT_EQ(tree[i].distance, linear[i].distance) << "rank " << i;
  }
}

TEST(KdTreeOracle, MatchesLinearScanOnRandomizedKbs) {
  for (const uint32_t seed : {1u, 7u, 42u}) {
    for (const size_t n : {size_t{3}, size_t{40}, size_t{500}}) {
      KnowledgeBase kb;
      const auto points = RandomPoints(n, seed);
      for (size_t i = 0; i < points.size(); ++i) {
        kb.AddRecord(MakeRecord(Name(i), points[i]));
      }
      const auto queries = RandomPoints(20, seed + 1000);
      for (const size_t k : {size_t{1}, size_t{3}, size_t{10}, n + 5}) {
        for (const auto& q : queries) {
          kb.SetLookupStrategy(KbLookupStrategy::kKdTree);
          const auto tree = kb.NearestRecords(q, k);
          kb.SetLookupStrategy(KbLookupStrategy::kLinearScan);
          const auto linear = kb.NearestRecords(q, k);
          ExpectSameNeighbors(tree, linear);
        }
      }
    }
  }
}

TEST(KdTreeOracle, MatchesLinearScanWithDuplicatePointsAndTies) {
  // Every 3rd point is an exact duplicate of an earlier one: the k-th best
  // boundary lands on tied distances, so any tie-break divergence between
  // the paths shows up as a different neighbour list.
  KnowledgeBase kb;
  const auto points = RandomPoints(300, 11, /*dup_every=*/3);
  for (size_t i = 0; i < points.size(); ++i) {
    kb.AddRecord(MakeRecord(Name(i), points[i]));
  }
  for (size_t qi = 0; qi < points.size(); qi += 17) {
    // Query *at* a duplicated stored point: distance 0 ties included.
    kb.SetLookupStrategy(KbLookupStrategy::kKdTree);
    const auto tree = kb.NearestRecords(points[qi], 7);
    kb.SetLookupStrategy(KbLookupStrategy::kLinearScan);
    const auto linear = kb.NearestRecords(points[qi], 7);
    ExpectSameNeighbors(tree, linear);
  }
}

TEST(KdTreeOracle, MatchesLinearScanAcrossAppendTail) {
  // Build big enough that kAuto activates the tree, then keep appending:
  // the appended records live in the linear tail until the bounded rebuild
  // triggers, and every query must see them exactly like the oracle does.
  KnowledgeBase kb;
  const auto points = RandomPoints(900, 23);
  for (size_t i = 0; i < 600; ++i) {
    kb.AddRecord(MakeRecord(Name(i), points[i]));
  }
  const auto query = RandomPoints(1, 99)[0];
  for (size_t i = 600; i < points.size(); ++i) {
    kb.AddRecord(MakeRecord(Name(i), points[i]));
    if (i % 37 != 0) continue;
    kb.SetLookupStrategy(KbLookupStrategy::kKdTree);
    const auto tree = kb.NearestRecords(query, 5);
    kb.SetLookupStrategy(KbLookupStrategy::kLinearScan);
    const auto linear = kb.NearestRecords(query, 5);
    ExpectSameNeighbors(tree, linear);
  }
  // Force the auto path too (no strategy flipping): it must agree with the
  // last oracle answer.
  kb.SetLookupStrategy(KbLookupStrategy::kAuto);
  const auto auto_result = kb.NearestRecords(query, 5);
  kb.SetLookupStrategy(KbLookupStrategy::kLinearScan);
  ExpectSameNeighbors(auto_result, kb.NearestRecords(query, 5));
}

TEST(KdTreeOracle, IndexStatsReflectTreeState) {
  KnowledgeBase kb;
  const auto points = RandomPoints(10, 5);
  for (size_t i = 0; i < points.size(); ++i) {
    kb.AddRecord(MakeRecord(Name(i), points[i]));
  }
  // Small KB under kAuto: linear, no tree.
  KbIndexStats stats = kb.IndexStats();
  EXPECT_FALSE(stats.tree_active);
  EXPECT_EQ(stats.indexed_records, 0u);
  EXPECT_EQ(stats.records, 10u);

  kb.SetLookupStrategy(KbLookupStrategy::kKdTree);
  stats = kb.IndexStats();
  EXPECT_TRUE(stats.tree_active);
  EXPECT_EQ(stats.indexed_records, 10u);
  EXPECT_EQ(stats.tail_records, 0u);
  EXPECT_GT(stats.tree_depth, 0u);

  // One append lands in the tail (bounded rebuild defers the full rebuild).
  kb.AddRecord(MakeRecord("tail", RandomPoints(1, 77)[0]));
  stats = kb.IndexStats();
  EXPECT_EQ(stats.records, 11u);
  EXPECT_EQ(stats.indexed_records + stats.tail_records, 11u);
}

TEST(KdTreeOracle, LookupsRaceAppendsUnderTsan) {
  // Readers hammer NearestRecords while a writer appends; TSan checks the
  // shared_mutex discipline around the tree/tail. Each result must be
  // internally consistent: sorted by (distance, name-insertion) and of the
  // right size for however many records were visible.
  KnowledgeBase kb;
  const auto points = RandomPoints(800, 31);
  for (size_t i = 0; i < 400; ++i) {
    kb.AddRecord(MakeRecord(Name(i), points[i]));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = 400; i < points.size(); ++i) {
      kb.AddRecord(MakeRecord(Name(i), points[i]));
    }
    stop = true;
  });
  const auto query = RandomPoints(1, 13)[0];
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // Bounded iterations, not while(!stop): spinning readers on a
      // reader-preferring rwlock can starve the writer indefinitely on a
      // single core (and TSan magnifies that into a test timeout).
      for (int i = 0; i < 300 && !stop.load(); ++i) {
        const auto result = kb.NearestRecords(query, 5);
        ASSERT_LE(result.size(), 5u);
        for (size_t i = 1; i < result.size(); ++i) {
          ASSERT_LE(result[i - 1].distance, result[i].distance);
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  // Post-join: all appends visible, tree and oracle agree again.
  kb.SetLookupStrategy(KbLookupStrategy::kKdTree);
  const auto tree = kb.NearestRecords(query, 5);
  kb.SetLookupStrategy(KbLookupStrategy::kLinearScan);
  ExpectSameNeighbors(tree, kb.NearestRecords(query, 5));
}

TEST(KdTreeCompaction, MergesNearDuplicatesEarliestSurvives) {
  KnowledgeBase kb;
  const auto points = RandomPoints(40, 3);
  for (size_t i = 0; i < points.size(); ++i) {
    kb.AddRecord(MakeRecord(Name(i), points[i]));
  }
  // Same meta-features as d5 under a different name, with a better result
  // for another algorithm: after compaction d5 survives carrying both.
  KbRecord twin = MakeRecord("twin_of_5", points[5]);
  twin.results[0].algorithm = "svm";
  twin.results[0].accuracy = 0.9;
  kb.AddRecord(twin);

  KbCompactionOptions options;
  options.dedup_epsilon = 1e-9;
  const KbCompactionStats stats = kb.Compact(options);
  EXPECT_EQ(stats.before, 41u);
  EXPECT_EQ(stats.merged, 1u);
  EXPECT_EQ(stats.after, 40u);
  EXPECT_FALSE(kb.Find("twin_of_5").has_value());
  const auto survivor = kb.Find("d5");
  ASSERT_TRUE(survivor.has_value());
  ASSERT_EQ(survivor->results.size(), 2u);
  bool has_svm = false;
  for (const auto& result : survivor->results) {
    has_svm = has_svm || (result.algorithm == "svm" && result.accuracy == 0.9);
  }
  EXPECT_TRUE(has_svm);
}

TEST(KdTreeCompaction, QualityWeightedEvictionDropsWorstFirst) {
  KnowledgeBase kb;
  const auto points = RandomPoints(20, 9);
  for (size_t i = 0; i < points.size(); ++i) {
    KbRecord record = MakeRecord(Name(i), points[i]);
    record.results[0].accuracy = 0.3 + 0.03 * static_cast<double>(i);
    kb.AddRecord(record);
  }
  KbCompactionOptions options;
  options.dedup_epsilon = 0.0;  // Eviction only.
  options.max_records = 15;
  const KbCompactionStats stats = kb.Compact(options);
  EXPECT_EQ(stats.evicted, 5u);
  EXPECT_EQ(kb.NumRecords(), 15u);
  // The five lowest-accuracy records (d0..d4) are gone; the best survive.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(kb.Find(Name(i)).has_value()) << i;
  }
  for (int i = 5; i < 20; ++i) {
    EXPECT_TRUE(kb.Find(Name(i)).has_value()) << i;
  }
}

}  // namespace
}  // namespace smartml
