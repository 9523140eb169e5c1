// Tests for the knowledge base: records, merging (incremental update),
// weighted-NN nomination, and persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/kb/kb_snapshot.h"
#include "src/kb/knowledge_base.h"
#include "src/obs/metrics.h"

namespace smartml {
namespace {

MetaFeatureVector MakeMeta(double base) {
  MetaFeatureVector mf{};
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    mf[i] = base + static_cast<double>(i) * 0.1;
  }
  return mf;
}

KbRecord MakeRecord(const std::string& name, double meta_base,
                    std::vector<std::pair<std::string, double>> results) {
  KbRecord record;
  record.dataset_name = name;
  record.meta_features = MakeMeta(meta_base);
  for (auto& [algo, acc] : results) {
    KbAlgorithmResult r;
    r.algorithm = algo;
    r.accuracy = acc;
    r.best_config.SetDouble("p", acc * 10);
    record.results.push_back(std::move(r));
  }
  return record;
}

TEST(KbTest, AddAndFind) {
  KnowledgeBase kb;
  EXPECT_EQ(kb.NumRecords(), 0u);
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.9}}));
  EXPECT_EQ(kb.NumRecords(), 1u);
  ASSERT_TRUE(kb.Find("d1").has_value());
  EXPECT_FALSE(kb.Find("d2").has_value());
}

TEST(KbTest, MergeKeepsBetterResult) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.7}, {"knn", 0.8}}));
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.9}, {"j48", 0.6}}));
  EXPECT_EQ(kb.NumRecords(), 1u);
  const std::optional<KbRecord> r = kb.Find("d1");
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->results.size(), 3u);
  for (const auto& result : r->results) {
    if (result.algorithm == "svm") {
      EXPECT_DOUBLE_EQ(result.accuracy, 0.9);  // Upgraded.
    }
    if (result.algorithm == "knn") {
      EXPECT_DOUBLE_EQ(result.accuracy, 0.8);  // Preserved.
    }
  }
}

TEST(KbTest, MergeDoesNotDowngrade) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.9}}));
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.5}}));
  EXPECT_DOUBLE_EQ(kb.Find("d1")->results[0].accuracy, 0.9);
}

TEST(KbTest, NearestRecordsOrdering) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("near", 1.0, {{"svm", 0.9}}));
  kb.AddRecord(MakeRecord("mid", 3.0, {{"svm", 0.9}}));
  kb.AddRecord(MakeRecord("far", 9.0, {{"svm", 0.9}}));
  const auto neighbors = kb.NearestRecords(MakeMeta(1.1), 3);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0].record.dataset_name, "near");
  EXPECT_EQ(neighbors[2].record.dataset_name, "far");
  EXPECT_LE(neighbors[0].distance, neighbors[1].distance);
}

TEST(KbTest, NearestRecordsTiesKeepInsertionOrder) {
  // Three records at the exact same meta-feature point: partial_sort alone
  // is not stable, so the lookup must tie-break on record index to return
  // equal-distance neighbours in deterministic insertion order.
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("first", 2.0, {{"svm", 0.9}}));
  kb.AddRecord(MakeRecord("second", 2.0, {{"knn", 0.8}}));
  kb.AddRecord(MakeRecord("third", 2.0, {{"j48", 0.7}}));
  kb.AddRecord(MakeRecord("far", 50.0, {{"rpart", 0.6}}));
  const auto neighbors = kb.NearestRecords(MakeMeta(2.0), 3);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0].record.dataset_name, "first");
  EXPECT_EQ(neighbors[1].record.dataset_name, "second");
  EXPECT_EQ(neighbors[2].record.dataset_name, "third");
  EXPECT_DOUBLE_EQ(neighbors[0].distance, neighbors[2].distance);
}

TEST(KbTest, LookupSeesRecordsAddedAfterPreviousLookup) {
  // The cached normalized index must be invalidated by AddRecord: a lookup,
  // then an insert of a closer record, then the same lookup again must
  // surface the new record first.
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("far", 10.0, {{"svm", 0.9}}));
  kb.AddRecord(MakeRecord("farther", 20.0, {{"svm", 0.9}}));
  auto neighbors = kb.NearestRecords(MakeMeta(1.0), 1);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].record.dataset_name, "far");

  kb.AddRecord(MakeRecord("close", 1.0, {{"knn", 0.8}}));
  neighbors = kb.NearestRecords(MakeMeta(1.0), 1);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].record.dataset_name, "close");

  // Merging into an existing record moves it in meta-feature space too.
  kb.AddRecord(MakeRecord("far", 1.01, {{"svm", 0.95}}));
  neighbors = kb.NearestRecords(MakeMeta(1.0), 2);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[1].record.dataset_name, "far");
}

TEST(KbTest, NeighborCopiesSurviveLaterWrites) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("a", 1.0, {{"svm", 0.9}}));
  auto neighbors = kb.NearestRecords(MakeMeta(1.0), 1);
  auto found = kb.Find("a");
  ASSERT_TRUE(found.has_value());
  // Force reallocation of the internal record vector.
  for (int i = 0; i < 64; ++i) {
    kb.AddRecord(MakeRecord("grow_" + std::to_string(i), 5.0 + i,
                            {{"knn", 0.5}}));
  }
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].record.dataset_name, "a");
  EXPECT_EQ(found->dataset_name, "a");
  EXPECT_DOUBLE_EQ(found->results[0].accuracy, 0.9);
}

TEST(KbTest, MovedFromKbIsEmptyAndUsable) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.9}}));
  KnowledgeBase moved(std::move(kb));
  EXPECT_EQ(moved.NumRecords(), 1u);
  EXPECT_TRUE(moved.Find("d1").has_value());
  EXPECT_EQ(moved.NearestRecords(MakeMeta(1.0), 1).size(), 1u);
  // NOLINTNEXTLINE(bugprone-use-after-move): moved-from reuse is the point.
  EXPECT_EQ(kb.NumRecords(), 0u);
  EXPECT_FALSE(kb.Find("d1").has_value());
  EXPECT_TRUE(kb.NearestRecords(MakeMeta(1.0), 1).empty());
  // The moved-from KB accepts new records with a freshly fitted index.
  kb.AddRecord(MakeRecord("d2", 2.0, {{"knn", 0.8}}));
  const auto neighbors = kb.NearestRecords(MakeMeta(2.0), 1);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].record.dataset_name, "d2");
}

TEST(KbTest, NominateEmptyKbReturnsNothing) {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.Nominate(MakeMeta(1.0), {}).empty());
}

TEST(KbTest, NominateRanksByNeighborPerformance) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("similar", 1.0, {{"svm", 0.95}, {"knn", 0.60}}));
  kb.AddRecord(MakeRecord("distant", 50.0, {{"rpart", 0.99}}));
  NominationOptions options;
  options.max_algorithms = 2;
  options.max_neighbors = 1;  // Only the closest dataset contributes.
  const auto nominations = kb.Nominate(MakeMeta(1.05), options);
  ASSERT_EQ(nominations.size(), 2u);
  EXPECT_EQ(nominations[0].algorithm, "svm");
  EXPECT_EQ(nominations[1].algorithm, "knn");
  EXPECT_GT(nominations[0].score, nominations[1].score);
}

TEST(KbTest, NominationCarriesWarmStartConfigs) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("a", 1.0, {{"svm", 0.9}}));
  kb.AddRecord(MakeRecord("b", 1.2, {{"svm", 0.8}}));
  NominationOptions options;
  options.max_algorithms = 1;
  options.max_neighbors = 2;
  const auto nominations = kb.Nominate(MakeMeta(1.1), options);
  ASSERT_EQ(nominations.size(), 1u);
  EXPECT_GE(nominations[0].warm_start_configs.size(), 2u);
  // Best-performing neighbour's config comes first (p = acc * 10).
  EXPECT_NEAR(nominations[0].warm_start_configs[0].GetDouble("p", 0), 9.0,
              1e-9);
}

TEST(KbTest, PerformanceWeightingChangesRanking) {
  // Algorithm A: mediocre on the very nearest dataset. Algorithm B:
  // excellent on a slightly farther one. Performance weighting should be
  // able to flip the ranking relative to distance-only.
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("nearest", 1.00, {{"weak_algo", 0.20}}));
  kb.AddRecord(MakeRecord("close", 1.18, {{"strong_algo", 0.99}}));

  NominationOptions weighted;
  weighted.max_algorithms = 2;
  weighted.max_neighbors = 2;
  weighted.performance_weight = 3.0;  // Emphasize performance magnitude.
  const auto with_perf = kb.Nominate(MakeMeta(1.02), weighted);
  ASSERT_EQ(with_perf.size(), 2u);
  EXPECT_EQ(with_perf[0].algorithm, "strong_algo");

  NominationOptions unweighted = weighted;
  unweighted.performance_weight = 0.0;  // Distance only.
  const auto without_perf = kb.Nominate(MakeMeta(1.02), unweighted);
  ASSERT_EQ(without_perf.size(), 2u);
  EXPECT_EQ(without_perf[0].algorithm, "weak_algo");
}

TEST(KbTest, MaxAlgorithmsHonored) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord(
      "d", 1.0, {{"a", 0.9}, {"b", 0.8}, {"c", 0.7}, {"e", 0.6}}));
  NominationOptions options;
  options.max_algorithms = 2;
  EXPECT_EQ(kb.Nominate(MakeMeta(1.0), options).size(), 2u);
}

TEST(KbTest, SerializeRoundTrip) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("d1", 1.0, {{"svm", 0.9}, {"knn", 0.7}}));
  kb.AddRecord(MakeRecord("d2", 4.0, {{"j48", 0.85}}));
  auto back = KnowledgeBase::Deserialize(kb.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumRecords(), 2u);
  const std::optional<KbRecord> r = back->Find("d1");
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->results.size(), 2u);
  EXPECT_DOUBLE_EQ(r->results[0].accuracy, 0.9);
  EXPECT_NEAR(r->results[0].best_config.GetDouble("p", 0), 9.0, 1e-9);
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    EXPECT_NEAR(r->meta_features[i], MakeMeta(1.0)[i], 1e-9);
  }
}

TEST(KbTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(KnowledgeBase::Deserialize("not a kb").ok());
  EXPECT_FALSE(KnowledgeBase::Deserialize("").ok());
  EXPECT_FALSE(
      KnowledgeBase::Deserialize("smartml-kb v1\nrecord x\n").ok());
  EXPECT_FALSE(
      KnowledgeBase::Deserialize("smartml-kb v1\nmeta 1 2 3\n").ok());
}

TEST(KbTest, EmptyKbSerializes) {
  KnowledgeBase kb;
  auto back = KnowledgeBase::Deserialize(kb.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRecords(), 0u);
}

TEST(KbTest, FileRoundTrip) {
  KnowledgeBase kb;
  kb.AddRecord(MakeRecord("disk", 2.0, {{"rda", 0.75}}));
  const std::string path = testing::TempDir() + "/smartml_kb_test.txt";
  ASSERT_TRUE(kb.SaveToFile(path).ok());
  auto back = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRecords(), 1u);
  EXPECT_TRUE(back->Find("disk").has_value());
  std::remove(path.c_str());
}

double RejectedRecords() {
  return GlobalMetrics().Value("smartml_kb_rejected_records_total");
}

void ExpectSameRoster(const std::vector<Nomination>& got,
                      const std::vector<Nomination>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].algorithm, want[i].algorithm) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }
}

TEST(KbTest, NonFiniteRecordCannotPoisonLookups) {
  // A KB of real meta-features, and a clean query from another dataset.
  KnowledgeBase kb;
  const std::vector<SyntheticSpec> specs = BootstrapKbSpecs(6, 3);
  const char* kAlgorithms[] = {"lda", "naive_bayes", "knn",
                               "c50", "j48",         "rpart"};
  for (size_t i = 0; i < specs.size(); ++i) {
    KbRecord record = MakeRecord(specs[i].name, 0.0,
                                 {{kAlgorithms[i], 0.7 + 0.05 * i},
                                  {kAlgorithms[(i + 1) % 6], 0.6}});
    auto mf = ExtractMetaFeatures(GenerateSynthetic(specs[i]));
    ASSERT_TRUE(mf.ok());
    record.meta_features = *mf;
    ASSERT_TRUE(kb.AddRecord(record).ok());
  }
  SyntheticSpec probe;
  probe.num_instances = 40;
  probe.num_informative = 3;
  probe.seed = 11;
  auto query = ExtractMetaFeatures(GenerateSynthetic(probe));
  ASSERT_TRUE(query.ok());
  NominationOptions options;
  options.max_algorithms = 3;
  const std::vector<Nomination> before = kb.Nominate(*query, options);
  ASSERT_EQ(before.size(), 3u);
  for (const Nomination& nomination : before) {
    EXPECT_TRUE(std::isfinite(nomination.score)) << nomination.algorithm;
  }

  // What one `inf` cell in an upload gives: non-finite meta-features. Once
  // stored, such a record made every distance NaN, so every query got the
  // first-inserted records' algorithms. It is refused, fresh or as a merge.
  const double rejected = RejectedRecords();
  KbRecord poisoned = MakeRecord("upload-with-inf", 0.0, {{"svm", 0.99}});
  poisoned.meta_features = *query;
  poisoned.meta_features[1] = std::numeric_limits<double>::infinity();
  poisoned.meta_features[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(kb.AddRecord(poisoned).code(), StatusCode::kInvalidArgument);
  poisoned.dataset_name = specs[0].name;
  EXPECT_EQ(kb.AddRecord(poisoned).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RejectedRecords() - rejected, 2.0);
  EXPECT_EQ(kb.NumRecords(), specs.size());
  EXPECT_FALSE(kb.Find("upload-with-inf").has_value());
  ExpectSameRoster(kb.Nominate(*query, options), before);
}

TEST(KbTest, NonFiniteQueryNominatesNothing) {
  // The same records inserted in two orders. With a NaN distance in the
  // ranking, which roster came back depended on the order.
  const std::vector<KbRecord> records = {
      MakeRecord("a", 1.0, {{"svm", 0.9}, {"knn", 0.5}}),
      MakeRecord("b", 2.0, {{"j48", 0.8}}),
      MakeRecord("c", 3.0, {{"knn", 0.7}, {"lda", 0.6}}),
      MakeRecord("d", 4.0, {{"rpart", 0.95}})};
  KnowledgeBase forward;
  KnowledgeBase backward;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(forward.AddRecord(records[i]).ok());
    ASSERT_TRUE(backward.AddRecord(records[records.size() - 1 - i]).ok());
  }
  NominationOptions options;
  options.max_algorithms = 3;
  const MetaFeatureVector finite = MakeMeta(2.2);
  const std::vector<Nomination> roster = forward.Nominate(finite, options);
  ASSERT_EQ(roster.size(), 3u);
  ExpectSameRoster(backward.Nominate(finite, options), roster);

  LandmarkVector landmarks{};
  options.landmark_weight = 0.5;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (size_t i : {size_t{0}, kNumMetaFeatures - 1}) {
      MetaFeatureVector query = finite;
      query[i] = bad;
      // The empty-KB answer: the caller takes its cold-start roster.
      EXPECT_TRUE(forward.Nominate(query, options).empty()) << bad << " " << i;
      EXPECT_TRUE(backward.Nominate(query, options).empty()) << bad << " " << i;
      EXPECT_TRUE(forward.Nominate(query, landmarks, options).empty());
    }
    LandmarkVector bad_landmarks{};
    bad_landmarks[1] = bad;
    EXPECT_TRUE(forward.Nominate(finite, bad_landmarks, options).empty());
    EXPECT_TRUE(backward.Nominate(finite, bad_landmarks, options).empty());
  }
}

TEST(KbTest, LoadsDropNonFiniteRecords) {
  std::vector<KbRecord> records = {MakeRecord("near", 1.0, {{"svm", 0.9}}),
                                   MakeRecord("poisoned", 2.0, {{"j48", 0.8}}),
                                   MakeRecord("far", 4.0, {{"knn", 0.7}})};
  KnowledgeBase clean;
  for (const KbRecord& record : records) ASSERT_TRUE(clean.AddRecord(record).ok());
  // The text form with the poisoned record's first meta-feature spelled
  // "inf", and without the crc line the edit would break.
  std::string text = clean.Serialize();
  text.erase(text.rfind("crc32 "));
  const size_t meta = text.find("record poisoned\nmeta ") + 21;
  text.replace(meta, text.find(' ', meta) - meta, "inf");
  records[1].meta_features[0] = -std::numeric_limits<double>::infinity();
  const std::string image = EncodeKbSnapshot(records);

  const double rejected = RejectedRecords();
  for (const std::string& bytes : {text, image}) {
    auto strict = KnowledgeBase::Deserialize(bytes);
    auto salvaged = KnowledgeBase::DeserializeSalvage(bytes, nullptr);
    for (const auto* loaded : {&strict, &salvaged}) {
      ASSERT_TRUE(loaded->ok()) << loaded->status().ToString();
      EXPECT_EQ((*loaded)->NumRecords(), 2u);
      EXPECT_FALSE((*loaded)->Find("poisoned").has_value());
      EXPECT_TRUE((*loaded)->Find("far").has_value());
    }
  }
  EXPECT_EQ(RejectedRecords() - rejected, 4.0);
}

TEST(KbTest, LoadMissingFileFails) {
  EXPECT_FALSE(KnowledgeBase::LoadFromFile("/no/such/file.kb").ok());
}

}  // namespace
}  // namespace smartml
