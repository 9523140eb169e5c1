// Tests for the framework extensions: tunable optimization metric,
// ensemble strategies, and landmarking meta-features (+ their KB
// integration).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/smartml.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/landmarking.h"
#include "src/ml/knn.h"
#include "src/tuning/objective.h"

namespace smartml {
namespace {

Dataset MakeData(uint64_t seed = 301, size_t n = 120) {
  SyntheticSpec spec;
  spec.num_instances = n;
  spec.num_informative = 4;
  spec.num_classes = 2;
  spec.class_sep = 2.5;
  spec.seed = seed;
  spec.name = "ext_" + std::to_string(seed);
  return GenerateSynthetic(spec);
}

// ---------------------------------------------------------------------------
// Tuning metrics
// ---------------------------------------------------------------------------

TEST(MetricTest, NamesRoundTrip) {
  for (TuneMetric metric : {TuneMetric::kAccuracy, TuneMetric::kMacroF1,
                            TuneMetric::kKappa, TuneMetric::kLogLoss}) {
    auto parsed = ParseTuneMetric(TuneMetricName(metric));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, metric);
  }
  EXPECT_FALSE(ParseTuneMetric("auc").ok());
}

class MetricObjectiveTest : public testing::TestWithParam<TuneMetric> {};

TEST_P(MetricObjectiveTest, CostInUnitIntervalAndLowOnEasyData) {
  const Dataset d = MakeData(311, 140);
  KnnClassifier knn;
  auto objective =
      ClassifierObjective::Create(knn, d, 2, 7, GetParam());
  ASSERT_TRUE(objective.ok());
  auto cost = (*objective)->EvaluateFold(KnnClassifier::Space().DefaultConfig(),
                                         0);
  ASSERT_TRUE(cost.ok());
  EXPECT_GE(*cost, 0.0);
  EXPECT_LE(*cost, 1.0);
  EXPECT_LT(*cost, 0.45) << TuneMetricName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricObjectiveTest,
                         testing::Values(TuneMetric::kAccuracy,
                                         TuneMetric::kMacroF1,
                                         TuneMetric::kKappa,
                                         TuneMetric::kLogLoss),
                         [](const auto& info) {
                           return std::string(TuneMetricName(info.param));
                         });

TEST(MetricTest, SmartMlRunsWithNonDefaultMetric) {
  SmartMlOptions options;
  options.max_evaluations = 9;
  options.cv_folds = 2;
  options.metric = TuneMetric::kMacroF1;
  options.cold_start_algorithms = {"knn", "rpart"};
  SmartML framework(options);
  auto result = framework.Run(MakeData(313));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->best_validation_accuracy, 0.6);
}

// ---------------------------------------------------------------------------
// Ensemble strategies
// ---------------------------------------------------------------------------

class EnsembleStrategyTest
    : public testing::TestWithParam<SmartMlOptions::EnsembleStrategy> {};

TEST_P(EnsembleStrategyTest, ProducesAWorkingEnsemble) {
  SmartMlOptions options;
  options.max_evaluations = 12;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn", "naive_bayes", "rpart"};
  options.enable_ensembling = true;
  options.ensemble_strategy = GetParam();
  SmartML framework(options);
  auto result = framework.Run(MakeData(317, 150));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->ensemble, nullptr);
  EXPECT_GE(result->ensemble->NumMembers(), 2u);
  EXPECT_GT(result->ensemble_validation_accuracy, 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, EnsembleStrategyTest,
    testing::Values(SmartMlOptions::EnsembleStrategy::kAccuracyWeighted,
                    SmartMlOptions::EnsembleStrategy::kSoftmax,
                    SmartMlOptions::EnsembleStrategy::kGreedy),
    [](const auto& info) {
      switch (info.param) {
        case SmartMlOptions::EnsembleStrategy::kAccuracyWeighted:
          return std::string("accuracy");
        case SmartMlOptions::EnsembleStrategy::kSoftmax:
          return std::string("softmax");
        case SmartMlOptions::EnsembleStrategy::kGreedy:
          return std::string("greedy");
      }
      return std::string("unknown");
    });

// ---------------------------------------------------------------------------
// Landmarking
// ---------------------------------------------------------------------------

TEST(LandmarkingTest, ProducesFourAccuracies) {
  auto lm = ExtractLandmarkers(MakeData(331, 200));
  ASSERT_TRUE(lm.ok()) << lm.status().ToString();
  for (double v : *lm) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(LandmarkerNames().size(), kNumLandmarkers);
}

TEST(LandmarkingTest, EasyDataGivesHighLandmarks) {
  SyntheticSpec spec;
  spec.num_instances = 200;
  spec.num_informative = 3;
  spec.class_sep = 5.0;
  spec.seed = 337;
  auto lm = ExtractLandmarkers(GenerateSynthetic(spec));
  ASSERT_TRUE(lm.ok());
  // 1NN and LDA both near-perfect on well-separated blobs.
  EXPECT_GT((*lm)[0], 0.9);
  EXPECT_GT((*lm)[3], 0.9);
}

TEST(LandmarkingTest, DistinguishesLinearFromSpiralStructure) {
  SyntheticSpec linear;
  linear.num_instances = 300;
  linear.num_informative = 2;
  linear.class_sep = 3.0;
  linear.seed = 341;
  SyntheticSpec spiral = linear;
  spiral.kind = SyntheticKind::kSpirals;
  spiral.class_sep = 3.0;  // Low spiral noise: locally separable, globally
                           // nonlinear — the worst case for LDA.
  auto lm_linear = ExtractLandmarkers(GenerateSynthetic(linear));
  auto lm_spiral = ExtractLandmarkers(GenerateSynthetic(spiral));
  ASSERT_TRUE(lm_linear.ok() && lm_spiral.ok());
  // On spirals, LDA's landmark collapses relative to 1NN; on blobs both are
  // high. The *gap* (1nn - lda) separates the two geometries.
  const double gap_linear = (*lm_linear)[0] - (*lm_linear)[3];
  const double gap_spiral = (*lm_spiral)[0] - (*lm_spiral)[3];
  EXPECT_GT(gap_spiral, gap_linear + 0.1);
}

TEST(LandmarkingTest, DeterministicForSeed) {
  const Dataset d = MakeData(347, 150);
  auto a = ExtractLandmarkers(d, 9);
  auto b = ExtractLandmarkers(d, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < kNumLandmarkers; ++i) {
    EXPECT_DOUBLE_EQ((*a)[i], (*b)[i]);
  }
}

TEST(LandmarkingTest, SubsamplingKeepsItCheap) {
  auto lm = ExtractLandmarkers(MakeData(349, 2000), 9, /*max_rows=*/100);
  ASSERT_TRUE(lm.ok());
}

TEST(LandmarkingTest, SerializationRoundTrip) {
  auto lm = ExtractLandmarkers(MakeData(353, 100));
  ASSERT_TRUE(lm.ok());
  auto back = LandmarksFromString(LandmarksToString(*lm));
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < kNumLandmarkers; ++i) {
    EXPECT_EQ((*lm)[i], (*back)[i]);
  }
  EXPECT_FALSE(LandmarksFromString("1 2").ok());
}

TEST(LandmarkingTest, TinyDatasetRejected) {
  Dataset d;
  d.AddNumericFeature("x", {1, 2, 3});
  d.SetLabels({0, 1, 0}, {"a", "b"});
  EXPECT_FALSE(ExtractLandmarkers(d).ok());
}

TEST(LandmarkingTest, KbRoundTripsLandmarks) {
  KnowledgeBase kb;
  KbRecord record;
  record.dataset_name = "lm";
  record.has_landmarks = true;
  record.landmarks = {0.9, 0.8, 0.7, 0.6};
  KbAlgorithmResult r;
  r.algorithm = "knn";
  r.accuracy = 0.9;
  record.results.push_back(r);
  kb.AddRecord(record);
  auto back = KnowledgeBase::Deserialize(kb.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const std::optional<KbRecord> loaded = back->Find("lm");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->has_landmarks);
  EXPECT_NEAR(loaded->landmarks[0], 0.9, 1e-9);
}

TEST(LandmarkingTest, LandmarkWeightChangesNeighborRanking) {
  // Two records equidistant in meta-feature space; landmarks break the tie.
  KnowledgeBase kb;
  auto make = [](const std::string& name, double mf_value,
                 LandmarkVector lm) {
    KbRecord record;
    record.dataset_name = name;
    record.meta_features.fill(mf_value);
    record.has_landmarks = true;
    record.landmarks = lm;
    KbAlgorithmResult r;
    r.algorithm = name + "_algo";
    r.accuracy = 0.9;
    record.results.push_back(r);
    return record;
  };
  kb.AddRecord(make("near_lm", 1.0, {0.9, 0.9, 0.9, 0.9}));
  kb.AddRecord(make("far_lm", 1.0, {0.1, 0.1, 0.1, 0.1}));

  MetaFeatureVector query{};
  query.fill(1.0);
  const LandmarkVector query_lm = {0.9, 0.9, 0.9, 0.9};
  const auto ranked = kb.NearestRecords(query, &query_lm, 3.0, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].record.dataset_name, "near_lm");
  EXPECT_LT(ranked[0].distance, ranked[1].distance);
}

TEST(LandmarkingTest, EndToEndThroughSmartML) {
  SmartMlOptions options;
  options.max_evaluations = 9;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn", "rpart"};
  options.use_landmarking = true;
  SmartML framework(options);
  auto first = framework.Run(MakeData(359, 140));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->has_landmarks);
  // The KB record carries the landmarks.
  ASSERT_EQ(framework.kb().NumRecords(), 1u);
  EXPECT_TRUE(framework.kb().SnapshotRecords()[0].has_landmarks);
  // A second run nominates via the combined distance.
  auto second = framework.Run(MakeData(361, 140));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->used_meta_learning);
}

}  // namespace
}  // namespace smartml
