// End-to-end tests of the SmartML orchestrator: the full Figure 1 pipeline,
// knowledge-base growth, warm starts, selection-only mode, and reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/core/smartml.h"
#include "src/data/synthetic.h"

namespace smartml {
namespace {

Dataset MakeData(uint64_t seed = 91, size_t n = 120, size_t classes = 2) {
  SyntheticSpec spec;
  spec.num_instances = n;
  spec.num_informative = 4;
  spec.num_classes = classes;
  spec.class_sep = 2.5;
  spec.seed = seed;
  spec.name = "test_" + std::to_string(seed);
  return GenerateSynthetic(spec);
}

SmartMlOptions FastOptions() {
  SmartMlOptions options;
  options.max_evaluations = 18;    // Deterministic, tiny budget.
  options.time_budget_seconds = 60;
  options.cv_folds = 2;
  options.cold_start_algorithms = {"knn", "naive_bayes", "rpart"};
  options.seed = 11;
  return options;
}

TEST(SmartMlTest, ColdStartEndToEnd) {
  SmartML framework(FastOptions());
  auto result = framework.Run(MakeData());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->used_meta_learning);
  EXPECT_EQ(result->per_algorithm.size(), 3u);
  EXPECT_FALSE(result->best_algorithm.empty());
  EXPECT_GT(result->best_validation_accuracy, 0.6);
  ASSERT_NE(result->best_model, nullptr);
}

TEST(SmartMlTest, KbGrowsAfterRun) {
  SmartML framework(FastOptions());
  EXPECT_EQ(framework.kb().NumRecords(), 0u);
  ASSERT_TRUE(framework.Run(MakeData(91)).ok());
  EXPECT_EQ(framework.kb().NumRecords(), 1u);
  ASSERT_TRUE(framework.Run(MakeData(92)).ok());
  EXPECT_EQ(framework.kb().NumRecords(), 2u);
}

TEST(SmartMlTest, SecondRunUsesMetaLearning) {
  SmartML framework(FastOptions());
  ASSERT_TRUE(framework.Run(MakeData(93)).ok());
  auto second = framework.Run(MakeData(94));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->used_meta_learning);
  EXPECT_FALSE(second->nominations.empty());
  // Nominated algorithms carry warm-start configurations.
  EXPECT_FALSE(second->nominations[0].warm_start_configs.empty());
}

TEST(SmartMlTest, UpdateKbCanBeDisabled) {
  SmartMlOptions options = FastOptions();
  options.update_kb = false;
  SmartML framework(options);
  ASSERT_TRUE(framework.Run(MakeData(95)).ok());
  EXPECT_EQ(framework.kb().NumRecords(), 0u);
}

TEST(SmartMlTest, SelectionOnlyModeSkipsTuning) {
  SmartMlOptions options = FastOptions();
  options.selection_only = true;
  SmartML framework(options);
  auto result = framework.Run(MakeData(96));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->per_algorithm.empty());
  EXPECT_EQ(result->best_model, nullptr);
}

TEST(SmartMlTest, SelectAlgorithmsFromMetaFeaturesOnly) {
  SmartML framework(FastOptions());
  ASSERT_TRUE(framework.Run(MakeData(97)).ok());
  auto mf = ExtractMetaFeatures(MakeData(98));
  ASSERT_TRUE(mf.ok());
  const auto nominations = framework.SelectAlgorithms(*mf);
  EXPECT_FALSE(nominations.empty());
}

TEST(SmartMlTest, EnsembleBuiltWhenEnabled) {
  SmartMlOptions options = FastOptions();
  options.enable_ensembling = true;
  SmartML framework(options);
  auto result = framework.Run(MakeData(99));
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->ensemble, nullptr);
  EXPECT_GE(result->ensemble->NumMembers(), 2u);
  EXPECT_GT(result->ensemble_validation_accuracy, 0.5);
}

TEST(SmartMlTest, EnsembleDisabled) {
  SmartMlOptions options = FastOptions();
  options.enable_ensembling = false;
  SmartML framework(options);
  auto result = framework.Run(MakeData(100));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ensemble, nullptr);
}

TEST(SmartMlTest, InterpretabilityProducesImportances) {
  SmartMlOptions options = FastOptions();
  options.enable_interpretability = true;
  SmartML framework(options);
  auto result = framework.Run(MakeData(101));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->importances.empty());
}

TEST(SmartMlTest, PreprocessingOpsApplied) {
  SmartMlOptions options = FastOptions();
  options.preprocessing = {PreprocessOp::kCenter, PreprocessOp::kScale};
  SmartML framework(options);
  auto result = framework.Run(MakeData(102));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->best_validation_accuracy, 0.6);
}

TEST(SmartMlTest, MissingDataAutoImputed) {
  SyntheticSpec spec;
  spec.num_instances = 120;
  spec.num_informative = 4;
  spec.num_classes = 2;
  spec.class_sep = 2.5;
  spec.missing_fraction = 0.05;
  spec.seed = 103;
  spec.name = "missing";
  SmartML framework(FastOptions());
  auto result = framework.Run(GenerateSynthetic(spec));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->best_validation_accuracy, 0.5);
}

TEST(SmartMlTest, RejectsDegenerateInputs) {
  SmartML framework(FastOptions());
  Dataset tiny;
  tiny.AddNumericFeature("x", {1, 2});
  tiny.SetLabels({0, 1}, {"a", "b"});
  EXPECT_FALSE(framework.Run(tiny).ok());

  Dataset one_class = MakeData(104);
  std::vector<int> labels(one_class.NumRows(), 0);
  one_class.SetLabels(labels, {"only"});
  EXPECT_FALSE(framework.Run(one_class).ok());
}

TEST(SmartMlTest, KbPersistenceRoundTrip) {
  const std::string path = testing::TempDir() + "/smartml_e2e_kb.txt";
  {
    SmartML framework(FastOptions());
    ASSERT_TRUE(framework.Run(MakeData(105)).ok());
    ASSERT_TRUE(framework.SaveKnowledgeBase(path).ok());
  }
  {
    SmartML framework(FastOptions());
    ASSERT_TRUE(framework.LoadKnowledgeBase(path).ok());
    EXPECT_EQ(framework.kb().NumRecords(), 1u);
    // Meta-learning immediately active thanks to the loaded KB.
    auto result = framework.Run(MakeData(106));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_meta_learning);
  }
  std::remove(path.c_str());
}

TEST(SmartMlTest, BootstrapSeedsKb) {
  SmartML framework(FastOptions());
  ASSERT_TRUE(framework
                  .BootstrapWithDataset(MakeData(107), {"knn", "rpart"},
                                        /*evaluations_per_algorithm=*/4)
                  .ok());
  EXPECT_EQ(framework.kb().NumRecords(), 1u);
  const std::vector<KbRecord> records = framework.kb().SnapshotRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].results.size(), 2u);
}

TEST(SmartMlTest, ReportMentionsKeyFacts) {
  SmartML framework(FastOptions());
  auto result = framework.Run(MakeData(108));
  ASSERT_TRUE(result.ok());
  const std::string report = result->Report();
  EXPECT_NE(report.find("SmartML experiment output"), std::string::npos);
  EXPECT_NE(report.find("best algorithm"), std::string::npos);
  EXPECT_NE(report.find(result->best_algorithm), std::string::npos);
  EXPECT_NE(report.find("validation accuracy"), std::string::npos);
}

TEST(SmartMlTest, BudgetDividedByParamCounts) {
  // With max_evaluations set, algorithms with more hyperparameters receive
  // more fold-evaluations. svm (5 params) vs knn (1 param).
  SmartMlOptions options = FastOptions();
  options.cold_start_algorithms = {"svm", "knn"};
  options.max_evaluations = 30;
  SmartML framework(options);
  auto result = framework.Run(MakeData(109));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_algorithm.size(), 2u);
  const auto& svm_run = result->per_algorithm[0].algorithm == "svm"
                            ? result->per_algorithm[0]
                            : result->per_algorithm[1];
  const auto& knn_run = result->per_algorithm[0].algorithm == "knn"
                            ? result->per_algorithm[0]
                            : result->per_algorithm[1];
  EXPECT_GT(svm_run.evaluations, knn_run.evaluations);
}

TEST(SmartMlTest, HoldoutTuningMode) {
  // cv_folds = 1: SMAC tunes on a single stratified holdout.
  SmartMlOptions options = FastOptions();
  options.cv_folds = 1;
  SmartML framework(options);
  auto result = framework.Run(MakeData(111));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->best_validation_accuracy, 0.6);
}

TEST(SmartMlTest, TimeBudgetOnlyMode) {
  // No evaluation cap: the wall-clock deadline is the only stop signal.
  SmartMlOptions options = FastOptions();
  options.max_evaluations = 0;
  options.time_budget_seconds = 0.5;
  SmartML framework(options);
  Stopwatch watch;
  auto result = framework.Run(MakeData(112));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Tuning respects the (tiny) budget within generous slack: the budget
  // gates new evaluations but an in-flight fit completes.
  EXPECT_LT(watch.ElapsedSeconds(), 30.0);
  EXPECT_GT(result->best_validation_accuracy, 0.5);
}

TEST(SmartMlTest, PhaseTimingsPopulated) {
  SmartML framework(FastOptions());
  auto result = framework.Run(MakeData(113));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->preprocessing_seconds, 0.0);
  EXPECT_GE(result->tuning_seconds, 0.0);
  EXPECT_LE(result->preprocessing_seconds + result->selection_seconds +
                result->tuning_seconds + result->output_seconds,
            result->total_seconds + 0.5);
  EXPECT_NE(result->Report().find("phase times"), std::string::npos);
}

TEST(SmartMlTest, NominationsCappedByOption) {
  SmartMlOptions options = FastOptions();
  options.max_nominations = 2;
  SmartML framework(options);
  ASSERT_TRUE(framework.Run(MakeData(114)).ok());
  auto second = framework.Run(MakeData(115));
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->nominations.size(), 2u);
}

TEST(SmartMlTest, DeterministicForSeed) {
  auto run = [](uint64_t seed) {
    SmartMlOptions options = FastOptions();
    options.seed = seed;
    SmartML framework(options);
    auto result = framework.Run(MakeData(110));
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->best_validation_accuracy : -1.0;
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
}

// ---------------------------------------------------------------------------
// Output phase: the tuning phase's models are reused, not refitted
// ---------------------------------------------------------------------------

Dataset ParityData() {
  SyntheticSpec spec;
  spec.num_instances = 180;
  spec.num_informative = 4;
  spec.num_noise = 2;
  spec.num_categorical = 1;
  spec.num_classes = 3;
  spec.class_sep = 1.0;
  spec.seed = 11;
  spec.name = "parity";
  return GenerateSynthetic(spec);
}

SmartMlOptions ParityOptions(EnsembleStrategy strategy, int num_threads) {
  SmartMlOptions options;
  options.max_evaluations = 16;
  options.time_budget_seconds = 60;
  options.cv_folds = 2;
  // Four candidates for a three-member pool: one model is released.
  options.cold_start_algorithms = {"knn", "naive_bayes", "random_forest",
                                   "lda"};
  options.ensemble_size = 3;
  options.ensemble_strategy = strategy;
  options.update_kb = false;
  options.num_threads = num_threads;
  options.seed = 11;
  return options;
}

struct ParityCase {
  EnsembleStrategy strategy;
  std::vector<double> weights;
  double ensemble_accuracy;
};

class OutputParityTest : public testing::TestWithParam<ParityCase> {};

// Expected values were recorded when the output phase still refitted the
// winner and every ensemble member; reusing the tune-phase fits must give
// the same bits at any thread count. Every feature's importance is pinned
// (the last two were recorded before importance reused cached tree leaves).
TEST_P(OutputParityTest, MatchesTheRefittingOutputPhase) {
  const ParityCase& expected = GetParam();
  const std::vector<std::pair<std::string, double>> importances = {
      {"inf3", 0.24444444444444441},
      {"inf2", 0.16666666666666669},
      {"inf1", 0.15555555555555556},
      {"cat0", 0.15555555555555556},
      {"noise0", 0.022222222222222254},
      {"noise1", 0.022222222222222254},
      {"inf0", 0.0},
  };
  for (int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    SmartML framework;
    auto result =
        framework.Run(ParityData(), ParityOptions(expected.strategy, threads));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->best_algorithm, "random_forest");
    EXPECT_EQ(result->best_validation_accuracy, 0.91111111111111109);
    ASSERT_NE(result->ensemble, nullptr);
    EXPECT_EQ(result->ensemble->weights(), expected.weights);
    EXPECT_EQ(result->ensemble_validation_accuracy, expected.ensemble_accuracy);
    ASSERT_EQ(result->importances.size(), importances.size());
    for (size_t i = 0; i < importances.size(); ++i) {
      EXPECT_EQ(result->importances[i].feature, importances[i].first) << i;
      EXPECT_EQ(result->importances[i].importance, importances[i].second) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, OutputParityTest,
    testing::Values(
        ParityCase{EnsembleStrategy::kAccuracyWeighted,
                   {0.91111111111111109, 0.88888888888888884,
                    0.8666666666666667},
                   0.88888888888888884},
        ParityCase{EnsembleStrategy::kSoftmax,
                   {1.0, 0.64118038842995417, 0.41111229050718784},
                   0.88888888888888884},
        ParityCase{EnsembleStrategy::kGreedy, {5.0, 2.0},
                   0.91111111111111109}),
    [](const auto& info) {
      switch (info.param.strategy) {
        case EnsembleStrategy::kAccuracyWeighted:
          return std::string("accuracy");
        case EnsembleStrategy::kSoftmax:
          return std::string("softmax");
        case EnsembleStrategy::kGreedy:
          break;
      }
      return std::string("greedy");
    });

TEST(SmartMlTest, WinnerIsSharedWithTheEnsembleNotRefitted) {
  SmartML framework;
  auto result = framework.Run(
      ParityData(), ParityOptions(EnsembleStrategy::kAccuracyWeighted, 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->best_model, nullptr);
  ASSERT_NE(result->ensemble, nullptr);
  // Accuracy weighting keeps the pool order, so the winner is member 0.
  EXPECT_EQ(result->ensemble->member(0).get(), result->best_model.get());
  // The tune-phase model is the one handed out; the fourth-ranked
  // candidate, outside the pool, had its model released.
  size_t held = 0;
  for (const AlgorithmRunResult& run : result->per_algorithm) {
    if (run.algorithm == result->best_algorithm) {
      EXPECT_EQ(run.model.get(), result->best_model.get());
    }
    if (run.model != nullptr) ++held;
  }
  EXPECT_EQ(held, 3u);
}

TEST(SmartMlTest, WithoutEnsemblingOnlyTheWinnerIsHeld) {
  SmartMlOptions options =
      ParityOptions(EnsembleStrategy::kAccuracyWeighted, 1);
  options.enable_ensembling = false;
  SmartML framework;
  auto result = framework.Run(ParityData(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const AlgorithmRunResult& run : result->per_algorithm) {
    const bool winner = run.algorithm == result->best_algorithm;
    EXPECT_EQ(run.model != nullptr, winner) << run.algorithm;
    EXPECT_EQ(run.validation_proba.empty(), !winner) << run.algorithm;
  }
}

}  // namespace
}  // namespace smartml
