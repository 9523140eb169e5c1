// Tests for the tuning stack: objectives, random/grid search, the regression
// forest surrogate, SMAC itself, and what all four tuners share.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/synthetic.h"
#include "src/ml/knn.h"
#include "src/tuning/genetic.h"
#include "src/tuning/objective.h"
#include "src/tuning/random_search.h"
#include "src/tuning/smac.h"

namespace smartml {
namespace {

// A cheap synthetic objective: a smooth 2-D bowl with minimum at
// (x, y) = (0.3, 0.7), identical on every "fold". Safe to evaluate from a
// parallel batch.
class BowlObjective : public TuningObjective {
 public:
  explicit BowlObjective(size_t folds = 3) : folds_(folds) {}
  size_t NumFolds() const override { return folds_; }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override {
    ++evaluations_;
    const double x = config.GetDouble("x", 0.0);
    const double y = config.GetDouble("y", 0.0);
    const double dx = x - 0.3, dy = y - 0.7;
    // Slight per-fold offset keeps racing honest.
    return dx * dx + dy * dy + 0.001 * static_cast<double>(fold);
  }
  size_t evaluations() const { return evaluations_; }

 private:
  size_t folds_;
  std::atomic<size_t> evaluations_{0};
};

// An objective without folds: every tuner must refuse it up front.
class NoFoldObjective : public TuningObjective {
 public:
  size_t NumFolds() const override { return 0; }
  StatusOr<double> EvaluateFold(const ParamConfig&, size_t) override {
    return 0.0;
  }
};

ParamSpace BowlSpace() {
  ParamSpace space;
  space.AddDouble("x", 0.0, 1.0, 0.0);
  space.AddDouble("y", 0.0, 1.0, 0.0);
  return space;
}

// ---------------------------------------------------------------------------
// ClassifierObjective
// ---------------------------------------------------------------------------

TEST(ObjectiveTest, HoldoutModeHasOneFold) {
  SyntheticSpec spec;
  spec.num_instances = 80;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 1, 5);
  ASSERT_TRUE(objective.ok());
  EXPECT_EQ((*objective)->NumFolds(), 1u);
}

TEST(ObjectiveTest, KFoldModeCreatesFolds) {
  SyntheticSpec spec;
  spec.num_instances = 90;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 3, 5);
  ASSERT_TRUE(objective.ok());
  EXPECT_EQ((*objective)->NumFolds(), 3u);
}

TEST(ObjectiveTest, CostInUnitInterval) {
  SyntheticSpec spec;
  spec.num_instances = 100;
  spec.class_sep = 3.0;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 2, 7);
  ASSERT_TRUE(objective.ok());
  auto cost = (*objective)->EvaluateFold(KnnClassifier::Space().DefaultConfig(),
                                         0);
  ASSERT_TRUE(cost.ok());
  EXPECT_GE(*cost, 0.0);
  EXPECT_LE(*cost, 1.0);
  EXPECT_LT(*cost, 0.3);  // Easy problem.
}

TEST(ObjectiveTest, OutOfRangeFoldRejected) {
  SyntheticSpec spec;
  spec.num_instances = 60;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 2, 7);
  ASSERT_TRUE(objective.ok());
  EXPECT_FALSE((*objective)
                   ->EvaluateFold(KnnClassifier::Space().DefaultConfig(), 5)
                   .ok());
}

// ---------------------------------------------------------------------------
// Random search / grid search
// ---------------------------------------------------------------------------

TEST(RandomSearchTest, FindsNearOptimum) {
  BowlObjective objective(1);
  TunerOptions options;
  options.max_evaluations = 200;
  options.seed = 3;
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_cost, 0.02);
  EXPECT_NEAR(result->best_config.GetDouble("x", 0), 0.3, 0.25);
}

TEST(RandomSearchTest, RespectsEvaluationBudget) {
  BowlObjective objective(2);
  TunerOptions options;
  options.max_evaluations = 21;
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(objective.evaluations(), 21u);
  EXPECT_EQ(result->num_evaluations, 21u);
}

TEST(RandomSearchTest, WarmStartEvaluatedFirst) {
  BowlObjective objective(1);
  TunerOptions options;
  options.max_evaluations = 1;  // Only the warm start gets evaluated.
  ParamConfig warm;
  warm.SetDouble("x", 0.3);
  warm.SetDouble("y", 0.7);
  options.initial_configs = {warm};
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_cost, 1e-9);
}

TEST(RandomSearchTest, TrajectoryIsMonotoneNonIncreasing) {
  BowlObjective objective(1);
  TunerOptions options;
  options.max_evaluations = 60;
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->trajectory.size(); ++i) {
    EXPECT_LE(result->trajectory[i], result->trajectory[i - 1] + 1e-12);
  }
}

TEST(RandomSearchTest, RejectsNullObjective) {
  EXPECT_EQ(RandomSearch(BowlSpace(), nullptr, TunerOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RandomSearchTest, RejectsZeroFoldObjective) {
  // Would otherwise plan no fold tasks, never spend budget, and spin until
  // the deadline (the one set here only keeps such a regression from
  // hanging the suite).
  NoFoldObjective objective;
  TunerOptions options;
  options.deadline = Deadline::After(1.0);
  EXPECT_EQ(RandomSearch(BowlSpace(), &objective, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GridSearchTest, RejectsNullObjective) {
  EXPECT_EQ(GridSearch(BowlSpace(), nullptr, TunerOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GridSearchTest, RejectsZeroFoldObjective) {
  NoFoldObjective objective;
  TunerOptions options;
  options.deadline = Deadline::After(1.0);
  EXPECT_EQ(GridSearch(BowlSpace(), &objective, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GridSearchTest, CoversTheGrid) {
  BowlObjective objective(1);
  TunerOptions options;
  options.max_evaluations = 10000;
  auto result = GridSearch(BowlSpace(), &objective, options, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(objective.evaluations(), 25u);  // 5 x 5 grid.
  EXPECT_LT(result->best_cost, 0.06);
}

TEST(GridSearchTest, EnumeratesCategoricals) {
  ParamSpace space;
  space.AddCategorical("mode", {"a", "b", "c"}, "a");
  BowlObjective objective(1);
  TunerOptions options;
  options.max_evaluations = 100;
  auto result = GridSearch(space, &objective, options, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(objective.evaluations(), 3u);
}

// ---------------------------------------------------------------------------
// RegressionForest
// ---------------------------------------------------------------------------

TEST(RegressionForestTest, FitsSmoothFunction) {
  Rng rng(5);
  const size_t n = 300;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = std::sin(3 * x(i, 0)) + x(i, 1) * x(i, 1);
  }
  RegressionForest forest;
  RegressionForest::Options options;
  options.num_trees = 20;
  ASSERT_TRUE(forest.Fit(x, y, options).ok());
  // R^2 on training data should be high.
  double ss_res = 0, ss_tot = 0, mean = 0;
  for (double v : y) mean += v;
  mean /= n;
  for (size_t i = 0; i < n; ++i) {
    const auto p = forest.Predict({x(i, 0), x(i, 1)});
    ss_res += (p.mean - y[i]) * (p.mean - y[i]);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  EXPECT_GT(1.0 - ss_res / ss_tot, 0.8);
}

TEST(RegressionForestTest, VarianceHigherOffData) {
  Rng rng(7);
  const size_t n = 120;
  Matrix x(n, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(0.0, 0.4);  // Data only in [0, 0.4].
    y[i] = x(i, 0) + 0.05 * rng.Normal();
  }
  RegressionForest forest;
  ASSERT_TRUE(forest.Fit(x, y, {}).ok());
  const auto near = forest.Predict({0.2});
  EXPECT_TRUE(std::isfinite(near.mean));
  EXPECT_GE(near.variance, 0.0);
}

TEST(RegressionForestTest, RejectsBadInput) {
  RegressionForest forest;
  Matrix x(3, 1);
  EXPECT_FALSE(forest.Fit(x, {1.0, 2.0}, {}).ok());
  EXPECT_FALSE(forest.Fit(Matrix(), {}, {}).ok());
}

// ---------------------------------------------------------------------------
// SMAC
// ---------------------------------------------------------------------------

TEST(SmacTest, FindsNearOptimumOnBowl) {
  BowlObjective objective(1);
  SmacOptions options;
  options.max_evaluations = 120;
  options.seed = 11;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->best_cost, 0.01);
}

TEST(SmacTest, BeatsRandomSearchOnAverage) {
  // Same budget; SMAC's model-based proposals should reach a lower cost on
  // most seeds of a smooth objective.
  int smac_wins = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    BowlObjective smac_objective(1);
    SmacOptions smac_options;
    smac_options.max_evaluations = 60;
    smac_options.seed = 100 + t;
    auto smac_result = Smac(BowlSpace(), &smac_objective, smac_options);
    ASSERT_TRUE(smac_result.ok());

    BowlObjective rs_objective(1);
    TunerOptions rs_options;
    rs_options.max_evaluations = 60;
    rs_options.seed = 100 + t;
    auto rs_result = RandomSearch(BowlSpace(), &rs_objective, rs_options);
    ASSERT_TRUE(rs_result.ok());

    if (smac_result->best_cost <= rs_result->best_cost) ++smac_wins;
  }
  EXPECT_GE(smac_wins, 3) << "SMAC should win most seeds";
}

TEST(SmacTest, RespectsEvaluationBudget) {
  BowlObjective objective(3);
  SmacOptions options;
  options.max_evaluations = 40;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(objective.evaluations(), 40u);
  EXPECT_EQ(result->num_evaluations, objective.evaluations());
}

TEST(SmacTest, WarmStartDominatesColdAtTinyBudget) {
  // With a budget of 3 evaluations, a warm start at the optimum must win.
  ParamConfig warm;
  warm.SetDouble("x", 0.3);
  warm.SetDouble("y", 0.7);

  BowlObjective cold_objective(1);
  SmacOptions cold;
  cold.max_evaluations = 3;
  cold.seed = 5;
  auto cold_result = Smac(BowlSpace(), &cold_objective, cold);
  ASSERT_TRUE(cold_result.ok());

  BowlObjective warm_objective(1);
  SmacOptions warm_options;
  warm_options.max_evaluations = 3;
  warm_options.seed = 5;
  warm_options.initial_configs = {warm};
  auto warm_result = Smac(BowlSpace(), &warm_objective, warm_options);
  ASSERT_TRUE(warm_result.ok());

  EXPECT_LT(warm_result->best_cost, cold_result->best_cost);
  EXPECT_LT(warm_result->best_cost, 1e-9);
}

TEST(SmacTest, IntensificationRacesAcrossFolds) {
  BowlObjective objective(4);
  SmacOptions options;
  options.max_evaluations = 80;
  options.seed = 13;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  // The incumbent must have been measured on multiple folds: best_cost
  // includes the per-fold offsets, so it exceeds the single-fold floor.
  EXPECT_LT(result->best_cost, 0.05);
}

TEST(SmacTest, TrajectoryMonotoneNonIncreasing) {
  BowlObjective objective(2);
  SmacOptions options;
  options.max_evaluations = 60;
  options.seed = 17;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trajectory.empty());
  for (size_t i = 1; i < result->trajectory.size(); ++i) {
    EXPECT_LE(result->trajectory[i], result->trajectory[i - 1] + 0.002);
  }
}

TEST(SmacTest, HandlesConditionalSpaces) {
  // A space where y only matters when mode=on; SMAC must still find x=0.3.
  ParamSpace space;
  space.AddDouble("x", 0.0, 1.0, 0.0);
  space.AddCategorical("mode", {"on", "off"}, "off");
  space.AddDouble("y", 0.0, 1.0, 0.5);
  space.Condition("y", "mode", {"on"});

  class CondObjective : public TuningObjective {
   public:
    size_t NumFolds() const override { return 1; }
    StatusOr<double> EvaluateFold(const ParamConfig& config,
                                  size_t) override {
      const double x = config.GetDouble("x", 0.0);
      double cost = (x - 0.3) * (x - 0.3);
      if (config.GetChoice("mode", "off") == "on") {
        const double y = config.GetDouble("y", 0.5);
        cost += 0.5 * (y - 0.9) * (y - 0.9);
      }
      return cost;
    }
  } objective;

  SmacOptions options;
  options.max_evaluations = 80;
  options.seed = 19;
  auto result = Smac(space, &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_cost, 0.02);
}

TEST(SmacTest, RejectsNullObjective) {
  SmacOptions options;
  EXPECT_FALSE(Smac(BowlSpace(), nullptr, options).ok());
}

TEST(SmacTest, DeadlineStopsTheRun) {
  // An already-expired deadline: only minimal work may happen.
  BowlObjective objective(2);
  SmacOptions options;
  options.max_evaluations = 100000;
  options.deadline = Deadline::After(0.0);
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(objective.evaluations(), 2u);
}

TEST(RandomSearchTest, DeadlineStopsTheRun) {
  BowlObjective objective(1);
  TunerOptions options;
  options.max_evaluations = 100000;
  options.deadline = Deadline::After(0.0);
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(objective.evaluations(), 1u);
}

TEST(ObjectiveTest, CrashingConfigCostsMaximum) {
  // A config the classifier rejects must evaluate to cost 1.0 rather than
  // aborting the whole tuning run (SMAC must route around bad configs).
  SyntheticSpec spec;
  spec.num_instances = 60;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 1, 3);
  ASSERT_TRUE(objective.ok());
  ParamConfig empty_dataset_trigger;  // k is fine; craft a failing fit via
  // an impossible schema is not reachable here, so emulate with an
  // out-of-range k repaired internally — the contract stays: evaluation
  // never returns an error for config content.
  empty_dataset_trigger.SetInt("k", 1000000);
  auto cost = (*objective)->EvaluateFold(empty_dataset_trigger, 0);
  ASSERT_TRUE(cost.ok());
  EXPECT_GE(*cost, 0.0);
  EXPECT_LE(*cost, 1.0);
}

TEST(SmacTest, ManyDuplicateWarmStartsDeduplicated) {
  BowlObjective objective(2);
  SmacOptions options;
  options.max_evaluations = 10;
  ParamConfig warm;
  warm.SetDouble("x", 0.3);
  warm.SetDouble("y", 0.7);
  options.initial_configs = {warm, warm, warm, warm};
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  // Duplicates share one record: the same (config, fold) pair is never
  // evaluated twice, so with 2 folds the warm start costs at most 2 evals
  // of the total spent.
  EXPECT_LT(result->best_cost, 0.01);
}

TEST(SmacTest, EndToEndOnRealClassifier) {
  SyntheticSpec spec;
  spec.num_instances = 120;
  spec.num_informative = 4;
  spec.class_sep = 1.2;
  spec.seed = 23;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 2, 29);
  ASSERT_TRUE(objective.ok());
  SmacOptions options;
  options.max_evaluations = 30;
  options.seed = 29;
  auto result = Smac(KnnClassifier::Space(), objective->get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->best_config.GetInt("k", 0), 1);
  EXPECT_LT(result->best_cost, 0.5);
}

// ---------------------------------------------------------------------------
// All four tuners
// ---------------------------------------------------------------------------

TEST(TunerTest, TrajectoriesStayInUnitInterval) {
  // The trajectory is the incumbent's mean cost after every fold, and costs
  // lie in [0, 1]: entries recorded before the first incumbent read 1.0,
  // never an internal "no incumbent" sentinel.
  BowlObjective objective(3);
  const ParamSpace space = BowlSpace();
  TunerOptions options;
  options.max_evaluations = 20;
  SmacOptions smac_options;
  smac_options.max_evaluations = 20;
  GeneticOptions genetic_options;
  genetic_options.max_evaluations = 20;
  const StatusOr<TunedResult> results[] = {
      Smac(space, &objective, smac_options),
      RandomSearch(space, &objective, options),
      GridSearch(space, &objective, options),
      GeneticSearch(space, &objective, genetic_options)};
  for (const StatusOr<TunedResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->trajectory.size(), 20u);
    for (const double cost : result->trajectory) {
      EXPECT_GE(cost, 0.0);
      EXPECT_LE(cost, 1.0);
    }
  }
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t HashDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fnv1a(hash, &bits, sizeof(bits));
}

// FNV-1a over the incumbent's ToString, the bit patterns of best_cost and
// every trajectory entry, and num_evaluations.
uint64_t HashResult(const TunedResult& result) {
  uint64_t hash = 14695981039346656037ull;
  const std::string config = result.best_config.ToString();
  hash = Fnv1a(hash, config.data(), config.size());
  hash = HashDouble(hash, result.best_cost);
  for (const double cost : result.trajectory) hash = HashDouble(hash, cost);
  const uint64_t evaluations = result.num_evaluations;
  return Fnv1a(hash, &evaluations, sizeof(evaluations));
}

struct ParityCase {
  bool knn;  // A real knn ClassifierObjective instead of the bowl.
  uint64_t smac, random, grid, genetic;
};

// Recorded before the four tuners moved onto the shared options, batch
// evaluator and checkpoint codec, and identical at 1 and 8 threads there.
// Random and grid search then recorded 2.0 in the trajectory for the folds
// before their first incumbent; those entries are hashed as 1.0, the value
// every tuner records now. Nothing else may differ.
constexpr ParityCase kParityCases[] = {
    {false, 0xf418a467b740a13cull, 0x516177b9aab71248ull,
     0xa3be299b926219a2ull, 0xb67a66a4dc30a7e1ull},
    {true, 0xf5b37ed64413588dull, 0xa2336197f9c5d086ull,
     0x681a0015dc0dd72dull, 0xb6e01c5e1d234f08ull},
};

TEST(TunerTest, ResultsMatchRecordedHashesAtOneAndEightThreads) {
  SyntheticSpec spec;
  spec.num_instances = 90;
  spec.num_informative = 3;
  spec.class_sep = 1.0;
  spec.seed = 31;
  const Dataset data = GenerateSynthetic(spec);
  KnnClassifier knn;
  for (const int threads : {1, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    ScopedRunContext scope({.pool = pool.get()});
    for (const ParityCase& expected : kParityCases) {
      SCOPED_TRACE(std::string(expected.knn ? "knn" : "bowl") + " at " +
                   std::to_string(threads) + " threads");
      BowlObjective bowl(3);
      auto knn_objective = ClassifierObjective::Create(knn, data, 3, 37);
      ASSERT_TRUE(knn_objective.ok());
      TuningObjective* objective = &bowl;
      if (expected.knn) objective = knn_objective->get();
      const ParamSpace space =
          expected.knn ? KnnClassifier::Space() : BowlSpace();
      // 3 folds and a budget that is no multiple of 3: the last config
      // scored by random and genetic search gets only part of the folds.
      const int budget = expected.knn ? 26 : 32;
      SmacOptions smac_options;
      smac_options.max_evaluations = budget;
      smac_options.seed = 7;
      TunerOptions options;
      options.max_evaluations = budget;
      options.seed = 7;
      GeneticOptions genetic_options;
      genetic_options.max_evaluations = budget;
      genetic_options.seed = 7;
      genetic_options.population_size = 4;

      auto smac = Smac(space, objective, smac_options);
      auto random = RandomSearch(space, objective, options);
      auto grid = GridSearch(space, objective, options);
      auto genetic = GeneticSearch(space, objective, genetic_options);
      ASSERT_TRUE(smac.ok() && random.ok() && grid.ok() && genetic.ok());
      EXPECT_EQ(HashResult(*smac), expected.smac);
      EXPECT_EQ(HashResult(*random), expected.random);
      EXPECT_EQ(HashResult(*grid), expected.grid);
      EXPECT_EQ(HashResult(*genetic), expected.genetic);
    }
  }
}

}  // namespace
}  // namespace smartml
