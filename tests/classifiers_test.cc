// Parameterized behavioural tests over all 15 integrated classifiers, plus a
// few algorithm-specific checks. Every algorithm must: learn a separable
// problem, produce valid probability vectors, survive random hyperparameter
// configurations from its declared space, behave deterministically, and fail
// cleanly on bad input.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/data/metrics.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/ml/boosting.h"
#include "src/ml/forest.h"
#include "src/ml/lmt.h"
#include "src/ml/registry.h"
#include "src/ml/tree_classifiers.h"

namespace smartml {
namespace {

Dataset EasyBinary(uint64_t seed = 101) {
  SyntheticSpec spec;
  spec.num_instances = 140;
  spec.num_informative = 4;
  spec.num_classes = 2;
  spec.class_sep = 3.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

Dataset EasyThreeClass(uint64_t seed = 103) {
  SyntheticSpec spec;
  spec.num_instances = 180;
  spec.num_informative = 4;
  spec.num_classes = 3;
  spec.class_sep = 3.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

Dataset MixedTypes(uint64_t seed = 107) {
  SyntheticSpec spec;
  spec.num_instances = 150;
  spec.num_informative = 3;
  spec.num_categorical = 2;
  spec.num_classes = 2;
  spec.class_sep = 2.5;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

// Trains on a stratified split and returns holdout accuracy.
double HoldoutAccuracy(Classifier* model, const Dataset& data,
                       const ParamConfig& config) {
  auto split = StratifiedSplit(data, 0.3, 1);
  EXPECT_TRUE(split.ok());
  EXPECT_TRUE(model->Fit(split->train, config).ok());
  auto pred = model->Predict(split->validation);
  EXPECT_TRUE(pred.ok());
  if (!pred.ok()) return 0.0;
  return Accuracy(split->validation.labels(), *pred);
}

class AllClassifiersTest : public testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Classifier> Make() {
    auto c = CreateClassifier(GetParam());
    EXPECT_TRUE(c.ok());
    return std::move(*c);
  }
};

TEST_P(AllClassifiersTest, NameMatchesRegistry) {
  EXPECT_EQ(Make()->name(), GetParam());
}

TEST_P(AllClassifiersTest, LearnsSeparableBinaryProblem) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const double acc = HoldoutAccuracy(model.get(), EasyBinary(),
                                     space->DefaultConfig());
  EXPECT_GT(acc, 0.8) << GetParam();
}

TEST_P(AllClassifiersTest, LearnsThreeClassProblem) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const double acc = HoldoutAccuracy(model.get(), EasyThreeClass(),
                                     space->DefaultConfig());
  EXPECT_GT(acc, 0.7) << GetParam();
}

TEST_P(AllClassifiersTest, HandlesCategoricalFeatures) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const double acc = HoldoutAccuracy(model.get(), MixedTypes(),
                                     space->DefaultConfig());
  EXPECT_GT(acc, 0.65) << GetParam();
}

TEST_P(AllClassifiersTest, ProbabilitiesAreValid) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const Dataset d = EasyThreeClass();
  ASSERT_TRUE(model->Fit(d, space->DefaultConfig()).ok()) << GetParam();
  auto proba = model->PredictProba(d);
  ASSERT_TRUE(proba.ok()) << GetParam();
  ASSERT_EQ(proba->size(), d.NumRows());
  for (const auto& p : *proba) {
    ASSERT_EQ(p.size(), 3u) << GetParam();
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, -1e-9) << GetParam();
      EXPECT_LE(v, 1.0 + 1e-9) << GetParam();
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << GetParam();
  }
}

TEST_P(AllClassifiersTest, PredictArgmaxConsistentWithProba) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const Dataset d = EasyBinary();
  ASSERT_TRUE(model->Fit(d, space->DefaultConfig()).ok());
  auto pred = model->Predict(d);
  auto proba = model->PredictProba(d);
  ASSERT_TRUE(pred.ok() && proba.ok());
  size_t agree = 0;
  for (size_t r = 0; r < d.NumRows(); ++r) {
    if ((*pred)[r] == ArgMax((*proba)[r])) ++agree;
  }
  // Ties may break differently, but near-total agreement is required.
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(d.NumRows()),
            0.95)
      << GetParam();
}

TEST_P(AllClassifiersTest, SurvivesRandomConfigurations) {
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const Dataset d = EasyBinary(211);
  Rng rng(77);
  for (int i = 0; i < 3; ++i) {
    auto model = Make();
    const ParamConfig config = space->Sample(&rng);
    ASSERT_TRUE(model->Fit(d, config).ok())
        << GetParam() << " config=" << config.ToString();
    auto pred = model->Predict(d);
    ASSERT_TRUE(pred.ok()) << GetParam();
    EXPECT_EQ(pred->size(), d.NumRows());
  }
}

TEST_P(AllClassifiersTest, DeterministicGivenConfig) {
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const Dataset d = EasyBinary(307);
  auto a = Make();
  auto b = Make();
  ASSERT_TRUE(a->Fit(d, space->DefaultConfig()).ok());
  ASSERT_TRUE(b->Fit(d, space->DefaultConfig()).ok());
  auto pa = a->Predict(d);
  auto pb = b->Predict(d);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(*pa, *pb) << GetParam();
}

TEST_P(AllClassifiersTest, PredictBeforeFitFails) {
  auto model = Make();
  EXPECT_EQ(model->PredictProba(EasyBinary()).status().code(),
            StatusCode::kFailedPrecondition)
      << GetParam();
}

TEST_P(AllClassifiersTest, EmptyTrainingSetRejected) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const Dataset empty = EasyBinary().Subset({});
  ASSERT_EQ(empty.NumRows(), 0u);
  EXPECT_EQ(model->Fit(empty, space->DefaultConfig()).code(),
            StatusCode::kInvalidArgument)
      << GetParam();
}

// A refit that fails must not leave the previous model servable.
TEST_P(AllClassifiersTest, FailedFitLeavesModelUnfitted) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  const Dataset d = EasyBinary();
  std::vector<size_t> first_rows(60);
  for (size_t r = 0; r < first_rows.size(); ++r) first_rows[r] = r;
  ASSERT_TRUE(model->Fit(d.Subset(first_rows), space->DefaultConfig()).ok());
  ASSERT_FALSE(model->Fit(d.Subset({}), space->DefaultConfig()).ok());
  EXPECT_EQ(model->PredictProba(d).status().code(),
            StatusCode::kFailedPrecondition)
      << GetParam();
}

TEST_P(AllClassifiersTest, SchemaMismatchRejected) {
  auto model = Make();
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  ASSERT_TRUE(model->Fit(EasyBinary(), space->DefaultConfig()).ok());
  Dataset other("wrong");
  other.AddNumericFeature("only", {1, 2, 3, 4});
  other.SetLabels({0, 1, 0, 1}, {"a", "b"});
  EXPECT_EQ(model->PredictProba(other).status().code(),
            StatusCode::kInvalidArgument)
      << GetParam();
}

TEST_P(AllClassifiersTest, CloneIsIndependentAndUntrained) {
  auto model = Make();
  auto clone = model->Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), GetParam());
  EXPECT_EQ(clone->PredictProba(EasyBinary()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_P(AllClassifiersTest, RefitReplacesModel) {
  auto space = SpaceFor(GetParam());
  ASSERT_TRUE(space.ok());
  auto model = Make();
  const Dataset d2 = EasyBinary();
  const Dataset d3 = EasyThreeClass();
  ASSERT_TRUE(model->Fit(d3, space->DefaultConfig()).ok());
  ASSERT_TRUE(model->Fit(d2, space->DefaultConfig()).ok());
  auto proba = model->PredictProba(d2);
  ASSERT_TRUE(proba.ok());
  EXPECT_EQ((*proba)[0].size(), 2u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(All15, AllClassifiersTest,
                         testing::ValuesIn(AllAlgorithmNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Algorithm-specific behaviour.
// ---------------------------------------------------------------------------

TEST(RegistryTest, ExactlyFifteenAlgorithms) {
  EXPECT_EQ(AllAlgorithms().size(), 15u);
  EXPECT_TRUE(IsKnownAlgorithm("svm"));
  EXPECT_FALSE(IsKnownAlgorithm("xgboost"));
  EXPECT_FALSE(CreateClassifier("nope").ok());
  EXPECT_FALSE(SpaceFor("nope").ok());
}

TEST(RandomForestTest, MoreTreesMoreStable) {
  const Dataset d = EasyBinary(401);
  RandomForestClassifier forest;
  ParamConfig config;
  config.SetInt("ntree", 30);
  ASSERT_TRUE(forest.Fit(d, config).ok());
  EXPECT_EQ(forest.NumTrees(), 30u);
}

TEST(RandomForestTest, ImportancesIdentifyInformativeFeatures) {
  // Deterministic construction: 3 columns carry the label signal, 3 are
  // pure noise.
  Rng rng(19);
  const size_t n = 250;
  Dataset d("imp");
  std::vector<int> labels(n);
  for (size_t r = 0; r < n; ++r) labels[r] = static_cast<int>(r % 2);
  for (int f = 0; f < 3; ++f) {
    std::vector<double> col(n);
    for (size_t r = 0; r < n; ++r) {
      col[r] = 3.0 * labels[r] + rng.Normal();
    }
    d.AddNumericFeature("inf" + std::to_string(f), std::move(col));
  }
  for (int f = 0; f < 3; ++f) {
    std::vector<double> col(n);
    for (double& v : col) v = rng.Normal();
    d.AddNumericFeature("noise" + std::to_string(f), std::move(col));
  }
  d.SetLabels(labels, {"a", "b"});
  RandomForestClassifier forest;
  ParamConfig config;
  config.SetDouble("mtry_frac", 0.5);
  ASSERT_TRUE(forest.Fit(d, config).ok());
  const auto imp = forest.FeatureImportances();
  // Mean importance of informative features > mean of noise features.
  const double inf_mean = (imp[0] + imp[1] + imp[2]) / 3.0;
  const double noise_mean = (imp[3] + imp[4] + imp[5]) / 3.0;
  EXPECT_GT(inf_mean, 1.5 * noise_mean);
}

TEST(BaggingTest, HonorsTreeCount) {
  BaggingClassifier bagging;
  ParamConfig config;
  config.SetInt("nbagg", 12);
  ASSERT_TRUE(bagging.Fit(EasyBinary(), config).ok());
  EXPECT_EQ(bagging.NumTrees(), 12u);
}

TEST(C50Test, BoostingRoundsBounded) {
  C50Classifier c50;
  ParamConfig config;
  config.SetInt("trials", 7);
  ASSERT_TRUE(c50.Fit(EasyBinary(), config).ok());
  EXPECT_LE(c50.NumRounds(), 7u);
  EXPECT_GE(c50.NumRounds(), 1u);
}

TEST(C50Test, WinnowingStillLearns) {
  C50Classifier c50;
  ParamConfig config;
  config.SetChoice("winnow", "yes");
  const double acc = HoldoutAccuracy(&c50, EasyBinary(), config);
  EXPECT_GT(acc, 0.8);
}

TEST(DeepBoostTest, LambdaPenalizesComplexTrees) {
  // With a huge lambda every tree's weight collapses; the model should still
  // hold exactly one usable round (the guard keeps the first).
  DeepBoostClassifier model;
  ParamConfig config;
  config.SetDouble("lambda", 5.0);
  config.SetDouble("beta", 0.5);
  config.SetInt("num_iter", 20);
  ASSERT_TRUE(model.Fit(EasyBinary(), config).ok());
  EXPECT_GE(model.NumRounds(), 1u);
  EXPECT_LE(model.NumRounds(), 20u);
}

TEST(PartTest, ProducesRuleList) {
  PartClassifier part;
  const Dataset d = EasyBinary();
  ASSERT_TRUE(part.Fit(d, PartClassifier::Space().DefaultConfig()).ok());
  EXPECT_GE(part.NumRules(), 2u);  // At least one rule + default.
  const auto rules = part.RuleStrings(d);
  ASSERT_FALSE(rules.empty());
  EXPECT_NE(rules.back().find("OTHERWISE"), std::string::npos);
}

TEST(LmtTest, FitsLogisticLeaves) {
  LmtClassifier lmt;
  SyntheticSpec spec;
  spec.num_instances = 250;
  spec.num_informative = 4;
  spec.num_classes = 2;
  spec.class_sep = 1.5;
  spec.clusters_per_class = 2;
  spec.seed = 23;
  const Dataset d = GenerateSynthetic(spec);
  ParamConfig config;
  config.SetInt("M", 30);
  ASSERT_TRUE(lmt.Fit(d, config).ok());
  auto pred = lmt.Predict(d);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(Accuracy(d.labels(), *pred), 0.8);
}

TEST(J48Test, UnprunedGrowsBiggerThanPruned) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_classes = 2;
  spec.label_noise = 0.2;
  spec.class_sep = 1.0;
  spec.seed = 29;
  const Dataset d = GenerateSynthetic(spec);
  J48Classifier pruned, unpruned;
  ParamConfig pc, uc;
  uc.SetChoice("unpruned", "yes");
  ASSERT_TRUE(pruned.Fit(d, pc).ok());
  ASSERT_TRUE(unpruned.Fit(d, uc).ok());
  EXPECT_LE(pruned.tree().NumLeaves(), unpruned.tree().NumLeaves());
}

}  // namespace
}  // namespace smartml
