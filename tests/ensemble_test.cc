// Tests for the weighted ensemble.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/core/ensemble.h"
#include "src/data/metrics.h"
#include "src/data/synthetic.h"
#include "src/ml/knn.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/tree_classifiers.h"

namespace smartml {
namespace {

Dataset MakeData(uint64_t seed = 71) {
  SyntheticSpec spec;
  spec.num_instances = 160;
  spec.num_informative = 4;
  spec.num_classes = 3;
  spec.class_sep = 2.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

// An ensemble holding one trained k-NN member.
std::unique_ptr<WeightedEnsemble> OneMemberEnsemble(const Dataset& d) {
  auto knn = std::make_unique<KnnClassifier>();
  EXPECT_TRUE(knn->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto ensemble = std::make_unique<WeightedEnsemble>();
  ensemble->AddMember(std::move(knn), 0.9);
  return ensemble;
}

TEST(EnsembleTest, EmptyEnsembleRejectsPredict) {
  WeightedEnsemble ensemble;
  EXPECT_EQ(ensemble.PredictProba(MakeData()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EnsembleTest, FitIsUnsupported) {
  WeightedEnsemble ensemble;
  EXPECT_EQ(ensemble.Fit(MakeData(), {}).code(), StatusCode::kUnimplemented);
}

TEST(EnsembleTest, SchemaMismatchRejected) {
  const auto ensemble = OneMemberEnsemble(MakeData());
  Dataset other("wrong");
  other.AddNumericFeature("only", {1, 2, 3, 4});
  other.SetLabels({0, 1, 0, 1}, {"a", "b"});
  EXPECT_EQ(ensemble->PredictProba(other).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EnsembleTest, FailedFitLeavesEnsembleUnfitted) {
  const Dataset d = MakeData();
  const auto ensemble = OneMemberEnsemble(d);
  ASSERT_TRUE(ensemble->PredictProba(d).ok());
  ASSERT_FALSE(ensemble->Fit(d, {}).ok());
  EXPECT_EQ(ensemble->PredictProba(d).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EnsembleTest, CombinesMembersWithValidProbabilities) {
  const Dataset d = MakeData();
  auto ensemble = std::make_unique<WeightedEnsemble>();

  auto knn = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(knn->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  ensemble->AddMember(std::move(knn), 0.9);

  auto nb = std::make_unique<NaiveBayesClassifier>();
  ASSERT_TRUE(nb->Fit(d, NaiveBayesClassifier::Space().DefaultConfig()).ok());
  ensemble->AddMember(std::move(nb), 0.8);

  EXPECT_EQ(ensemble->NumMembers(), 2u);
  auto proba = ensemble->PredictProba(d);
  ASSERT_TRUE(proba.ok());
  for (const auto& p : *proba) {
    double sum = 0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(EnsembleTest, HighWeightMemberDominates) {
  const Dataset d = MakeData();
  // Member A: real model. Member B: same model but weighted 1000x less.
  auto a = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(a->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto a_pred = a->Predict(d);
  ASSERT_TRUE(a_pred.ok());

  auto b = std::make_unique<J48Classifier>();
  ASSERT_TRUE(b->Fit(d, J48Classifier::Space().DefaultConfig()).ok());

  WeightedEnsemble ensemble;
  ensemble.AddMember(std::move(a), 1.0);
  ensemble.AddMember(std::move(b), 1e-6);
  auto e_pred = ensemble.Predict(d);
  ASSERT_TRUE(e_pred.ok());
  EXPECT_EQ(*e_pred, *a_pred);  // B's vote is negligible.
}

TEST(EnsembleTest, ZeroAccuracyMemberStillGetsPositiveWeight) {
  // A degenerate 0-accuracy member must not break weight normalization.
  const Dataset d = MakeData();
  auto a = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(a->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto b = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(b->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  WeightedEnsemble ensemble;
  ensemble.AddMember(std::move(a), 0.0);
  ensemble.AddMember(std::move(b), 0.0);
  auto proba = ensemble.PredictProba(d);
  ASSERT_TRUE(proba.ok());
  for (const auto& p : *proba) {
    double sum = 0;
    for (double v : p) {
      EXPECT_TRUE(std::isfinite(v));
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(EnsembleTest, EnsembleAtLeastCompetitiveWithWeakestMember) {
  const Dataset d = MakeData(73);
  // Train members on one half, evaluate on the other.
  std::vector<size_t> first_half, second_half;
  for (size_t r = 0; r < d.NumRows(); ++r) {
    (r % 2 == 0 ? first_half : second_half).push_back(r);
  }
  const Dataset train = d.Subset(first_half);
  const Dataset test = d.Subset(second_half);

  WeightedEnsemble ensemble;
  double weakest = 1.0;
  const std::vector<std::unique_ptr<Classifier>> protos = [] {
    std::vector<std::unique_ptr<Classifier>> v;
    v.push_back(std::make_unique<KnnClassifier>());
    v.push_back(std::make_unique<NaiveBayesClassifier>());
    v.push_back(std::make_unique<J48Classifier>());
    return v;
  }();
  for (const auto& proto : protos) {
    auto member = proto->Clone();
    ASSERT_TRUE(member->Fit(train, ParamConfig()).ok());
    auto pred = member->Predict(test);
    ASSERT_TRUE(pred.ok());
    const double acc = Accuracy(test.labels(), *pred);
    weakest = std::min(weakest, acc);
    ensemble.AddMember(std::move(member), acc);
  }
  auto pred = ensemble.Predict(test);
  ASSERT_TRUE(pred.ok());
  const double ensemble_acc = Accuracy(test.labels(), *pred);
  EXPECT_GE(ensemble_acc, weakest - 0.05);
}

TEST(EnsembleTest, CombineOfStoredPredictionsEqualsPredictProba) {
  const Dataset d = MakeData();
  auto knn = std::make_shared<KnnClassifier>();
  ASSERT_TRUE(knn->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto nb = std::make_shared<NaiveBayesClassifier>();
  ASSERT_TRUE(nb->Fit(d, NaiveBayesClassifier::Space().DefaultConfig()).ok());
  WeightedEnsemble ensemble;
  ensemble.AddMember(knn, 0.7);
  ensemble.AddMember(nb, 0.9);
  EXPECT_EQ(ensemble.member(0).get(), knn.get());  // Shared, not copied.

  auto knn_proba = knn->PredictProba(d);
  auto nb_proba = nb->PredictProba(d);
  auto proba = ensemble.PredictProba(d);
  ASSERT_TRUE(knn_proba.ok() && nb_proba.ok() && proba.ok());
  EXPECT_EQ(ensemble.Combine({&*knn_proba, &*nb_proba}), *proba);
}

// ---------------------------------------------------------------------------
// EnsembleWeights on hand-built validation probabilities (no learners)
// ---------------------------------------------------------------------------

// Three validation rows with labels {0, 1, 1}. A is right on rows 0-1 and
// wrong on row 2; B predicts class 1 everywhere; C is always wrong. Dyadic
// values keep every running sum exact.
const std::vector<int> kLabels = {0, 1, 1};
const ProbaMatrix kA = {{0.75, 0.25}, {0.25, 0.75}, {0.625, 0.375}};
const ProbaMatrix kB = {{0.375, 0.625}, {0.25, 0.75}, {0.125, 0.875}};
const ProbaMatrix kC = {{0.25, 0.75}, {0.75, 0.25}, {0.75, 0.25}};

TEST(EnsembleWeightsTest, GreedyWeightsAreSelectionCounts) {
  const ProbaMatrix failed;  // This candidate's predict failed.
  // Nine rounds (2 x 4 candidates + 1). A and B tie alone at 2/3 and the
  // first wins; A + B gets every row right. From then on A is added unless
  // that would tie row 2's sums, where the argmax takes class 0; B is added
  // then. C never helps, and the failed candidate is never picked despite
  // its accuracy.
  const std::vector<double> weights = EnsembleWeights(
      EnsembleStrategy::kGreedy, {2.0 / 3, 2.0 / 3, 0.0, 1.0},
      {&kA, &kB, &kC, &failed}, kLabels, 2);
  EXPECT_EQ(weights, (std::vector<double>{6.0, 3.0, 0.0, 0.0}));
}

TEST(EnsembleWeightsTest, GreedyFallsBackToAccuracyBelowTwoMembers) {
  // D alone gets every row right and stays right however often it is
  // added; listed first, it also wins every tie. Greedy picks only D, which
  // is not an ensemble.
  const ProbaMatrix d = {{0.625, 0.375}, {0.375, 0.625}, {0.375, 0.625}};
  const std::vector<double> accuracy = {1.0, 2.0 / 3, 2.0 / 3};
  EXPECT_EQ(EnsembleWeights(EnsembleStrategy::kGreedy, accuracy,
                            {&d, &kA, &kB}, kLabels, 2),
            accuracy);
  // Nothing predicted at all: accuracy weights as well.
  const ProbaMatrix failed;
  EXPECT_EQ(EnsembleWeights(EnsembleStrategy::kGreedy, {0.5, 0.25},
                            {&failed, &failed}, kLabels, 2),
            (std::vector<double>{0.5, 0.25}));
}

TEST(EnsembleWeightsTest, SoftmaxSharpensTowardTheBestMember) {
  // Temperature 0.05: the best member weighs 1, and each 0.05 of accuracy
  // below it costs a factor of e.
  const std::vector<double> weights = EnsembleWeights(
      EnsembleStrategy::kSoftmax, {0.8, 0.9, 0.85}, {&kA, &kB, &kC}, kLabels,
      2);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights[1], 1.0);
  EXPECT_NEAR(weights[0], std::exp(-2.0), 1e-12);
  EXPECT_NEAR(weights[2], std::exp(-1.0), 1e-12);
  // Sharper than accuracy weighting: the best member's share grows.
  EXPECT_GT(weights[1] / (weights[0] + weights[1] + weights[2]), 0.9 / 2.55);
}

}  // namespace
}  // namespace smartml
