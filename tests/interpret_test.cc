// Tests for the interpretability module (permutation importance and partial
// dependence).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/data/synthetic.h"
#include "src/interpret/interpret.h"
#include "src/ml/forest.h"
#include "src/ml/knn.h"
#include "src/ml/registry.h"

namespace smartml {
namespace {

// Dataset where the informative features carry all the signal.
Dataset SignalAndNoise() {
  SyntheticSpec spec;
  spec.num_instances = 220;
  spec.num_informative = 2;
  spec.num_noise = 3;
  spec.num_classes = 2;
  spec.class_sep = 3.0;
  spec.seed = 55;
  return GenerateSynthetic(spec);
}

TEST(ImportanceTest, InformativeFeaturesRankAboveNoise) {
  const Dataset d = SignalAndNoise();
  RandomForestClassifier forest;
  ASSERT_TRUE(
      forest.Fit(d, RandomForestClassifier::Space().DefaultConfig()).ok());
  auto importances = PermutationImportance(forest, d, 3, 7);
  ASSERT_TRUE(importances.ok());
  ASSERT_EQ(importances->size(), 5u);
  // Sorted descending; the top two should be the informative features.
  EXPECT_GE((*importances)[0].importance, (*importances)[4].importance);
  int informative_in_top2 = 0;
  for (int i = 0; i < 2; ++i) {
    const std::string& name = (*importances)[static_cast<size_t>(i)].feature;
    if (name.rfind("inf", 0) == 0) ++informative_in_top2;
  }
  EXPECT_EQ(informative_in_top2, 2);
}

TEST(ImportanceTest, NoiseFeatureImportanceNearZero) {
  const Dataset d = SignalAndNoise();
  RandomForestClassifier forest;
  ASSERT_TRUE(
      forest.Fit(d, RandomForestClassifier::Space().DefaultConfig()).ok());
  auto importances = PermutationImportance(forest, d, 3, 7);
  ASSERT_TRUE(importances.ok());
  for (const auto& fi : *importances) {
    if (fi.feature.rfind("noise", 0) == 0) {
      EXPECT_NEAR(fi.importance, 0.0, 0.06) << fi.feature;
    }
  }
}

TEST(ImportanceTest, TinyDatasetRejected) {
  Dataset d;
  d.AddNumericFeature("x", {1});
  d.SetLabels({0}, {"a"});
  KnnClassifier knn;
  EXPECT_FALSE(PermutationImportance(knn, d).ok());
}

// A table with categorical columns (multiway splits under c50), missing
// cells, and a constant column no tree can split on.
Dataset MixedTable(uint64_t seed) {
  SyntheticSpec spec;
  spec.num_instances = 240;
  spec.num_informative = 3;
  spec.num_noise = 1;
  spec.num_categorical = 2;
  spec.num_classes = 3;
  spec.class_sep = 1.2;
  spec.missing_fraction = 0.08;
  spec.seed = seed;
  Dataset d = GenerateSynthetic(spec);
  d.AddNumericFeature("flat", std::vector<double>(d.NumRows(), 1.0));
  return d;
}

// Forwards PredictProba to a fitted model but exposes no trees, so
// PermutationImportance takes its generic path on the same predictions.
class OpaqueModel : public Classifier {
 public:
  explicit OpaqueModel(const Classifier& inner) : inner_(inner) {
    MarkFitted(inner.num_features(), inner.num_classes());
  }
  std::string name() const override { return "opaque"; }
  std::unique_ptr<Classifier> Clone() const override {
    return inner_.Clone();
  }

 private:
  Status FitImpl(const Dataset&, const ParamConfig&) override {
    return Status::Unimplemented("opaque: wraps a fitted model");
  }
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override {
    return inner_.PredictProba(data);
  }

  const Classifier& inner_;
};

struct VoteCase {
  std::string label;
  std::string algorithm;
  ParamConfig config;
};

void PrintTo(const VoteCase& c, std::ostream* os) { *os << c.label; }

ParamConfig Defaults(const std::string& algorithm) {
  return SpaceFor(algorithm)->DefaultConfig();
}

VoteCase Forest() {
  ParamConfig config = Defaults("random_forest");
  config.SetInt("ntree", 40);
  return {"random_forest", "random_forest", config};
}

VoteCase Bagging() {
  ParamConfig config = Defaults("bagging");
  config.SetInt("nbagg", 15);
  config.SetDouble("cp", 0.001);
  return {"bagging", "bagging", config};
}

VoteCase C50(bool winnow) {
  ParamConfig config = Defaults("c50");
  if (winnow) {
    config.SetChoice("winnow", "yes");
    config.SetDouble("CF", 0.05);
  } else {
    config.SetInt("trials", 8);
    config.SetChoice("earlyStopping", "no");
  }
  return {winnow ? "c50_winnowed" : "c50_boosted", "c50", config};
}

VoteCase DeepBoost() {
  ParamConfig config = Defaults("deepboost");
  config.SetInt("num_iter", 12);
  config.SetInt("tree_depth", 4);
  return {"deepboost", "deepboost", config};
}

class CachedImportanceTest : public testing::TestWithParam<VoteCase> {};

// The cached-leaf path must give the generic path's importances bit for
// bit: same features, same order, same doubles.
TEST_P(CachedImportanceTest, EqualsTheGenericPath) {
  const VoteCase& c = GetParam();
  const Dataset train = MixedTable(61);
  const Dataset validation = MixedTable(62);
  auto created = CreateClassifier(c.algorithm);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Classifier> model = std::move(*created);
  ASSERT_TRUE(model->Fit(train, c.config).ok());
  ASSERT_FALSE(model->tree_vote().trees.empty());
  const OpaqueModel opaque(*model);
  ASSERT_TRUE(opaque.tree_vote().trees.empty());

  for (int repeats : {1, 3}) {
    SCOPED_TRACE(repeats);
    auto cached = PermutationImportance(*model, validation, repeats, 5);
    auto generic = PermutationImportance(opaque, validation, repeats, 5);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ASSERT_TRUE(generic.ok()) << generic.status().ToString();
    ASSERT_EQ(cached->size(), validation.NumFeatures());
    ASSERT_EQ(cached->size(), generic->size());
    bool any_informative = false;
    for (size_t i = 0; i < cached->size(); ++i) {
      EXPECT_EQ((*cached)[i].feature, (*generic)[i].feature) << i;
      EXPECT_EQ((*cached)[i].importance, (*generic)[i].importance) << i;
      if ((*cached)[i].feature == "flat") {
        EXPECT_EQ((*cached)[i].importance, 0.0);
      }
      any_informative = any_informative || (*cached)[i].importance != 0.0;
    }
    EXPECT_TRUE(any_informative);
  }
}

INSTANTIATE_TEST_SUITE_P(TreeVoteLearners, CachedImportanceTest,
                         testing::Values(Forest(), Bagging(), C50(false),
                                         C50(true), DeepBoost()),
                         [](const auto& info) { return info.param.label; });

TEST(PdpTest, ProducesGridOfRequestedSize) {
  const Dataset d = SignalAndNoise();
  KnnClassifier knn;
  ASSERT_TRUE(knn.Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto pd = ComputePartialDependence(knn, d, 0, 1, 10);
  ASSERT_TRUE(pd.ok());
  EXPECT_EQ(pd->grid.size(), 10u);
  EXPECT_EQ(pd->mean_probability.size(), 10u);
  for (double p : pd->mean_probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Grid is increasing.
  for (size_t i = 1; i < pd->grid.size(); ++i) {
    EXPECT_GT(pd->grid[i], pd->grid[i - 1]);
  }
}

TEST(PdpTest, InformativeFeatureMovesProbability) {
  const Dataset d = SignalAndNoise();
  RandomForestClassifier forest;
  ASSERT_TRUE(
      forest.Fit(d, RandomForestClassifier::Space().DefaultConfig()).ok());
  auto pd = ComputePartialDependence(forest, d, 0, 1, 8);
  ASSERT_TRUE(pd.ok());
  double lo = 1.0, hi = 0.0;
  for (double p : pd->mean_probability) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi - lo, 0.1);  // Sweeping an informative feature matters.
}

TEST(PdpTest, RejectsCategoricalAndOutOfRange) {
  Dataset d;
  d.AddCategoricalFeature("c", {0, 1, 0, 1}, {"a", "b"});
  d.SetLabels({0, 1, 0, 1}, {"x", "y"});
  KnnClassifier knn;
  ASSERT_TRUE(knn.Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  EXPECT_FALSE(ComputePartialDependence(knn, d, 0, 0).ok());
  EXPECT_FALSE(ComputePartialDependence(knn, d, 5, 0).ok());
}

}  // namespace
}  // namespace smartml
