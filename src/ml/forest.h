// Bootstrap ensembles of trees: RandomForest (randomForest package) and
// Bagging of CART trees (ipred package).
#ifndef SMARTML_ML_FOREST_H_
#define SMARTML_ML_FOREST_H_

#include "src/ml/classifier.h"
#include "src/ml/decision_tree.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// Random forest: bootstrap samples + per-split random feature subsets.
class RandomForestClassifier : public TreeVoteClassifier {
 public:
  /// Table 3 space (0 categorical + 3 numeric): ntree, mtry_frac, nodesize.
  static ParamSpace Space();

  std::string name() const override { return "random_forest"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RandomForestClassifier>();
  }

  size_t NumTrees() const { return trees_.size(); }

  /// Mean impurity-decrease importances across trees.
  std::vector<double> FeatureImportances() const;

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
};

/// Bagging: bootstrap samples of full (deterministic-split) CART trees.
class BaggingClassifier : public TreeVoteClassifier {
 public:
  /// Table 3 space (0 categorical + 5 numeric): nbagg, minsplit, maxdepth,
  /// cp, subsample.
  static ParamSpace Space();

  std::string name() const override { return "bagging"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<BaggingClassifier>();
  }

  size_t NumTrees() const { return trees_.size(); }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
};

}  // namespace smartml

#endif  // SMARTML_ML_FOREST_H_
