// Boosted tree classifiers: C5.0-style boosting (C50 package) and DeepBoost
// (margin-regularized boosting of deep trees, deepboost package).
#ifndef SMARTML_ML_BOOSTING_H_
#define SMARTML_ML_BOOSTING_H_

#include "src/ml/classifier.h"
#include "src/ml/decision_tree.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// C5.0: SAMME-boosted C4.5 trees with optional winnowing (feature
/// screening), rules mode, and early stopping.
class C50Classifier : public TreeVoteClassifier {
 public:
  /// Table 3 space (3 categorical + 2 numeric): winnow, rules,
  /// earlyStopping switches plus trials and CF.
  static ParamSpace Space();

  std::string name() const override { return "c50"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<C50Classifier>();
  }

  size_t NumRounds() const { return trees_.size(); }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;

  std::vector<bool> active_features_;  // Winnowing mask.
};

/// DeepBoost: boosting over depth-limited trees where each tree's vote
/// weight is shrunk by a complexity-dependent regularizer
/// (lambda * size-penalty + beta), following Cortes-Mohri-Syed (2014) in a
/// multi-class SAMME formulation.
class DeepBoostClassifier : public TreeVoteClassifier {
 public:
  /// Table 3 space (1 categorical + 4 numeric): loss_type plus num_iter,
  /// beta, lambda, tree_depth.
  static ParamSpace Space();

  std::string name() const override { return "deepboost"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<DeepBoostClassifier>();
  }

  size_t NumRounds() const { return trees_.size(); }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
};

}  // namespace smartml

#endif  // SMARTML_ML_BOOSTING_H_
