// Single-tree classifiers: J48 (C4.5, RWeka), rpart (CART), and PART
// (rule lists from partial C4.5 trees, RWeka).
#ifndef SMARTML_ML_TREE_CLASSIFIERS_H_
#define SMARTML_ML_TREE_CLASSIFIERS_H_

#include "src/ml/classifier.h"
#include "src/ml/decision_tree.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// C4.5 decision tree: gain-ratio splits, multiway categorical splits,
/// confidence-factor error-based pruning.
class J48Classifier : public Classifier {
 public:
  /// Table 3 space (1 categorical + 2 numeric): unpruned switch, confidence
  /// factor C, minimum leaf size M.
  static ParamSpace Space();

  std::string name() const override { return "j48"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<J48Classifier>();
  }

  const DecisionTree& tree() const { return tree_; }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  DecisionTree tree_;
};

/// CART tree with Gini splits and cost-complexity-style pre-pruning (cp).
class RpartClassifier : public Classifier {
 public:
  /// Table 3 space (0 categorical + 4 numeric): cp, minsplit, minbucket,
  /// maxdepth.
  static ParamSpace Space();

  std::string name() const override { return "rpart"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RpartClassifier>();
  }

  const DecisionTree& tree() const { return tree_; }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  DecisionTree tree_;
};

/// PART rule learner: repeatedly grows a pruned C4.5 tree on the instances
/// not yet covered, turns the highest-coverage leaf into the next rule, and
/// removes the covered instances. Prediction fires the first matching rule.
class PartClassifier : public Classifier {
 public:
  /// Table 3 space (1 categorical + 2 numeric): pruned switch, confidence
  /// factor, minimum instances per rule.
  static ParamSpace Space();

  std::string name() const override { return "part"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<PartClassifier>();
  }

  size_t NumRules() const { return rules_.size(); }

  /// Human-readable rule list (for the interpretability report).
  std::vector<std::string> RuleStrings(const Dataset& schema_source) const;

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  struct Rule {
    std::vector<TreeCondition> conditions;  // Empty = default rule.
    std::vector<double> proba;
    int majority = 0;
  };

  static bool Matches(const Rule& rule, const double* row);

  std::vector<Rule> rules_;
};

}  // namespace smartml

#endif  // SMARTML_ML_TREE_CLASSIFIERS_H_
