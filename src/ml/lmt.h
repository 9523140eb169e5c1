// Logistic model tree (RWeka's LMT): a decision tree whose leaves hold
// multinomial logistic regression models over the numeric feature encoding.
#ifndef SMARTML_ML_LMT_H_
#define SMARTML_ML_LMT_H_

#include <unordered_map>

#include "src/ml/classifier.h"
#include "src/ml/decision_tree.h"
#include "src/ml/encoding.h"
#include "src/ml/logistic.h"
#include "src/tuning/param_space.h"

namespace smartml {

class LmtClassifier : public Classifier {
 public:
  /// Table 3 space (0 categorical + 1 numeric): minimum instances per leaf M.
  static ParamSpace Space();

  std::string name() const override { return "lmt"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LmtClassifier>();
  }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  DecisionTree tree_;
  NumericEncoder encoder_;
  std::unordered_map<int, LogisticModel> leaf_models_;  // Keyed by leaf index.
  LogisticModel root_model_;  // Fallback for leaves too small to fit.
};

}  // namespace smartml

#endif  // SMARTML_ML_LMT_H_
