// Naive Bayes classifier (paper: klaR package, 2 numeric hyperparameters:
// Laplace smoothing and kernel-bandwidth adjustment).
//
// Numeric features get class-conditional Gaussians whose variance is widened
// by the `adjust` factor (the klaR density-bandwidth analogue); categorical
// features get Laplace-smoothed frequency tables.
#ifndef SMARTML_ML_NAIVE_BAYES_H_
#define SMARTML_ML_NAIVE_BAYES_H_

#include "src/ml/classifier.h"
#include "src/tuning/param_space.h"

namespace smartml {

class NaiveBayesClassifier : public Classifier {
 public:
  /// Table 3 space (0 categorical + 2 numeric): laplace in [0, 10],
  /// adjust in [0.25, 4] (log).
  static ParamSpace Space();

  std::string name() const override { return "naive_bayes"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<NaiveBayesClassifier>();
  }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  struct NumericStats {
    std::vector<double> mean;    // Per class.
    std::vector<double> stddev;  // Per class.
  };
  struct CategoricalStats {
    // log P(category | class): [class][category]; last slot = unseen.
    std::vector<std::vector<double>> log_prob;
  };

  std::vector<bool> is_categorical_;
  std::vector<double> log_prior_;
  std::vector<NumericStats> numeric_;          // Indexed by feature.
  std::vector<CategoricalStats> categorical_;  // Indexed by feature.
};

}  // namespace smartml

#endif  // SMARTML_ML_NAIVE_BAYES_H_
