// Partial least squares discriminant analysis (caret's plsda: PLS2 via
// NIPALS on a one-hot class indicator matrix).
#ifndef SMARTML_ML_PLSDA_H_
#define SMARTML_ML_PLSDA_H_

#include "src/ml/classifier.h"
#include "src/ml/encoding.h"
#include "src/tuning/param_space.h"

namespace smartml {

class PlsdaClassifier : public Classifier {
 public:
  /// Table 3 space (1 categorical + 1 numeric): probMethod
  /// (softmax/bayes) and ncomp.
  static ParamSpace Space();

  std::string name() const override { return "plsda"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<PlsdaClassifier>();
  }

  int num_components() const { return ncomp_; }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  /// Projects a centered row onto the latent components.
  std::vector<double> LatentScores(const double* row) const;

  NumericEncoder encoder_;
  int ncomp_ = 2;
  bool bayes_ = false;

  std::vector<double> x_mean_;
  std::vector<double> y_mean_;
  Matrix weights_;      // d x ncomp (W*, already P-adjusted for direct use).
  Matrix loadings_q_;   // K x ncomp.
  // Bayes mode: per-class Gaussian over latent scores.
  std::vector<std::vector<double>> score_mean_;    // [class][comp]
  std::vector<std::vector<double>> score_stddev_;  // [class][comp]
  std::vector<double> log_prior_;
};

}  // namespace smartml

#endif  // SMARTML_ML_PLSDA_H_
