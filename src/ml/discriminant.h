// Gaussian discriminant classifiers: LDA (MASS package) and RDA (klaR
// package, Friedman's regularized discriminant analysis).
#ifndef SMARTML_ML_DISCRIMINANT_H_
#define SMARTML_ML_DISCRIMINANT_H_

#include "src/ml/classifier.h"
#include "src/ml/encoding.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// Linear discriminant analysis: shared covariance, linear decision surface.
class LdaClassifier : public Classifier {
 public:
  /// Table 3 space (1 categorical + 1 numeric): estimation method
  /// (moment/mle) and the singularity tolerance `tol`.
  static ParamSpace Space();

  std::string name() const override { return "lda"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LdaClassifier>();
  }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  NumericEncoder encoder_;
  Matrix sigma_inverse_;
  std::vector<std::vector<double>> means_;  // Per class.
  std::vector<double> log_prior_;
};

/// Regularized discriminant analysis: per-class covariances shrunk toward
/// the pooled covariance (lambda) and toward a scaled identity (gamma),
/// spanning QDA (0,0) .. LDA (1,0) .. nearest-means (1,1).
class RdaClassifier : public Classifier {
 public:
  /// Table 3 space (0 categorical + 2 numeric): gamma, lambda in [0, 1].
  static ParamSpace Space();

  std::string name() const override { return "rda"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RdaClassifier>();
  }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  NumericEncoder encoder_;
  std::vector<Matrix> sigma_inverse_;     // Per class.
  std::vector<double> log_det_;           // Per class.
  std::vector<std::vector<double>> means_;
  std::vector<double> log_prior_;
};

}  // namespace smartml

#endif  // SMARTML_ML_DISCRIMINANT_H_
