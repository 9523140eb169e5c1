// Kernel SVM trained with SMO (paper: e1071 package, 1 categorical + 4
// numeric hyperparameters: kernel, C, gamma, degree, coef0).
//
// Multi-class handling is one-vs-one with vote aggregation, matching
// libsvm/e1071. Probabilities are normalized pairwise vote shares.
#ifndef SMARTML_ML_SVM_H_
#define SMARTML_ML_SVM_H_

#include "src/ml/classifier.h"
#include "src/ml/encoding.h"
#include "src/tuning/param_space.h"

namespace smartml {

class SvmClassifier : public Classifier {
 public:
  /// Table 3 space (1 categorical + 4 numeric): kernel, C, gamma, degree,
  /// coef0, with libsvm-style conditionality (gamma only for rbf/poly/
  /// sigmoid, degree only for poly, coef0 for poly/sigmoid).
  static ParamSpace Space();

  std::string name() const override { return "svm"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<SvmClassifier>();
  }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  enum class Kernel { kLinear, kRbf, kPoly, kSigmoid };

  /// One binary one-vs-one machine over rows of the encoded training matrix.
  struct BinaryMachine {
    int positive_class = 0;
    int negative_class = 0;
    std::vector<size_t> support_rows;   // Indices into train_x_.
    std::vector<double> alpha_y;        // alpha_i * y_i per support vector.
    double bias = 0.0;
  };

  double KernelValue(const double* a, const double* b, size_t d) const;
  BinaryMachine TrainBinary(const std::vector<size_t>& rows,
                            const std::vector<int>& signs, int pos, int neg,
                            uint64_t seed) const;

  NumericEncoder encoder_;
  Matrix train_x_;
  std::vector<BinaryMachine> machines_;
  Kernel kernel_ = Kernel::kRbf;
  double c_ = 1.0;
  double gamma_ = 0.1;
  double coef0_ = 0.0;
  int degree_ = 3;
};

}  // namespace smartml

#endif  // SMARTML_ML_SVM_H_
