// Single-hidden-layer neural network (the nnet package: logistic hidden
// units, softmax output, weight decay).
#ifndef SMARTML_ML_NEURALNET_H_
#define SMARTML_ML_NEURALNET_H_

#include "src/ml/classifier.h"
#include "src/ml/encoding.h"
#include "src/tuning/param_space.h"

namespace smartml {

class NeuralNetClassifier : public Classifier {
 public:
  /// Table 3 space (0 categorical + 1 numeric): hidden layer size. Weight
  /// decay and iteration count follow nnet defaults internally.
  static ParamSpace Space();

  std::string name() const override { return "neuralnet"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<NeuralNetClassifier>();
  }

  int hidden_size() const { return hidden_; }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  NumericEncoder encoder_;
  int hidden_ = 8;
  size_t input_dim_ = 0;
  // w1_[h * (d+1) + j] (j = d is bias); w2_[k * (hidden+1) + h].
  std::vector<double> w1_;
  std::vector<double> w2_;
};

}  // namespace smartml

#endif  // SMARTML_ML_NEURALNET_H_
