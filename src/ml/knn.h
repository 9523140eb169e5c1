// k-nearest-neighbour classifier (paper: FNN package, 1 numeric
// hyperparameter "k").
#ifndef SMARTML_ML_KNN_H_
#define SMARTML_ML_KNN_H_

#include "src/ml/classifier.h"
#include "src/ml/encoding.h"
#include "src/tuning/param_space.h"

namespace smartml {

class KnnClassifier : public Classifier {
 public:
  /// Table 3 space: k in [1, 50] (log scale), plus a distance-weighting
  /// switch kept fixed-off by default to preserve the paper's 0+1 count.
  static ParamSpace Space();

  std::string name() const override { return "knn"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<KnnClassifier>();
  }

 private:
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  NumericEncoder encoder_;
  Matrix train_x_;
  std::vector<int> train_y_;
  int k_ = 5;
  bool distance_weighted_ = false;
};

}  // namespace smartml

#endif  // SMARTML_ML_KNN_H_
