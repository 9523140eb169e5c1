#include "src/ml/knn.h"

#include <algorithm>
#include <cmath>

namespace smartml {

ParamSpace KnnClassifier::Space() {
  ParamSpace space;
  space.AddInt("k", 1, 50, 5, /*log_scale=*/true);
  return space;
}

Status KnnClassifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  k_ = static_cast<int>(config.GetInt("k", 5));
  k_ = std::clamp<int>(k_, 1, static_cast<int>(train.NumRows()));
  distance_weighted_ = config.GetChoice("weighted", "no") == "yes";
  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/true));
  SMARTML_ASSIGN_OR_RETURN(train_x_, encoder_.Transform(train));
  train_y_ = train.labels();
  return Status::OK();
}

StatusOr<ProbaMatrix> KnnClassifier::PredictProbaImpl(
    const Dataset& data) const {
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  const size_t n = x.rows();
  const size_t m = train_x_.rows();
  const size_t d = train_x_.cols();
  const auto k = static_cast<size_t>(k_);

  ProbaMatrix out(n,
                  std::vector<double>(static_cast<size_t>(num_classes()), 0.0));
  std::vector<std::pair<double, int>> dist(m);
  for (size_t i = 0; i < n; ++i) {
    const double* q = x.RowPtr(i);
    for (size_t j = 0; j < m; ++j) {
      const double* t = train_x_.RowPtr(j);
      double acc = 0.0;
      for (size_t c = 0; c < d; ++c) {
        const double diff = q[c] - t[c];
        acc += diff * diff;
      }
      dist[j] = {acc, train_y_[j]};
    }
    std::partial_sort(dist.begin(), dist.begin() + static_cast<ptrdiff_t>(k),
                      dist.end());
    for (size_t j = 0; j < k; ++j) {
      const double weight =
          distance_weighted_ ? 1.0 / (std::sqrt(dist[j].first) + 1e-9) : 1.0;
      out[i][static_cast<size_t>(dist[j].second)] += weight;
    }
    NormalizeProba(&out[i]);
  }
  return out;
}

}  // namespace smartml
