#include "src/ml/neuralnet.h"

#include <algorithm>
#include <cmath>

#include "src/common/cancellation.h"
#include "src/common/rng.h"

namespace smartml {

ParamSpace NeuralNetClassifier::Space() {
  ParamSpace space;
  space.AddInt("size", 1, 40, 8, /*log_scale=*/true);
  return space;
}

Status NeuralNetClassifier::FitImpl(const Dataset& train,
                                    const ParamConfig& config) {
  if (train.NumRows() < 2) {
    return Status::InvalidArgument("neuralnet: need at least 2 rows");
  }
  hidden_ = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("size", 8), 1, 200));
  const double decay = std::clamp(config.GetDouble("decay", 1e-4), 0.0, 1.0);
  const int max_iters = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("maxit", 250), 10, 5000));

  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/true));
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(train));
  input_dim_ = x.cols();
  const size_t n = x.rows();
  const size_t d = input_dim_;
  const auto h = static_cast<size_t>(hidden_);
  const size_t k = train.NumClasses();

  Rng rng(static_cast<uint64_t>(config.GetInt("seed", 41)));
  const double init_scale = 0.7 / std::sqrt(static_cast<double>(d + 1));
  w1_.resize(h * (d + 1));
  for (double& v : w1_) v = rng.Normal() * init_scale;
  w2_.resize(k * (h + 1));
  const double init2 = 0.7 / std::sqrt(static_cast<double>(h + 1));
  for (double& v : w2_) v = rng.Normal() * init2;

  // Adam optimizer over full-batch gradients.
  std::vector<double> g1(w1_.size()), g2(w2_.size());
  std::vector<double> m1(w1_.size(), 0.0), v1(w1_.size(), 0.0);
  std::vector<double> m2(w2_.size(), 0.0), v2(w2_.size(), 0.0);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double lr = 0.05;

  std::vector<double> hidden_act(h);
  std::vector<double> logits(k), proba(k), delta_out(k), delta_hidden(h);

  for (int iter = 1; iter <= max_iters; ++iter) {
    if (CancellationRequested()) {
      return Status::Cancelled("neuralnet: fit cancelled");
    }
    std::fill(g1.begin(), g1.end(), 0.0);
    std::fill(g2.begin(), g2.end(), 0.0);
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.RowPtr(r);
      // Forward.
      for (size_t j = 0; j < h; ++j) {
        const double* w = &w1_[j * (d + 1)];
        double acc = w[d];
        for (size_t c = 0; c < d; ++c) acc += w[c] * row[c];
        hidden_act[j] = 1.0 / (1.0 + std::exp(-acc));
      }
      for (size_t c = 0; c < k; ++c) {
        const double* w = &w2_[c * (h + 1)];
        double acc = w[h];
        for (size_t j = 0; j < h; ++j) acc += w[j] * hidden_act[j];
        logits[c] = acc;
      }
      const double max_logit =
          *std::max_element(logits.begin(), logits.end());
      double total = 0.0;
      for (size_t c = 0; c < k; ++c) {
        proba[c] = std::exp(logits[c] - max_logit);
        total += proba[c];
      }
      for (double& p : proba) p /= total;
      // Backward.
      const auto label = static_cast<size_t>(train.label(r));
      for (size_t c = 0; c < k; ++c) {
        delta_out[c] = proba[c] - (c == label ? 1.0 : 0.0);
      }
      std::fill(delta_hidden.begin(), delta_hidden.end(), 0.0);
      for (size_t c = 0; c < k; ++c) {
        double* g = &g2[c * (h + 1)];
        const double dc = delta_out[c];
        const double* w = &w2_[c * (h + 1)];
        for (size_t j = 0; j < h; ++j) {
          g[j] += dc * hidden_act[j];
          delta_hidden[j] += dc * w[j];
        }
        g[h] += dc;
      }
      for (size_t j = 0; j < h; ++j) {
        const double dh =
            delta_hidden[j] * hidden_act[j] * (1.0 - hidden_act[j]);
        double* g = &g1[j * (d + 1)];
        for (size_t c = 0; c < d; ++c) g[c] += dh * row[c];
        g[d] += dh;
      }
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < g1.size(); ++i) {
      g1[i] = g1[i] * inv_n + decay * w1_[i];
    }
    for (size_t i = 0; i < g2.size(); ++i) {
      g2[i] = g2[i] * inv_n + decay * w2_[i];
    }
    // Adam step.
    const double bc1 = 1.0 - std::pow(beta1, iter);
    const double bc2 = 1.0 - std::pow(beta2, iter);
    for (size_t i = 0; i < w1_.size(); ++i) {
      m1[i] = beta1 * m1[i] + (1 - beta1) * g1[i];
      v1[i] = beta2 * v1[i] + (1 - beta2) * g1[i] * g1[i];
      w1_[i] -= lr * (m1[i] / bc1) / (std::sqrt(v1[i] / bc2) + eps);
    }
    for (size_t i = 0; i < w2_.size(); ++i) {
      m2[i] = beta1 * m2[i] + (1 - beta1) * g2[i];
      v2[i] = beta2 * v2[i] + (1 - beta2) * g2[i] * g2[i];
      w2_[i] -= lr * (m2[i] / bc1) / (std::sqrt(v2[i] / bc2) + eps);
    }
  }
  return Status::OK();
}

StatusOr<ProbaMatrix> NeuralNetClassifier::PredictProbaImpl(
    const Dataset& data) const {
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  const size_t d = input_dim_;
  const auto h = static_cast<size_t>(hidden_);
  const auto k = static_cast<size_t>(num_classes());
  std::vector<std::vector<double>> out(x.rows(), std::vector<double>(k));
  std::vector<double> hidden_act(h), logits(k);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    for (size_t j = 0; j < h; ++j) {
      const double* w = &w1_[j * (d + 1)];
      double acc = w[d];
      for (size_t c = 0; c < d; ++c) acc += w[c] * row[c];
      hidden_act[j] = 1.0 / (1.0 + std::exp(-acc));
    }
    for (size_t c = 0; c < k; ++c) {
      const double* w = &w2_[c * (h + 1)];
      double acc = w[h];
      for (size_t j = 0; j < h; ++j) acc += w[j] * hidden_act[j];
      logits[c] = acc;
    }
    const double max_logit = *std::max_element(logits.begin(), logits.end());
    double total = 0.0;
    for (size_t c = 0; c < k; ++c) {
      out[r][c] = std::exp(logits[c] - max_logit);
      total += out[r][c];
    }
    for (double& p : out[r]) p /= total;
  }
  return out;
}

}  // namespace smartml
