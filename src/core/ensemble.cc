#include "src/core/ensemble.h"

#include <algorithm>
#include <cmath>

namespace smartml {

std::vector<double> EnsembleWeights(
    EnsembleStrategy strategy, const std::vector<double>& accuracy,
    const std::vector<const ProbaMatrix*>& validation_proba,
    const std::vector<int>& labels, size_t num_classes) {
  const size_t pool = accuracy.size();
  std::vector<double> weights(pool, 0.0);
  switch (strategy) {
    case EnsembleStrategy::kAccuracyWeighted:
      return accuracy;
    case EnsembleStrategy::kSoftmax: {
      // Sharpen toward the best member (temperature 0.05).
      const double best =
          pool == 0 ? 0.0 : *std::max_element(accuracy.begin(), accuracy.end());
      for (size_t i = 0; i < pool; ++i) {
        weights[i] = std::exp((accuracy[i] - best) / 0.05);
      }
      return weights;
    }
    case EnsembleStrategy::kGreedy:
      break;
  }
  // Caruana forward selection with replacement on the validation partition:
  // repeatedly add the member that most improves the running probability
  // sum. Weights = selection counts.
  const size_t rows = labels.size();
  ProbaMatrix running(rows, std::vector<double>(num_classes, 0.0));
  double picked_total = 0.0;
  const int rounds = 2 * static_cast<int>(pool) + 1;
  for (int round = 0; round < rounds; ++round) {
    int best_member = -1;
    double best_accuracy = -1.0;
    for (size_t m = 0; m < pool; ++m) {
      const ProbaMatrix& proba = *validation_proba[m];
      if (proba.empty()) continue;
      size_t hits = 0;
      for (size_t r = 0; r < rows; ++r) {
        int arg = 0;
        double top = -1.0;
        for (size_t k = 0; k < num_classes; ++k) {
          const double v = running[r][k] + proba[r][k];
          if (v > top) {
            top = v;
            arg = static_cast<int>(k);
          }
        }
        if (arg == labels[r]) ++hits;
      }
      const double round_accuracy =
          static_cast<double>(hits) / static_cast<double>(rows);
      if (round_accuracy > best_accuracy) {
        best_accuracy = round_accuracy;
        best_member = static_cast<int>(m);
      }
    }
    if (best_member < 0) break;
    const ProbaMatrix& picked =
        *validation_proba[static_cast<size_t>(best_member)];
    for (size_t r = 0; r < rows; ++r) {
      for (size_t k = 0; k < num_classes; ++k) running[r][k] += picked[r][k];
    }
    weights[static_cast<size_t>(best_member)] += 1.0;
    picked_total += 1.0;
  }
  // Greedy can legitimately concentrate on one dominant member; an
  // "ensemble" needs >= 2, so fall back to accuracy weights then.
  const auto selected = std::count_if(weights.begin(), weights.end(),
                                      [](double w) { return w > 0.0; });
  return picked_total == 0.0 || selected < 2 ? accuracy : weights;
}

void WeightedEnsemble::AddMember(std::shared_ptr<const Classifier> model,
                                 double accuracy) {
  if (members_.empty()) MarkFitted(model->num_features(), model->num_classes());
  members_.push_back(std::move(model));
  // Clamp so a 0-accuracy member cannot zero out, which would break
  // normalization for degenerate validation sets.
  weights_.push_back(accuracy > 1e-6 ? accuracy : 1e-6);
}

Status WeightedEnsemble::FitImpl(const Dataset& /*train*/,
                                 const ParamConfig& /*config*/) {
  return Status::Unimplemented(
      "WeightedEnsemble members are trained individually; use AddMember");
}

StatusOr<ProbaMatrix> WeightedEnsemble::PredictProbaImpl(
    const Dataset& data) const {
  std::vector<ProbaMatrix> proba(members_.size());
  std::vector<const ProbaMatrix*> views;
  for (size_t m = 0; m < members_.size(); ++m) {
    SMARTML_ASSIGN_OR_RETURN(proba[m], members_[m]->PredictProba(data));
    views.push_back(&proba[m]);
  }
  return Combine(views);
}

ProbaMatrix WeightedEnsemble::Combine(
    const std::vector<const ProbaMatrix*>& proba) const {
  double total_weight = 0.0;
  for (double w : weights_) total_weight += w;

  ProbaMatrix out;
  for (size_t m = 0; m < proba.size(); ++m) {
    const ProbaMatrix& member = *proba[m];
    const double w = weights_[m] / total_weight;
    if (out.empty()) {
      out.assign(member.size(), {});
      for (size_t r = 0; r < member.size(); ++r) {
        out[r].assign(member[r].size(), 0.0);
      }
    }
    for (size_t r = 0; r < member.size(); ++r) {
      for (size_t k = 0; k < member[r].size() && k < out[r].size(); ++k) {
        out[r][k] += w * member[r][k];
      }
    }
  }
  for (auto& p : out) NormalizeProba(&p);
  return out;
}

}  // namespace smartml
