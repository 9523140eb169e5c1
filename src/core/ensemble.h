// Weighted ensembling of the top tuned models (paper §2: "a weighted
// ensembling output of the top performing algorithms can be recommended to
// the end user", citing Dietterich 2000).
#ifndef SMARTML_CORE_ENSEMBLE_H_
#define SMARTML_CORE_ENSEMBLE_H_

#include <memory>
#include <vector>

#include "src/ml/classifier.h"

namespace smartml {

/// How member weights are chosen (Dietterich 2000 leaves this open):
/// accuracy-proportional, softmax-sharpened, or Caruana-style greedy
/// forward selection on the validation partition.
enum class EnsembleStrategy { kAccuracyWeighted, kSoftmax, kGreedy };

/// Member weights under `strategy`, one per candidate. `accuracy[m]` is
/// candidate m's validation accuracy; `validation_proba[m]` its class
/// probabilities on the validation rows whose labels are `labels` (empty
/// when its predict failed: greedy never picks it). A zero weight leaves
/// the candidate out of the ensemble.
std::vector<double> EnsembleWeights(
    EnsembleStrategy strategy, const std::vector<double>& accuracy,
    const std::vector<const ProbaMatrix*>& validation_proba,
    const std::vector<int>& labels, size_t num_classes);

/// A probability-averaging ensemble whose member weights are proportional to
/// validation accuracy. Members are already-trained classifiers, shared with
/// whoever else holds them (SmartMlResult::best_model is one of them).
class WeightedEnsemble : public Classifier {
 public:
  /// Adds a trained member with its validation accuracy. Weights are
  /// normalized lazily at prediction time. The first member's training
  /// schema becomes the ensemble's, and marks the ensemble fitted.
  void AddMember(std::shared_ptr<const Classifier> model, double accuracy);

  size_t NumMembers() const { return members_.size(); }
  /// Member `i`, in AddMember order (the object itself, not a copy).
  const std::shared_ptr<const Classifier>& member(size_t i) const {
    return members_[i];
  }
  const std::vector<double>& weights() const { return weights_; }

  std::string name() const override { return "weighted_ensemble"; }

  /// The weighted average of the members' probabilities (`proba[m]` from
  /// member m, non-empty), rows renormalized. Scoring stored member
  /// predictions through this equals scoring PredictProba.
  ProbaMatrix Combine(const std::vector<const ProbaMatrix*>& proba) const;

  /// Cloning an ensemble of trained members is not supported; returns an
  /// empty ensemble (interface requirement only).
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<WeightedEnsemble>();
  }

 private:
  /// Fit is not supported (Unimplemented): members arrive pre-trained.
  Status FitImpl(const Dataset& train, const ParamConfig& config) override;

  /// Each member's PredictProba, then Combine.
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const override;

  std::vector<std::shared_ptr<const Classifier>> members_;
  std::vector<double> weights_;
};

}  // namespace smartml

#endif  // SMARTML_CORE_ENSEMBLE_H_
