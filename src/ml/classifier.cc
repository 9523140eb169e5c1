#include "src/ml/classifier.h"

#include "src/data/metrics.h"

namespace smartml {

Status Classifier::Fit(const Dataset& train, const ParamConfig& config) {
  fitted_ = false;
  num_features_ = 0;
  num_classes_ = 0;
  if (train.NumRows() == 0) {
    return Status::InvalidArgument(name() + ": empty training data");
  }
  SMARTML_RETURN_NOT_OK(FitImpl(train, config));
  MarkFitted(train.NumFeatures(), static_cast<int>(train.NumClasses()));
  return Status::OK();
}

StatusOr<ProbaMatrix> Classifier::PredictProba(const Dataset& data) const {
  if (!fitted_) {
    return Status::FailedPrecondition(name() + ": not fitted");
  }
  if (data.NumFeatures() != num_features_) {
    return Status::InvalidArgument(name() + ": schema mismatch");
  }
  return PredictProbaImpl(data);
}

TreeVote Classifier::tree_vote() const {
  const auto* voter = dynamic_cast<const TreeVoteClassifier*>(this);
  if (!fitted_ || voter == nullptr) return {};
  return {voter->trees_, voter->weights_};
}

StatusOr<ProbaMatrix> TreeVoteClassifier::PredictProbaImpl(
    const Dataset& data) const {
  return VoteTrees({trees_, weights_}, data.ToRawMatrix(), num_classes());
}

void Classifier::MarkFitted(size_t num_features, int num_classes) {
  fitted_ = true;
  num_features_ = num_features;
  num_classes_ = num_classes;
}

StatusOr<std::vector<int>> Classifier::Predict(const Dataset& data) const {
  SMARTML_ASSIGN_OR_RETURN(ProbaMatrix proba, PredictProba(data));
  return ArgMaxRows(proba);
}

std::vector<int> ArgMaxRows(const ProbaMatrix& proba) {
  std::vector<int> out(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) out[i] = ArgMax(proba[i]);
  return out;
}

ValidatedModel FitAndValidate(const Classifier& prototype,
                              const ParamConfig& config, const Dataset& train,
                              const Dataset& validation) {
  ValidatedModel out;
  std::unique_ptr<Classifier> model = prototype.Clone();
  out.fit_status = model->Fit(train, config);
  if (!out.fit_status.ok()) return out;
  auto proba = model->PredictProba(validation);
  if (proba.ok()) {
    out.validation_proba = std::move(*proba);
    out.validation_accuracy =
        Accuracy(validation.labels(), ArgMaxRows(out.validation_proba));
  }
  out.model = std::move(model);
  return out;
}

int ArgMax(const std::vector<double>& v) {
  int best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

void NormalizeProba(std::vector<double>* v) {
  double total = 0.0;
  for (double x : *v) total += x;
  if (total <= 0.0) {
    const double u = v->empty() ? 0.0 : 1.0 / static_cast<double>(v->size());
    for (double& x : *v) x = u;
    return;
  }
  for (double& x : *v) x /= total;
}

}  // namespace smartml
