// The uniform classifier interface all 15 algorithms implement.
//
// SmartML's orchestrator, SMAC, the ensembler, and the interpretability
// module all interact with learners exclusively through this interface plus
// a declared ParamSpace, exactly as the R framework interacts with its 15
// wrapped packages.
#ifndef SMARTML_ML_CLASSIFIER_H_
#define SMARTML_ML_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/ml/decision_tree.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// Per-row class probability vectors, as PredictProba returns them.
using ProbaMatrix = std::vector<std::vector<double>>;

/// Abstract classifier. Implementations must be copy-free value semantics
/// via Clone() and be deterministic given the seed in their ParamConfig
/// ("seed" key, optional).
///
/// The base owns the learner contract: the fitted state, the training
/// schema and the checks on both. Implementations supply FitImpl and
/// PredictProbaImpl and never repeat those checks.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Stable algorithm identifier ("svm", "j48", ...).
  virtual std::string name() const = 0;

  /// Trains on `train` with hyperparameters `config` (missing keys fall back
  /// to the space defaults). Must be callable repeatedly; each call fully
  /// replaces the previous model. The model is unfitted from the start of
  /// the call and fitted again only if training succeeds, so a failed Fit
  /// never leaves an earlier model servable. A training set with no rows is
  /// InvalidArgument.
  Status Fit(const Dataset& train, const ParamConfig& config);

  /// Per-row class probability vectors (size = training NumClasses) for
  /// every row of `data`. FailedPrecondition when the model is unfitted;
  /// InvalidArgument when `data` has a different feature count than the
  /// training set.
  StatusOr<std::vector<std::vector<double>>> PredictProba(
      const Dataset& data) const;

  /// Class index predictions: the argmax of PredictProba.
  StatusOr<std::vector<int>> Predict(const Dataset& data) const;

  /// Fresh untrained copy of this algorithm.
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  /// Feature count of the training set (0 when unfitted).
  size_t num_features() const { return num_features_; }
  /// Class count of the training set (0 when unfitted).
  int num_classes() const { return num_classes_; }

  /// The trees and vote weights behind PredictProba for a fitted
  /// TreeVoteClassifier (random_forest, bagging, c50 and deepboost), whose
  /// PredictProba is exactly VoteTrees(tree_vote(), data.ToRawMatrix(),
  /// num_classes()). An empty vote for every other learner and for an
  /// unfitted model.
  TreeVote tree_vote() const;

 protected:
  /// Trains the model. Called by Fit on a training set with rows; the
  /// model's num_features() and num_classes() are recorded after it
  /// succeeds, so it reads both from `train`.
  virtual Status FitImpl(const Dataset& train, const ParamConfig& config) = 0;

  /// Predicts every row of `data`. Called by PredictProba only on a fitted
  /// model and a dataset with the training feature count.
  virtual StatusOr<ProbaMatrix> PredictProbaImpl(
      const Dataset& data) const = 0;

  /// Marks the model fitted on a `num_features`-column, `num_classes`-class
  /// schema, for models assembled from already-trained parts.
  void MarkFitted(size_t num_features, int num_classes);

 private:
  bool fitted_ = false;
  size_t num_features_ = 0;
  int num_classes_ = 0;
};

/// A learner that predicts by the vote of its trees. FitImpl fills trees_
/// and, for a weighted vote, one weight per tree in weights_; prediction is
/// VoteTrees over them, so tree_vote() describes exactly what PredictProba
/// computes.
class TreeVoteClassifier : public Classifier {
 protected:
  StatusOr<ProbaMatrix> PredictProbaImpl(const Dataset& data) const final;

  std::vector<DecisionTree> trees_;
  std::vector<double> weights_;  ///< Empty = weight 1 for every tree.

 private:
  friend class Classifier;  // tree_vote() reads the two members above.
};

/// Argmax helper shared by implementations.
int ArgMax(const std::vector<double>& v);

/// ArgMax of every row: the class predictions Predict derives from
/// PredictProba.
std::vector<int> ArgMaxRows(const ProbaMatrix& proba);

/// One configuration fitted on a training split and scored on a validation
/// split, with one Fit and one PredictProba: the holdout protocol shared by
/// SmartML's tuning phase, the CASH baselines and landmarking.
struct ValidatedModel {
  std::shared_ptr<const Classifier> model;  ///< Null when Fit failed.
  Status fit_status;
  ProbaMatrix validation_proba;  ///< Empty when Fit or PredictProba failed.
  double validation_accuracy = 0.0;  ///< 0 when either step failed.
};

/// Fits a fresh clone of `prototype` on `train` with `config`, then predicts
/// `validation` once.
ValidatedModel FitAndValidate(const Classifier& prototype,
                              const ParamConfig& config, const Dataset& train,
                              const Dataset& validation);

/// Normalizes `v` to sum 1 (uniform if the sum is not positive).
void NormalizeProba(std::vector<double>* v);

}  // namespace smartml

#endif  // SMARTML_ML_CLASSIFIER_H_
