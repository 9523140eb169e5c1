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
#include "src/tuning/param_space.h"

namespace smartml {

/// Abstract classifier. Implementations must be copy-free value semantics
/// via Clone() and be deterministic given the seed in their ParamConfig
/// ("seed" key, optional).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Stable algorithm identifier ("svm", "j48", ...).
  virtual std::string name() const = 0;

  /// Trains on `train` with hyperparameters `config` (missing keys fall back
  /// to the space defaults). Must be callable repeatedly; each call fully
  /// replaces the previous model.
  virtual Status Fit(const Dataset& train, const ParamConfig& config) = 0;

  /// Per-row class probability vectors (size = training NumClasses) for
  /// every row of `data`. `data` must share the training schema.
  virtual StatusOr<std::vector<std::vector<double>>> PredictProba(
      const Dataset& data) const = 0;

  /// Class index predictions; default implementation takes the argmax of
  /// PredictProba.
  virtual StatusOr<std::vector<int>> Predict(const Dataset& data) const;

  /// Fresh untrained copy of this algorithm.
  virtual std::unique_ptr<Classifier> Clone() const = 0;
};

/// Per-row class probability vectors, as PredictProba returns them.
using ProbaMatrix = std::vector<std::vector<double>>;

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
