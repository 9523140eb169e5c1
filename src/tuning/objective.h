// Tuning objectives: what SMAC / random search optimize.
//
// SMAC's robustness comes from racing configurations across cross-validation
// folds ("the ability to discard low performance parameter configurations
// quickly after the evaluation on low number of folds" — paper §2), so the
// objective exposes per-fold evaluation rather than a single score.
#ifndef SMARTML_TUNING_OBJECTIVE_H_
#define SMARTML_TUNING_OBJECTIVE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/data/split.h"
#include "src/ml/classifier.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// What a classifier objective minimizes.
enum class TuneMetric {
  kAccuracy,  ///< Cost = 1 - accuracy (the paper's metric).
  kMacroF1,   ///< Cost = 1 - macro-averaged F1 (imbalance-robust).
  kKappa,     ///< Cost = 1 - Cohen's kappa (clamped to [0, 1]).
  kLogLoss,   ///< Cost = squashed multi-class log loss.
};

/// Stable lower-case name ("accuracy", "macro_f1", "kappa", "logloss").
const char* TuneMetricName(TuneMetric metric);

/// Parses a metric name.
StatusOr<TuneMetric> ParseTuneMetric(const std::string& name);

/// A minimization objective evaluated fold-by-fold. Costs are in [0, 1]
/// (1 - accuracy for classifier objectives). EvaluateFold must be safe to
/// call concurrently for distinct (config, fold) pairs — the tuners batch
/// independent fold evaluations across the run's thread pool.
class TuningObjective {
 public:
  virtual ~TuningObjective() = default;
  virtual size_t NumFolds() const = 0;
  /// Cost of `config` on fold `fold` (deterministic per (config, fold)).
  virtual StatusOr<double> EvaluateFold(const ParamConfig& config,
                                        size_t fold) = 0;
};

/// Cross-validated classification error of one algorithm on one dataset.
class ClassifierObjective : public TuningObjective {
 public:
  /// Builds `num_folds` stratified folds of `data` (num_folds == 1 gives a
  /// single stratified 75/25 holdout). The classifier prototype is cloned
  /// per evaluation. `metric` selects the cost being minimized.
  static StatusOr<std::unique_ptr<ClassifierObjective>> Create(
      const Classifier& prototype, const Dataset& data, int num_folds,
      uint64_t seed, TuneMetric metric = TuneMetric::kAccuracy);

  size_t NumFolds() const override { return splits_.size(); }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override;

  /// Number of EvaluateFold calls so far (for budget accounting/tests).
  size_t num_evaluations() const {
    return num_evaluations_.load(std::memory_order_relaxed);
  }

 private:
  ClassifierObjective() = default;

  std::unique_ptr<Classifier> prototype_;
  std::vector<TrainValidationSplit> splits_;
  TuneMetric metric_ = TuneMetric::kAccuracy;
  /// Atomic: concurrent fold evaluations from a parallel batch all count.
  std::atomic<size_t> num_evaluations_{0};
};

/// Outcome of a tuning run.
struct TunedResult {
  ParamConfig best_config;
  double best_cost = 1.0;           ///< Mean cost of the incumbent.
  size_t num_evaluations = 0;       ///< Fold evaluations consumed.
  /// Incumbent mean cost after each fold evaluation (for convergence plots).
  std::vector<double> trajectory;
  /// True when the search continued from a CheckpointSink snapshot instead
  /// of starting fresh (see persist/checkpoint.h).
  bool resumed = false;
};

/// What every tuner takes. SmacOptions and GeneticOptions derive from it
/// and add only their own knobs; random and grid search take it as is.
struct TunerOptions {
  /// Budget in fold-evaluations (each config costs up to NumFolds() evals).
  int max_evaluations = 100;
  /// Optional wall-clock limit (infinite by default). Expiry is graceful:
  /// the tuner returns the best configuration so far. Cancellation is not
  /// an option: every tuner checks the run context's token
  /// (CancellationRequested()) before every fold evaluation and aborts with
  /// Status::Cancelled, no result.
  Deadline deadline;
  uint64_t seed = 1;
  /// Warm-start configurations (SmartML fills these from the knowledge
  /// base), evaluated before any the tuner proposes itself.
  std::vector<ParamConfig> initial_configs;
  /// Optional checkpoint store (persist/checkpoint.h): the tuner snapshots
  /// its search state under `checkpoint_key` at every step boundary and
  /// resumes from an existing snapshot (tuning/checkpoint_codec.h).
  /// Non-owning; nullptr disables checkpointing.
  CheckpointSink* checkpoint = nullptr;
  std::string checkpoint_key;
};

}  // namespace smartml

#endif  // SMARTML_TUNING_OBJECTIVE_H_
