// The SmartML orchestrator: the five-phase pipeline of Figure 1.
//
//   1. Input definition   — dataset + options (budget, preprocessing,
//                           ensembling, interpretability toggles).
//   2. Preprocessing      — feature preprocessing, training/validation
//                           split, 25 meta-features from the training split.
//   3. Algorithm selection— weighted nearest-neighbour lookup in the
//                           knowledge base nominates candidate classifiers.
//   4. Hyper-parameter    — the time budget is divided among the nominated
//      tuning               algorithms proportionally to their number of
//                           hyperparameters; each is tuned with SMAC, warm
//                           started from the KB's stored configurations.
//   5. Output & KB update — best model (and optional weighted ensemble +
//                           interpretability report); the run is folded back
//                           into the knowledge base.
#ifndef SMARTML_CORE_SMARTML_H_
#define SMARTML_CORE_SMARTML_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/core/ensemble.h"
#include "src/data/dataset.h"
#include "src/interpret/interpret.h"
#include "src/kb/knowledge_base.h"
#include "src/metafeatures/metafeatures.h"
#include "src/obs/trace.h"
#include "src/preprocess/feature_selection.h"
#include "src/preprocess/preprocess.h"
#include "src/tuning/objective.h"

namespace smartml {

/// User-facing configuration (the paper's input-definition screen).
struct SmartMlOptions {
  /// Feature selection (applied before preprocessing, fitted on the
  /// training partition). The include list mirrors the paper's "specify
  /// which features of the dataset should be included".
  FeatureSelectionOptions feature_selection;
  /// Feature preprocessing operators to apply (Table 2 names), in order.
  std::vector<PreprocessOp> preprocessing;
  /// Insert median/mode imputation automatically when data has missing
  /// cells (classifier implementations expect complete data).
  bool auto_impute = true;
  /// Fraction of rows held out as the validation partition.
  double validation_fraction = 0.25;
  /// CV folds used inside tuning (SMAC races across these).
  int cv_folds = 3;
  /// Metric minimized during tuning (validation reporting stays accuracy,
  /// matching the paper's tables).
  TuneMetric metric = TuneMetric::kAccuracy;
  /// Wall-clock budget for the hyper-parameter tuning phase, divided among
  /// the nominated algorithms by their hyperparameter counts.
  double time_budget_seconds = 10.0;
  /// Optional deterministic cap on fold-evaluations (0 = derive from time
  /// budget only). Also divided among algorithms.
  int max_evaluations = 0;
  /// Whole-run wall-clock cap covering every phase (0 = unbounded). Unlike
  /// `time_budget_seconds` (a tuning-phase allocation), expiry of this
  /// deadline stops the run from starting new work and returns the
  /// best-so-far result.
  double run_deadline_seconds = 0.0;
  /// How many algorithms the selection phase nominates.
  size_t max_nominations = 3;
  /// Nearest neighbours consulted in the KB.
  size_t kb_neighbors = 3;
  /// Landmarking extension: additionally describe datasets by the quick
  /// accuracies of four cheap landmark learners and fold that into the KB
  /// similarity (weight = nomination.landmark_weight, defaulted to 2 when
  /// this flag is set and the weight is 0).
  bool use_landmarking = false;
  /// Algorithms tried when the KB is empty (cold start).
  std::vector<std::string> cold_start_algorithms = {"random_forest", "svm",
                                                    "naive_bayes"};
  /// Recommend a weighted ensemble of the top performers.
  bool enable_ensembling = true;
  size_t ensemble_size = 3;
  /// How member weights are chosen (see src/core/ensemble.h).
  using EnsembleStrategy = smartml::EnsembleStrategy;
  EnsembleStrategy ensemble_strategy = EnsembleStrategy::kAccuracyWeighted;
  /// Produce permutation feature importances for the winning model.
  bool enable_interpretability = true;
  /// Stop after algorithm selection (paper: the user may upload only
  /// meta-features and request selection only).
  bool selection_only = false;
  /// Fold this run's results back into the knowledge base.
  bool update_kb = true;
  /// Intra-run parallelism: worker threads shared by the candidate-tuning
  /// loop, the tuners' fold-evaluation batches and ensemble tree growth.
  /// <= 0 means auto (hardware concurrency); 1 forces the sequential path.
  /// Evaluation-capped runs are bit-identical at any thread count; see
  /// DESIGN.md "Parallel execution". The JobManager caps this value so
  /// num_workers x num_threads cannot oversubscribe the machine.
  int num_threads = 0;
  /// Advanced similarity knobs (ablations).
  NominationOptions nomination;
  /// Serving-layer correlation id (the request's X-Request-Id). When set,
  /// the run's trace opens with a zero-length "request/<tag>" marker span so
  /// traces can be joined back to HTTP access logs.
  std::string trace_tag;
  uint64_t seed = 42;
};

/// Result of tuning one nominated algorithm.
struct AlgorithmRunResult {
  std::string algorithm;
  ParamConfig best_config;
  double validation_accuracy = 0.0;  ///< On the held-out validation split.
  double tuning_cost = 1.0;          ///< SMAC's incumbent mean fold error.
  size_t evaluations = 0;
  double seconds = 0.0;
  std::vector<double> trajectory;    ///< Incumbent error per evaluation.
  /// True when the tuner continued from a checkpoint (crash recovery).
  bool resumed = false;
  /// `best_config` fitted on the full training split (FitAndValidate): the
  /// candidate's only full-split fit. Null when that fit failed.
  std::shared_ptr<const Classifier> model;
  Status fit_status;
  /// `model`'s class probabilities on the validation split, from which
  /// validation_accuracy, greedy selection and the ensemble's score are all
  /// computed. Empty when the fit or the prediction failed. The output phase
  /// releases `model` and this unless the candidate is the winner or, with
  /// ensembling on, in the top `ensemble_size`.
  ProbaMatrix validation_proba;
};

/// One nominated algorithm that could not be tuned. The run degrades to the
/// surviving candidates instead of failing (unless every candidate fails).
struct CandidateFailure {
  std::string algorithm;
  std::string error;  ///< Human-readable status, e.g. "Internal: ...".
};

/// Full outcome of a SmartML run (the Figure 3 output screen).
struct SmartMlResult {
  std::string dataset_name;
  /// Features surviving the selection phase (all features when selection is
  /// disabled).
  std::vector<std::string> selected_features;
  MetaFeatureVector meta_features{};
  bool has_landmarks = false;
  LandmarkVector landmarks{};
  std::vector<Nomination> nominations;
  bool used_meta_learning = false;

  std::string best_algorithm;
  ParamConfig best_config;
  double best_validation_accuracy = 0.0;
  std::vector<AlgorithmRunResult> per_algorithm;

  /// True when the run completed on a reduced path: one or more candidates
  /// failed, or the KB lookup failed and selection fell back to the
  /// cold-start roster. Pure budget exhaustion does NOT set this — a
  /// best-so-far result inside the budget contract is not degraded.
  bool degraded = false;
  /// Candidates that failed to tune (exception, error status, or a
  /// per-candidate budget that expired before a single evaluation).
  std::vector<CandidateFailure> failed_candidates;

  /// True when at least one candidate's tuner resumed from a checkpoint —
  /// i.e. this result continues a run interrupted by a crash or restart.
  bool resumed_from_checkpoint = false;

  /// Trained winner (on the training partition): the winning candidate's
  /// tune-phase model, shared with the ensemble. Null in selection-only
  /// mode.
  std::shared_ptr<const Classifier> best_model;
  /// Weighted ensemble of the top performers (if enabled and >= 2 members).
  std::unique_ptr<WeightedEnsemble> ensemble;
  double ensemble_validation_accuracy = 0.0;

  std::vector<FeatureImportance> importances;

  /// Nested wall-clock trace of the run (pre-order; see src/obs/trace.h).
  /// Serialized as a span tree by ResultToJson and rendered by Report().
  std::vector<TraceSpan> trace;

  /// Wall-clock seconds per pipeline phase (Figure 1).
  double preprocessing_seconds = 0.0;
  double selection_seconds = 0.0;
  double tuning_seconds = 0.0;
  double output_seconds = 0.0;
  double total_seconds = 0.0;

  /// Renders the Figure 3-style experiment output.
  std::string Report() const;
};

/// The framework. One instance owns a knowledge base and can process any
/// number of datasets, growing the KB run over run.
class SmartML {
 public:
  explicit SmartML(SmartMlOptions options = {});

  const SmartMlOptions& options() const { return options_; }
  SmartMlOptions& mutable_options() { return options_; }

  const KnowledgeBase& kb() const { return kb_; }
  KnowledgeBase& mutable_kb() { return kb_; }

  Status LoadKnowledgeBase(const std::string& path);
  Status SaveKnowledgeBase(const std::string& path) const;

  /// Runs the full pipeline on a dataset with the instance options.
  StatusOr<SmartMlResult> Run(const Dataset& dataset);

  /// Runs the full pipeline with explicit per-run options. Does not touch
  /// the instance options, and the knowledge base is internally
  /// synchronized, so any number of Run() calls may execute concurrently on
  /// one SmartML instance (the async job manager's execution path).
  StatusOr<SmartMlResult> Run(const Dataset& dataset,
                              const SmartMlOptions& options);

  /// Runs the full pipeline under an explicit budget (cancellation token +
  /// whole-run deadline). The JobManager uses this so DELETE /v1/runs/{id}
  /// can cancel a *running* job: the token is polled between phases, between
  /// tuner fold evaluations, and inside iterative training loops, and
  /// cancellation surfaces as StatusCode::kCancelled. Deadline expiry
  /// instead returns the best result found so far.
  StatusOr<SmartMlResult> Run(const Dataset& dataset,
                              const SmartMlOptions& options,
                              const RunBudget& budget);

  /// Algorithm selection only, from a meta-feature vector (paper: "it is
  /// possible to upload only the dataset meta-features file").
  std::vector<Nomination> SelectAlgorithms(const MetaFeatureVector& mf) const;

  /// Bootstraps the KB with one dataset: evaluates the given algorithms
  /// briefly and stores the outcomes. Used to seed the KB the way the paper
  /// seeds it with 50 public datasets.
  Status BootstrapWithDataset(const Dataset& dataset,
                              const std::vector<std::string>& algorithms,
                              int evaluations_per_algorithm = 8);

 private:
  StatusOr<SmartMlResult> RunTraced(const Dataset& dataset,
                                    const SmartMlOptions& options,
                                    const RunBudget& budget, Tracer* tracer);

  StatusOr<AlgorithmRunResult> TuneAlgorithm(
      const SmartMlOptions& options, const std::string& algorithm,
      const Dataset& train, const Dataset& validation, double budget_seconds,
      int max_evaluations, const std::vector<ParamConfig>& warm_starts,
      uint64_t seed, const RunBudget& budget, Tracer* tracer) const;

  SmartMlOptions options_;
  KnowledgeBase kb_;
};

}  // namespace smartml

#endif  // SMARTML_CORE_SMARTML_H_
