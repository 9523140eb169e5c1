#include "src/core/smartml.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/data/metrics.h"
#include "src/data/split.h"
#include "src/metafeatures/metafeature_cache.h"
#include "src/ml/registry.h"
#include "src/obs/metrics.h"
#include "src/obs/run_events.h"
#include "src/tuning/smac.h"

namespace smartml {

namespace {

/// Pipeline metrics (process-global; see docs/OBSERVABILITY.md).
struct PipelineMetrics {
  Counter* runs_ok;
  Counter* runs_failed;
  Counter* runs_cancelled;
  Counter* candidates_failed;
  Histogram* preprocess_seconds;
  Histogram* selection_seconds;
  Histogram* tuning_seconds;
  Histogram* output_seconds;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics* const metrics = [] {
      MetricsRegistry& registry = GlobalMetrics();
      auto phase = [&](const char* name) {
        return registry.GetHistogram(
            "smartml_run_phase_seconds",
            "Wall-clock seconds per SmartML pipeline phase.", PhaseBuckets(),
            {{"phase", name}});
      };
      auto* m = new PipelineMetrics();
      m->runs_ok = registry.GetCounter(
          "smartml_runs_total", "Completed SmartML pipeline runs by outcome.",
          {{"outcome", "ok"}});
      m->runs_failed = registry.GetCounter(
          "smartml_runs_total", "Completed SmartML pipeline runs by outcome.",
          {{"outcome", "error"}});
      m->runs_cancelled = registry.GetCounter(
          "smartml_runs_total", "Completed SmartML pipeline runs by outcome.",
          {{"outcome", "cancelled"}});
      m->candidates_failed = registry.GetCounter(
          "smartml_candidates_failed_total",
          "Nominated algorithms whose tuning failed; the run degrades to "
          "the surviving candidates.");
      m->preprocess_seconds = phase("preprocessing");
      m->selection_seconds = phase("selection");
      m->tuning_seconds = phase("tuning");
      m->output_seconds = phase("output");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

SmartML::SmartML(SmartMlOptions options) : options_(std::move(options)) {}

Status SmartML::LoadKnowledgeBase(const std::string& path) {
  SMARTML_ASSIGN_OR_RETURN(kb_, KnowledgeBase::LoadFromFile(path));
  return Status::OK();
}

Status SmartML::SaveKnowledgeBase(const std::string& path) const {
  return kb_.SaveToFile(path);
}

std::vector<Nomination> SmartML::SelectAlgorithms(
    const MetaFeatureVector& mf) const {
  NominationOptions nomination = options_.nomination;
  nomination.max_algorithms = options_.max_nominations;
  nomination.max_neighbors = options_.kb_neighbors;
  return kb_.Nominate(mf, nomination);
}

StatusOr<AlgorithmRunResult> SmartML::TuneAlgorithm(
    const SmartMlOptions& options, const std::string& algorithm,
    const Dataset& train, const Dataset& validation, double budget_seconds,
    int max_evaluations, const std::vector<ParamConfig>& warm_starts,
    uint64_t seed, const RunBudget& budget, Tracer* tracer) const {
  Stopwatch watch;
  AlgorithmRunResult run;
  run.algorithm = algorithm;

  SMARTML_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> prototype,
                           CreateClassifier(algorithm));
  SMARTML_ASSIGN_OR_RETURN(ParamSpace space, SpaceFor(algorithm));
  SMARTML_ASSIGN_OR_RETURN(
      std::unique_ptr<ClassifierObjective> objective,
      ClassifierObjective::Create(*prototype, train, options.cv_folds, seed,
                                  options.metric));

  SmacOptions smac_options;
  // The candidate's share of the tuning budget, capped by what remains of
  // the whole-run deadline.
  smac_options.deadline = Deadline::After(std::max(
      0.0, std::min(budget_seconds, budget.deadline.Remaining())));
  smac_options.max_evaluations =
      max_evaluations > 0 ? max_evaluations : 1000000;
  smac_options.seed = seed;
  smac_options.initial_configs = warm_starts;
  // Durable runs: thread the job's checkpoint store through so the tuner
  // can snapshot its state and a recovered run resumes where it left off.
  smac_options.checkpoint = budget.checkpoint;
  if (budget.checkpoint != nullptr) {
    smac_options.checkpoint_key =
        budget.checkpoint_scope + "/smac/" + algorithm;
  }
  TunedResult tuned;
  {
    Span span(tracer, "tune/smac");
    SMARTML_ASSIGN_OR_RETURN(tuned, Smac(space, objective.get(),
                                         smac_options));
  }

  run.best_config = tuned.best_config;
  run.tuning_cost = tuned.best_cost;
  run.evaluations = tuned.num_evaluations;
  run.trajectory = std::move(tuned.trajectory);
  run.resumed = tuned.resumed;

  // Fit the best configuration on the full training partition and score it
  // on the validation partition. This is the candidate's only full-split
  // fit: the output phase reuses the model and its probabilities.
  Span refit_span(tracer, "tune/refit");
  ValidatedModel refit =
      FitAndValidate(*prototype, run.best_config, train, validation);
  run.validation_accuracy = refit.validation_accuracy;
  run.model = std::move(refit.model);
  run.fit_status = std::move(refit.fit_status);
  run.validation_proba = std::move(refit.validation_proba);
  refit_span.End();
  run.seconds = watch.ElapsedSeconds();
  return run;
}

StatusOr<SmartMlResult> SmartML::Run(const Dataset& dataset) {
  return Run(dataset, options_);
}

StatusOr<SmartMlResult> SmartML::Run(const Dataset& dataset,
                                     const SmartMlOptions& options) {
  return Run(dataset, options, RunBudget::Unbounded());
}

StatusOr<SmartMlResult> SmartML::Run(const Dataset& dataset,
                                     const SmartMlOptions& options,
                                     const RunBudget& budget) {
  RunBudget effective = budget;
  // An options-level whole-run cap tightens (never loosens) the caller's.
  if (options.run_deadline_seconds > 0.0 &&
      options.run_deadline_seconds < effective.deadline.Remaining()) {
    effective.deadline = Deadline::After(options.run_deadline_seconds);
  }
  // Intra-run parallelism: one pool per run, reached by the candidate loop,
  // the tuners' evaluation batches and forest training through the run
  // context. num_threads == 1 (or a single-core machine) leaves the pool
  // null and every layer runs sequentially on this thread.
  const int num_threads = ResolveNumThreads(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) {
    pool = std::make_unique<ThreadPool>(num_threads - 1);
  }
  // Make cancellation and the pool visible to the deep layers (which cannot
  // take a budget parameter) for the duration of this run; the caller's
  // event sink, if any, stays installed.
  RunContext context = CurrentRunContext();
  context.cancel = effective.token.get();
  context.pool = pool.get();
  ScopedRunContext context_scope(context);
  Tracer tracer;
  auto result = RunTraced(dataset, options, effective, &tracer);
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  if (result.ok()) {
    metrics.runs_ok->Increment();
  } else if (result.status().code() == StatusCode::kCancelled) {
    metrics.runs_cancelled->Increment();
  } else {
    metrics.runs_failed->Increment();
  }
  return result;
}

StatusOr<SmartMlResult> SmartML::RunTraced(const Dataset& dataset,
                                           const SmartMlOptions& options,
                                           const RunBudget& budget,
                                           Tracer* tracer) {
  Stopwatch total_watch;
  SMARTML_RETURN_NOT_OK(budget.Check("input"));
  SMARTML_RETURN_NOT_OK(dataset.Validate());
  if (dataset.NumRows() < 10) {
    return Status::InvalidArgument("SmartML: need at least 10 rows");
  }
  if (dataset.NumClasses() < 2) {
    return Status::InvalidArgument("SmartML: need at least 2 classes");
  }

  SmartMlResult result;
  result.dataset_name = dataset.name();
  if (!options.trace_tag.empty()) {
    // Correlation marker joining this trace to the HTTP request that
    // launched it (X-Request-Id).
    Span request_span(tracer, "request/" + options.trace_tag);
    request_span.End();
  }
  Stopwatch phase_watch;

  // -------------------------------------------------------------------
  // Phase 2a: preprocessing pipeline (imputation + user-selected Table 2
  // operators), fitted on the training partition only.
  // -------------------------------------------------------------------
  SMARTML_LOG_INFO << "phase: preprocessing (" << dataset.NumRows()
                   << " rows, " << dataset.NumFeatures() << " features)";
  EmitPhaseEvent("preprocessing");
  Span preprocess_span(tracer, "preprocess");
  SMARTML_ASSIGN_OR_RETURN(
      TrainValidationSplit split,
      StratifiedSplit(dataset, options.validation_fraction, options.seed));

  Dataset train = std::move(split.train);
  Dataset validation = std::move(split.validation);

  // Feature selection (fitted on the training partition only).
  if (options.feature_selection.kind != FeatureSelectorKind::kNone ||
      !options.feature_selection.include_features.empty()) {
    Span span(tracer, "feature_selection");
    FeatureSelector selector(options.feature_selection);
    SMARTML_RETURN_NOT_OK(selector.Fit(train));
    SMARTML_ASSIGN_OR_RETURN(train, selector.Transform(train));
    SMARTML_ASSIGN_OR_RETURN(validation, selector.Transform(validation));
    result.selected_features = selector.selected();
    SMARTML_LOG_INFO << "phase: feature selection kept "
                     << result.selected_features.size() << " of "
                     << dataset.NumFeatures() << " features";
  } else {
    for (const auto& f : dataset.features()) {
      result.selected_features.push_back(f.name);
    }
  }

  std::vector<PreprocessOp> ops;
  if (options.auto_impute && dataset.HasMissing()) {
    ops.push_back(PreprocessOp::kImpute);
  }
  for (PreprocessOp op : options.preprocessing) ops.push_back(op);
  if (!ops.empty()) {
    Span span(tracer, "transform");
    PreprocessPipeline pipeline(ops, options.seed);
    SMARTML_ASSIGN_OR_RETURN(train, pipeline.FitTransform(train));
    SMARTML_ASSIGN_OR_RETURN(validation, pipeline.Transform(validation));
  }

  // -------------------------------------------------------------------
  // Phase 2b: meta-features from the training split.
  // -------------------------------------------------------------------
  {
    // Memoized by dataset content hash: repeated runs over the same upload
    // skip the extraction (and landmark model training) entirely.
    Span span(tracer, "metafeatures");
    SMARTML_ASSIGN_OR_RETURN(result.meta_features,
                             MetaFeatureCache::Global().MetaFeatures(train));
    if (options.use_landmarking) {
      auto landmarks =
          MetaFeatureCache::Global().Landmarks(train, options.seed);
      if (landmarks.ok()) {
        result.has_landmarks = true;
        result.landmarks = *landmarks;
      }
    }
  }
  preprocess_span.End();

  result.preprocessing_seconds = phase_watch.ElapsedSeconds();
  PipelineMetrics::Get().preprocess_seconds->Observe(
      result.preprocessing_seconds);
  phase_watch.Restart();

  SMARTML_RETURN_NOT_OK(budget.Check("selection"));

  // -------------------------------------------------------------------
  // Phase 3: algorithm selection via the knowledge base. A lookup failure
  // is a degradation, not a run failure: selection falls back to the
  // cold-start roster (the no-meta-learning path).
  // -------------------------------------------------------------------
  EmitPhaseEvent("selection");
  Span select_span(tracer, "select");
  try {
    if (FaultShouldFire("kb_lookup_throw")) {
      throw std::runtime_error("fault injection: kb_lookup_throw");
    }
    NominationOptions nomination = options.nomination;
    nomination.max_algorithms = options.max_nominations;
    nomination.max_neighbors = options.kb_neighbors;
    if (result.has_landmarks) {
      if (nomination.landmark_weight <= 0.0) nomination.landmark_weight = 2.0;
      result.nominations =
          kb_.Nominate(result.meta_features, result.landmarks, nomination);
    } else {
      result.nominations = kb_.Nominate(result.meta_features, nomination);
    }
  } catch (const std::exception& e) {
    SMARTML_LOG_WARN << "KB lookup failed (" << e.what()
                     << "); degrading to the cold-start roster";
    Span failure_span(tracer, std::string("select/kb_failed: ") + e.what());
    failure_span.End();
    result.nominations.clear();
    result.degraded = true;
  }
  result.used_meta_learning = !result.nominations.empty();
  std::vector<std::string> algorithms;
  std::vector<std::vector<ParamConfig>> warm_starts;
  if (result.used_meta_learning) {
    for (const Nomination& nomination : result.nominations) {
      if (!IsKnownAlgorithm(nomination.algorithm)) continue;
      algorithms.push_back(nomination.algorithm);
      warm_starts.push_back(nomination.warm_start_configs);
    }
  }
  if (algorithms.empty()) {
    // Cold start: fixed diverse roster, no warm starts.
    for (const std::string& name : options.cold_start_algorithms) {
      if (IsKnownAlgorithm(name)) {
        algorithms.push_back(name);
        warm_starts.emplace_back();
      }
    }
    result.used_meta_learning = false;
  }
  if (algorithms.empty()) {
    return Status::FailedPrecondition("SmartML: no candidate algorithms");
  }
  SMARTML_LOG_INFO << "phase: algorithm selection nominated "
                   << algorithms.size() << " candidates ("
                   << (result.used_meta_learning ? "meta-learning"
                                                 : "cold start")
                   << ")";

  select_span.End();
  result.selection_seconds = phase_watch.ElapsedSeconds();
  PipelineMetrics::Get().selection_seconds->Observe(result.selection_seconds);
  phase_watch.Restart();

  if (options.selection_only) {
    result.total_seconds = total_watch.ElapsedSeconds();
    result.trace = tracer->TakeSpans();
    return result;
  }

  // -------------------------------------------------------------------
  // Phase 4: hyper-parameter tuning. The budget is divided among the
  // nominated algorithms proportionally to their hyperparameter counts
  // (Table 3), exactly as described in the paper.
  // -------------------------------------------------------------------
  std::vector<size_t> param_counts;
  size_t param_total = 0;
  for (const std::string& name : algorithms) {
    // An unknown algorithm must not sink the whole run here: give it a
    // nominal share and let TuneAlgorithm fail it as one isolated candidate.
    auto space = SpaceFor(name);
    param_counts.push_back(
        space.ok() ? std::max<size_t>(space->NumParams(), 1) : 1);
    param_total += param_counts.back();
  }

  uint64_t seed = options.seed * 2654435761ULL + 17;
  EmitPhaseEvent("tuning");
  Span tune_span(tracer, "tune");
  Stopwatch tune_watch;
  Status first_failure = Status::OK();

  // Pre-decide count-limited fault injections in candidate-index order:
  // specs like tuner_throw:1x consume their fire budget per ShouldFire call,
  // so deciding inside the parallel tasks would make *which* candidate
  // fails a race.
  std::vector<char> inject_tuner_throw(algorithms.size(), 0);
  for (size_t i = 0; i < algorithms.size(); ++i) {
    inject_tuner_throw[i] = FaultShouldFire("tuner_throw") ? 1 : 0;
  }

  // Candidates are independent (each gets its proportional budget share),
  // so tune them across the run's pool. Every task records into a private
  // tracer and an index-addressed outcome slot; the merge below replays the
  // sequential bookkeeping in candidate order, keeping result ordering,
  // failure isolation and the degraded/first-failure semantics identical at
  // any thread count.
  struct CandidateOutcome {
    bool attempted = false;  ///< False = deadline expired before start.
    bool ok = false;
    AlgorithmRunResult run;
    Status error;
    std::vector<TraceSpan> spans;
    double span_offset = 0.0;  ///< Task start relative to the tune span.
  };
  std::vector<CandidateOutcome> outcomes(algorithms.size());

  const Status tune_status = ParallelFor(
      algorithms.size(),
      [&](size_t i) -> Status {
        if (budget.Cancelled()) {
          return Status::Cancelled("SmartML: run cancelled during tuning");
        }
        CandidateOutcome& out = outcomes[i];
        if (budget.DeadlineExpired()) {
          // Graceful: mirror the sequential loop's break — candidates that
          // never started are skipped, not failed.
          return Status::OK();
        }
        out.attempted = true;
        out.span_offset = tune_watch.ElapsedSeconds();
        // Label every event this candidate's tuning emits (the incumbent
        // stream) with the algorithm name, on whichever strand it runs.
        RunContext tagged = CurrentRunContext();
        tagged.event_tag = &algorithms[i];
        ScopedRunContext tag_scope(tagged);
        const double share =
            static_cast<double>(param_counts[i]) /
            static_cast<double>(std::max<size_t>(param_total, 1));
        const double time_share = options.time_budget_seconds * share;
        const int eval_budget =
            options.max_evaluations > 0
                ? std::max(1, static_cast<int>(std::lround(
                                  options.max_evaluations * share)))
                : 0;
        SMARTML_LOG_INFO << "phase: tuning " << algorithms[i] << " (budget "
                         << time_share << "s, " << warm_starts[i].size()
                         << " warm starts)";
        Tracer local;
        {
          Span algorithm_span(&local, "tune/" + algorithms[i]);
          // Per-candidate failure isolation: an exception or error status
          // marks this candidate failed; the run degrades to the others.
          StatusOr<AlgorithmRunResult> run =
              [&]() -> StatusOr<AlgorithmRunResult> {
            try {
              if (inject_tuner_throw[i]) {
                throw std::runtime_error("fault injection: tuner_throw on " +
                                         algorithms[i]);
              }
              return TuneAlgorithm(options, algorithms[i], train, validation,
                                   time_share, eval_budget, warm_starts[i],
                                   seed + i * 7919, budget, &local);
            } catch (const std::exception& e) {
              return Status::Internal(std::string("candidate threw: ") +
                                      e.what());
            }
          }();
          if (run.ok()) {
            out.ok = true;
            out.run = std::move(*run);
          } else {
            if (run.status().code() == StatusCode::kCancelled) {
              return run.status();
            }
            out.error = run.status();
            Span failure_span(&local, "tune/" + algorithms[i] + "/failed: " +
                                          run.status().ToString());
            failure_span.End();
          }
        }
        out.spans = local.TakeSpans();
        return Status::OK();
      });
  if (!tune_status.ok()) return tune_status;

  size_t attempted = 0;
  for (size_t i = 0; i < algorithms.size(); ++i) {
    CandidateOutcome& out = outcomes[i];
    if (!out.attempted) continue;
    ++attempted;
    tracer->Absorb(tune_span.id(), std::move(out.spans), out.span_offset);
    if (out.ok) {
      if (out.run.resumed) result.resumed_from_checkpoint = true;
      result.per_algorithm.push_back(std::move(out.run));
      continue;
    }
    SMARTML_LOG_WARN << "candidate " << algorithms[i]
                     << " failed: " << out.error.ToString();
    PipelineMetrics::Get().candidates_failed->Increment();
    result.failed_candidates.push_back({algorithms[i], out.error.ToString()});
    result.degraded = true;
    if (first_failure.ok()) first_failure = out.error;
  }
  if (attempted < algorithms.size()) {
    SMARTML_LOG_WARN << "run budget exhausted after " << attempted << " of "
                     << algorithms.size() << " candidates";
  }
  tune_span.End();

  if (result.per_algorithm.empty()) {
    if (!first_failure.ok()) {
      return Status::Internal(StrFormat(
          "SmartML: all %zu candidate algorithms failed; first error: %s",
          result.failed_candidates.size(),
          first_failure.ToString().c_str()));
    }
    // Deadline expired before any candidate could be tuned: there is no
    // best-so-far to return.
    return Status::DeadlineExceeded(
        "SmartML: run budget exhausted before any candidate was tuned");
  }

  result.tuning_seconds = phase_watch.ElapsedSeconds();
  PipelineMetrics::Get().tuning_seconds->Observe(result.tuning_seconds);
  phase_watch.Restart();

  // -------------------------------------------------------------------
  // Phase 5: computing output + updating the knowledge base.
  // -------------------------------------------------------------------
  EmitPhaseEvent("output");
  Span output_span(tracer, "output");
  std::vector<size_t> order(result.per_algorithm.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.per_algorithm[a].validation_accuracy >
           result.per_algorithm[b].validation_accuracy;
  });
  const AlgorithmRunResult& winner = result.per_algorithm[order[0]];
  result.best_algorithm = winner.algorithm;
  result.best_config = winner.best_config;
  result.best_validation_accuracy = winner.validation_accuracy;

  // The winner's tune-phase model is the caller's model. A failed fit
  // fails the run only when that candidate still wins.
  if (winner.model == nullptr) return winner.fit_status;
  result.best_model = winner.model;
  // Release the models the rest of this phase does not use.
  const size_t kept = options.enable_ensembling ? options.ensemble_size : 1;
  for (size_t i = std::max<size_t>(kept, 1); i < order.size(); ++i) {
    AlgorithmRunResult& run = result.per_algorithm[order[i]];
    run.model.reset();
    run.validation_proba = {};
  }

  // Optional weighted ensemble of the top performers. Skipped once the
  // budget is exhausted (the winner is the best-so-far contract; the
  // ensemble is optional extra work).
  if (options.enable_ensembling && result.per_algorithm.size() >= 2 &&
      !budget.Stop()) {
    Span span(tracer, "ensemble");
    // Candidate pool: the top `ensemble_size` tuned models whose fit
    // succeeded, with their stored validation probabilities.
    std::vector<const AlgorithmRunResult*> pool;
    std::vector<double> pool_accuracy;
    std::vector<const ProbaMatrix*> pool_proba;
    for (size_t i = 0; i < order.size() && i < options.ensemble_size; ++i) {
      const AlgorithmRunResult& run = result.per_algorithm[order[i]];
      if (run.model == nullptr) continue;
      pool.push_back(&run);
      pool_accuracy.push_back(run.validation_accuracy);
      pool_proba.push_back(&run.validation_proba);
    }
    const std::vector<double> weights =
        EnsembleWeights(options.ensemble_strategy, pool_accuracy, pool_proba,
                        validation.labels(), validation.NumClasses());

    auto ensemble = std::make_unique<WeightedEnsemble>();
    std::vector<const ProbaMatrix*> member_proba;
    bool all_predicted = true;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (weights[i] > 0.0) {
        ensemble->AddMember(pool[i]->model, weights[i]);
        member_proba.push_back(pool_proba[i]);
        all_predicted = all_predicted && !pool_proba[i]->empty();
      }
    }
    if (ensemble->NumMembers() >= 2) {
      // A member whose validation predict failed fails the ensemble's too.
      if (all_predicted) {
        result.ensemble_validation_accuracy =
            Accuracy(validation.labels(),
                     ArgMaxRows(ensemble->Combine(member_proba)));
      }
      result.ensemble = std::move(ensemble);
    }
  }

  // Optional interpretability (permutation importance on validation data).
  if (options.enable_interpretability && result.best_model != nullptr &&
      !budget.Stop()) {
    Span span(tracer, "interpret");
    auto importances = PermutationImportance(*result.best_model, validation,
                                             /*repeats=*/2, options.seed);
    if (importances.ok()) result.importances = std::move(*importances);
  }

  // KB update: store this dataset's meta-features and every algorithm's
  // best outcome so future runs benefit.
  if (options.update_kb) {
    Span span(tracer, "kb_update");
    KbRecord record;
    record.dataset_name =
        dataset.name().empty() ? "unnamed" : dataset.name();
    record.meta_features = result.meta_features;
    record.has_landmarks = result.has_landmarks;
    record.landmarks = result.landmarks;
    for (const AlgorithmRunResult& run : result.per_algorithm) {
      KbAlgorithmResult kb_result;
      kb_result.algorithm = run.algorithm;
      kb_result.accuracy = run.validation_accuracy;
      kb_result.best_config = run.best_config;
      record.results.push_back(std::move(kb_result));
    }
    kb_.AddRecord(record);
  }

  output_span.End();
  result.output_seconds = phase_watch.ElapsedSeconds();
  PipelineMetrics::Get().output_seconds->Observe(result.output_seconds);
  result.total_seconds = total_watch.ElapsedSeconds();
  result.trace = tracer->TakeSpans();
  SMARTML_LOG_INFO << "phase: output — best " << result.best_algorithm
                   << " acc " << result.best_validation_accuracy;
  return result;
}

Status SmartML::BootstrapWithDataset(
    const Dataset& dataset, const std::vector<std::string>& algorithms,
    int evaluations_per_algorithm) {
  SmartMlOptions options = options_;
  options.max_evaluations =
      evaluations_per_algorithm * static_cast<int>(algorithms.size());
  options.time_budget_seconds = 1e9;  // Evaluation-capped, not time-capped.
  options.enable_ensembling = false;
  options.enable_interpretability = false;
  options.update_kb = true;
  options.cold_start_algorithms = algorithms;
  // Force a cold-start style run over exactly `algorithms`: disable
  // nominations so every listed algorithm is evaluated.
  options.max_nominations = 0;

  auto result = Run(dataset, options);
  if (!result.ok()) return result.status();
  return Status::OK();
}

std::string SmartMlResult::Report() const {
  std::ostringstream out;
  out << "==== SmartML experiment output ====\n";
  out << "dataset: " << dataset_name << "\n";
  out << "algorithm selection: "
      << (used_meta_learning ? "meta-learning (knowledge base)"
                             : "cold start (default roster)")
      << "\n";
  if (!nominations.empty()) {
    out << "nominated algorithms:\n";
    for (const auto& n : nominations) {
      out << StrFormat("  - %-14s score %.4f (%zu warm starts)\n",
                       n.algorithm.c_str(), n.score,
                       n.warm_start_configs.size());
    }
  }
  if (!per_algorithm.empty()) {
    out << "tuned algorithms:\n";
    for (const auto& run : per_algorithm) {
      out << StrFormat(
          "  - %-14s val-acc %.4f  cv-err %.4f  evals %4zu  %.2fs\n",
          run.algorithm.c_str(), run.validation_accuracy, run.tuning_cost,
          run.evaluations, run.seconds);
    }
    out << "best algorithm: " << best_algorithm << "\n";
    out << "best configuration: " << best_config.ToString() << "\n";
    out << StrFormat("best validation accuracy: %.4f\n",
                     best_validation_accuracy);
  }
  if (!failed_candidates.empty()) {
    out << "failed candidates (run degraded):\n";
    for (const auto& failure : failed_candidates) {
      out << "  - " << failure.algorithm << ": " << failure.error << "\n";
    }
  }
  if (ensemble != nullptr) {
    out << StrFormat(
        "weighted ensemble (%zu members) validation accuracy: %.4f\n",
        ensemble->NumMembers(), ensemble_validation_accuracy);
  }
  if (!importances.empty()) {
    out << "top feature importances (permutation):\n";
    const size_t show = std::min<size_t>(importances.size(), 5);
    for (size_t i = 0; i < show; ++i) {
      out << StrFormat("  %-20s %+0.4f\n", importances[i].feature.c_str(),
                       importances[i].importance);
    }
  }
  out << StrFormat(
      "phase times: preprocess %.3fs, selection %.3fs, tuning %.3fs, "
      "output %.3fs\n",
      preprocessing_seconds, selection_seconds, tuning_seconds,
      output_seconds);
  if (!trace.empty()) {
    out << "trace:\n" << RenderTrace(trace);
  }
  out << StrFormat("total time: %.2fs\n", total_seconds);
  return out.str();
}

}  // namespace smartml
