#include "src/tuning/parallel_eval.h"

#include <algorithm>
#include <string>

#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"

namespace smartml {

Status CheckObjective(const char* tuner, const TuningObjective* objective) {
  if (objective == nullptr || objective->NumFolds() == 0) {
    return Status::InvalidArgument(
        StrFormat("%s: objective with >= 1 fold required", tuner));
  }
  return Status::OK();
}

StatusOr<std::vector<double>> EvaluateBatch(
    const char* tuner, TuningObjective* objective,
    const std::vector<ParamConfig>& configs, int* evaluations_left,
    TunedResult* result) {
  // Plan: every config on every fold, config-major, truncated at the
  // budget — so task t is config t / folds on fold t % folds.
  const size_t folds = objective->NumFolds();
  const size_t num_tasks =
      std::min(configs.size() * folds,
               static_cast<size_t>(std::max(0, *evaluations_left)));

  // Evaluate (parallel across the run's pool).
  std::vector<double> costs(num_tasks, 0.0);
  const Status status = ParallelFor(num_tasks, [&](size_t t) -> Status {
    SMARTML_ASSIGN_OR_RETURN(
        costs[t], objective->EvaluateFold(configs[t / folds], t % folds));
    return Status::OK();
  });
  if (status.code() == StatusCode::kCancelled) {
    return Status::Cancelled(std::string(tuner) + ": run cancelled");
  }
  SMARTML_RETURN_NOT_OK(status);

  // Replay (sequential, in planning order).
  std::vector<double> means;
  for (size_t t = 0; t < num_tasks;) {
    const ParamConfig& config = configs[t / folds];
    const size_t scored = std::min(folds, num_tasks - t);
    const bool first = result->num_evaluations == 0;
    double total = 0.0;
    for (size_t f = 0; f < scored; ++f) {
      --*evaluations_left;
      ++result->num_evaluations;
      total += costs[t++];
      result->trajectory.push_back(first ? 1.0 : result->best_cost);
    }
    const double mean = total / static_cast<double>(scored);
    if (first || (scored == folds && mean < result->best_cost)) {
      result->best_cost = mean;
      result->best_config = config;
      result->trajectory.back() = mean;
    }
    means.push_back(mean);
  }
  return means;
}

TunedResult FinishTuning(const char* tuner, TunedResult result) {
  if (result.best_cost > 1.0) result.best_cost = 1.0;
  GlobalMetrics()
      .GetCounter("smartml_tuner_evaluations_total",
                  "Fold evaluations spent per tuner.", {{"tuner", tuner}})
      ->Increment(result.num_evaluations);
  return result;
}

}  // namespace smartml
