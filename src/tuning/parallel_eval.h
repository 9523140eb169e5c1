// The bookkeeping every tuner shares: the entry check, the batch evaluator
// and the finish.
//
// Random, grid and genetic search keep bit-identical results at any thread
// count by splitting each batch into three phases:
//
//   1. *Plan* (sequential): the tuner proposes configurations exactly as the
//      historical sequential loop would — its RNG stream never depends on
//      evaluation results — and EvaluateBatch expands them into an ordered
//      (config, fold) task list truncated at the remaining budget.
//   2. *Evaluate* (parallel): compute every task's cost across the run's
//      thread pool. EvaluateFold is deterministic per (config, fold), so
//      execution order cannot change any value.
//   3. *Replay* (sequential): feed the costs through the bookkeeping
//      (budget decrements, incumbent updates, trajectory) in the exact
//      planned order.
//
// Only phase 2 runs concurrently, which is also where all the wall-clock
// time goes (each task is a model fit + validation). SMAC races fold by
// fold in its own loop but shares the entry check and the finish.
#ifndef SMARTML_TUNING_PARALLEL_EVAL_H_
#define SMARTML_TUNING_PARALLEL_EVAL_H_

#include <vector>

#include "src/tuning/objective.h"

namespace smartml {

/// InvalidArgument unless `objective` is non-null with at least one fold.
Status CheckObjective(const char* tuner, const TuningObjective* objective);

/// Scores `configs` in order on every fold until `*evaluations_left` runs
/// out, and returns the mean cost of each config scored (the last one may
/// have fewer folds). Each fold spends one budget unit and appends the
/// incumbent's mean cost to the trajectory (1.0 before the first
/// incumbent). A config becomes the incumbent when it is the run's first
/// scored config, or when it was scored on every fold and beats the
/// incumbent.
/// Cancellation of the run context's token aborts with Status::Cancelled;
/// other errors propagate lowest task index first.
StatusOr<std::vector<double>> EvaluateBatch(
    const char* tuner, TuningObjective* objective,
    const std::vector<ParamConfig>& configs, int* evaluations_left,
    TunedResult* result);

/// Closes a run: clamps best_cost to at most 1.0 and adds num_evaluations
/// to smartml_tuner_evaluations_total{tuner}.
TunedResult FinishTuning(const char* tuner, TunedResult result);

}  // namespace smartml

#endif  // SMARTML_TUNING_PARALLEL_EVAL_H_
