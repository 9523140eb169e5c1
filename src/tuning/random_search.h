// Baseline hyperparameter optimizers: random search and grid search
// (the strategies behind Google Vizier per the paper's related work).
#ifndef SMARTML_TUNING_RANDOM_SEARCH_H_
#define SMARTML_TUNING_RANDOM_SEARCH_H_

#include "src/tuning/objective.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// Uniform random search over the space; every config is scored on all folds
/// (no racing). Warm starts come first, then the default, then uniform
/// draws. Checkpoints its RNG stream, budget, seed cursor and best-so-far
/// at every batch boundary when options.checkpoint is set.
StatusOr<TunedResult> RandomSearch(const ParamSpace& space,
                                   TuningObjective* objective,
                                   const TunerOptions& options);

/// Full-factorial grid search with `points_per_numeric` levels per numeric
/// parameter (categoricals enumerate their choices). Stops early when the
/// evaluation budget or deadline runs out. Ignores options.initial_configs
/// and options.checkpoint.
StatusOr<TunedResult> GridSearch(const ParamSpace& space,
                                 TuningObjective* objective,
                                 const TunerOptions& options,
                                 int points_per_numeric = 4);

}  // namespace smartml

#endif  // SMARTML_TUNING_RANDOM_SEARCH_H_
