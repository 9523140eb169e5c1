// Genetic-algorithm hyperparameter search — the optimization strategy behind
// TPOT in the paper's Table 1 ("Genetic Programming, Pareto Optimization").
// Included so the framework comparison benches can sweep all three optimizer
// families (Bayesian / random / evolutionary) over the same spaces.
//
// Classic generational GA over ParamConfigs: tournament selection, uniform
// parameter-wise crossover, Neighbor-move mutation, elitism. Fitness is the
// mean fold cost (no racing: each survivor is scored on every fold).
#ifndef SMARTML_TUNING_GENETIC_H_
#define SMARTML_TUNING_GENETIC_H_

#include "src/tuning/objective.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// The shared TunerOptions plus the GA's own knobs. initial_configs seed
/// the first population; with checkpoint set, the search snapshots its RNG
/// stream, budget, population, fitness cache and best-so-far at every
/// generation boundary.
struct GeneticOptions : TunerOptions {
  int population_size = 12;
  int tournament_size = 3;
  double crossover_rate = 0.7;
  double mutation_rate = 0.3;
  int elite = 2;  ///< Individuals copied unchanged into the next generation.
};

/// Runs the GA on `objective`, minimizing mean fold cost.
StatusOr<TunedResult> GeneticSearch(const ParamSpace& space,
                                    TuningObjective* objective,
                                    const GeneticOptions& options);

}  // namespace smartml

#endif  // SMARTML_TUNING_GENETIC_H_
