#include "src/tuning/genetic.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/tuning/checkpoint_codec.h"
#include "src/tuning/parallel_eval.h"

namespace smartml {

namespace {

struct Individual {
  ParamConfig config;
  double fitness = 2.0;  // Mean fold cost; 2.0 = unevaluated sentinel.
  bool evaluated = false;
};

// The GA's checkpoint blob: RNG stream, remaining budget, best-so-far,
// fitness cache and the current population. Saved at every generation
// boundary; restored (all-or-nothing) before the first one.
constexpr char kGaHeader[] = "ga-ckpt 1";

std::string SerializeGaState(const Rng& rng, int evaluations_left,
                             const TunedResult& result,
                             const std::map<std::string, double>& cache,
                             const std::vector<Individual>& population) {
  std::ostringstream out;
  CkptAppendHeader(kGaHeader, rng, evaluations_left, &out);
  CkptAppendResult(result, &out);
  out << "cache " << cache.size() << '\n';
  for (const auto& [key, fitness] : cache) {
    out << CkptToken(key) << ' ' << CkptDouble(fitness) << '\n';
  }
  out << "population " << population.size() << '\n';
  for (const Individual& individual : population) {
    out << "ind " << CkptDouble(individual.fitness) << ' '
        << (individual.evaluated ? 1 : 0) << '\n';
    CkptAppendConfig(individual.config, &out);
  }
  out << "end\n";
  return out.str();
}

bool RestoreGaState(const std::string& blob, Rng* rng, int* evaluations_left,
                    TunedResult* result, std::map<std::string, double>* cache,
                    std::vector<Individual>* population) {
  std::istringstream in(blob);
  std::array<uint64_t, 4> state{};
  int left = 0;
  TunedResult restored;
  size_t n_cache = 0;
  if (!CkptReadHeader(&in, kGaHeader, &state, &left) ||
      !CkptReadResult(&in, &restored) || !CkptExpect(&in, "cache") ||
      !(in >> n_cache) || n_cache > 10000000) {
    return false;
  }
  std::map<std::string, double> restored_cache;
  std::string token;
  for (size_t i = 0; i < n_cache; ++i) {
    std::string key_token, key;
    if (!(in >> key_token >> token) || !CkptParseToken(key_token, &key) ||
        !CkptParseDouble(token, &restored_cache[key])) {
      return false;
    }
  }
  size_t n_pop = 0;
  if (!CkptExpect(&in, "population") || !(in >> n_pop) || n_pop > 1000000) {
    return false;
  }
  std::vector<Individual> restored_pop(n_pop);
  for (Individual& individual : restored_pop) {
    int evaluated = 0;
    if (!CkptExpect(&in, "ind") || !(in >> token >> evaluated) ||
        !CkptParseDouble(token, &individual.fitness) ||
        !CkptReadConfig(&in, &individual.config)) {
      return false;
    }
    individual.evaluated = evaluated != 0;
  }
  if (!CkptExpect(&in, "end")) return false;
  rng->SetState(state);
  *evaluations_left = left;
  *result = std::move(restored);
  *cache = std::move(restored_cache);
  *population = std::move(restored_pop);
  return true;
}

// Parameter-wise uniform crossover.
ParamConfig Crossover(const ParamSpace& space, const ParamConfig& a,
                      const ParamConfig& b, Rng* rng) {
  ParamConfig child;
  for (const ParamSpec& spec : space.specs()) {
    const ParamConfig& donor = rng->Bernoulli(0.5) ? a : b;
    switch (spec.type) {
      case ParamType::kDouble:
        child.SetDouble(spec.name,
                        donor.GetDouble(spec.name, spec.default_double));
        break;
      case ParamType::kInt:
        child.SetInt(spec.name, donor.GetInt(spec.name, spec.default_int));
        break;
      case ParamType::kCategorical:
        child.SetChoice(spec.name,
                        donor.GetChoice(spec.name, spec.default_choice));
        break;
    }
  }
  return child;
}

}  // namespace

StatusOr<TunedResult> GeneticSearch(const ParamSpace& space,
                                    TuningObjective* objective,
                                    const GeneticOptions& options) {
  SMARTML_RETURN_NOT_OK(CheckObjective("genetic", objective));
  Rng rng(options.seed);
  int evaluations_left = options.max_evaluations;

  TunedResult result;
  result.best_config = space.DefaultConfig();

  // Fitness cache so re-discovered genomes don't burn budget.
  std::map<std::string, double> cache;

  // Initial population: seeds, the default, then random samples.
  std::vector<Individual> population;
  for (const ParamConfig& config : options.initial_configs) {
    population.push_back({space.Repair(config)});
  }
  population.push_back({space.DefaultConfig()});
  while (population.size() < static_cast<size_t>(std::max(
                                 2, options.population_size))) {
    population.push_back({space.Sample(&rng)});
  }

  const std::optional<std::string> blob = CkptGet("genetic", options);
  if (blob && RestoreGaState(*blob, &rng, &evaluations_left, &result, &cache,
                             &population)) {
    SMARTML_LOG_INFO << "genetic: resumed from checkpoint ("
                     << result.num_evaluations << " evaluations done)";
  }

  auto tournament = [&]() -> const Individual& {
    size_t best = rng.UniformInt(population.size());
    for (int t = 1; t < options.tournament_size; ++t) {
      const size_t challenger = rng.UniformInt(population.size());
      if (population[challenger].fitness < population[best].fitness) {
        best = challenger;
      }
    }
    return population[best];
  };

  const size_t total_folds = objective->NumFolds();
  while (evaluations_left > 0 && !options.deadline.Expired()) {
    CkptPut("genetic", options, [&] {
      return SerializeGaState(rng, evaluations_left, result, cache,
                              population);
    });

    // Plan: walk the population in order and batch every individual the
    // historical loop would have evaluated — skipping scored individuals,
    // cache hits and duplicates planned earlier this generation — until the
    // budget is spoken for.
    std::vector<ParamConfig> batch;
    std::set<std::string> planned;
    int unplanned = evaluations_left;
    for (Individual& individual : population) {
      if (unplanned <= 0) break;
      if (individual.evaluated) continue;
      std::string key = individual.config.ToString();
      if (cache.count(key) != 0 || !planned.insert(std::move(key)).second) {
        continue;
      }
      batch.push_back(individual.config);
      unplanned -= static_cast<int>(total_folds);
    }

    SMARTML_ASSIGN_OR_RETURN(
        const std::vector<double> fitness,
        EvaluateBatch("genetic", objective, batch, &evaluations_left,
                      &result));
    if (evaluations_left <= 0 || options.deadline.Expired()) break;

    // With budget left every batched config was scored on all folds: cache
    // them, then give every unscored individual its cached fitness — the
    // batched ones, their same-generation duplicates and older cache hits.
    for (size_t b = 0; b < batch.size(); ++b) {
      cache[batch[b].ToString()] = fitness[b];
    }
    for (Individual& individual : population) {
      if (individual.evaluated) continue;
      const auto it = cache.find(individual.config.ToString());
      if (it != cache.end()) {
        individual.fitness = it->second;
        individual.evaluated = true;
      }
    }

    // Next generation: elites + offspring.
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    std::vector<Individual> next;
    for (int e = 0; e < options.elite &&
                    static_cast<size_t>(e) < population.size();
         ++e) {
      next.push_back(population[static_cast<size_t>(e)]);
    }
    while (next.size() < population.size()) {
      ParamConfig child;
      if (rng.Bernoulli(options.crossover_rate)) {
        // Parents drawn second-parent first: the order GCC's right-to-left
        // argument evaluation gave the historical
        // Crossover(space, tournament(), tournament(), &rng) call, kept so
        // seeded runs reproduce.
        const ParamConfig& second = tournament().config;
        const ParamConfig& first = tournament().config;
        child = Crossover(space, first, second, &rng);
      } else {
        child = tournament().config;
      }
      if (rng.Bernoulli(options.mutation_rate)) {
        child = space.Neighbor(child, &rng);
      }
      next.push_back({space.Repair(child)});
    }
    population = std::move(next);
  }
  return FinishTuning("genetic", std::move(result));
}

}  // namespace smartml
