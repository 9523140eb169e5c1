#include "src/baselines/autoweka.h"

#include <algorithm>
#include <map>

#include "src/data/split.h"
#include "src/ml/registry.h"
#include "src/tuning/genetic.h"
#include "src/tuning/objective.h"
#include "src/tuning/random_search.h"
#include "src/tuning/smac.h"

namespace smartml {

namespace {
constexpr char kAlgorithmKey[] = "algorithm";
}

StatusOr<ParamSpace> BuildCashSpace(
    const std::vector<std::string>& algorithms) {
  if (algorithms.empty()) {
    return Status::InvalidArgument("cash: no algorithms");
  }
  ParamSpace joint;
  joint.AddCategorical(kAlgorithmKey, algorithms, algorithms.front());
  for (const std::string& algo : algorithms) {
    SMARTML_ASSIGN_OR_RETURN(ParamSpace space, SpaceFor(algo));
    for (const ParamSpec& spec : space.specs()) {
      ParamSpec prefixed = spec;
      prefixed.name = algo + ":" + spec.name;
      if (!prefixed.parent.empty()) {
        // Keep intra-algorithm conditionality, re-rooted on prefixed names.
        prefixed.parent = algo + ":" + prefixed.parent;
      }
      switch (prefixed.type) {
        case ParamType::kDouble:
          joint.AddDouble(prefixed.name, prefixed.min_value,
                          prefixed.max_value, prefixed.default_double,
                          prefixed.log_scale);
          break;
        case ParamType::kInt:
          joint.AddInt(prefixed.name,
                       static_cast<int64_t>(prefixed.min_value),
                       static_cast<int64_t>(prefixed.max_value),
                       prefixed.default_int, prefixed.log_scale);
          break;
        case ParamType::kCategorical:
          joint.AddCategorical(prefixed.name, prefixed.choices,
                               prefixed.default_choice);
          break;
      }
      if (!prefixed.parent.empty()) {
        joint.Condition(prefixed.name, prefixed.parent, spec.parent_values);
      } else {
        // Active only when this algorithm is selected.
        joint.Condition(prefixed.name, kAlgorithmKey, {algo});
      }
    }
  }
  return joint;
}

StatusOr<std::pair<std::string, ParamConfig>> DecodeCashConfig(
    const ParamConfig& joint) {
  const std::string algo = joint.GetChoice(kAlgorithmKey, "");
  if (algo.empty()) {
    return Status::InvalidArgument("cash: config lacks 'algorithm'");
  }
  const std::string prefix = algo + ":";
  ParamConfig local;
  for (const auto& [key, value] : joint.values()) {
    if (key.rfind(prefix, 0) != 0) continue;
    const std::string local_key = key.substr(prefix.size());
    if (const double* d = std::get_if<double>(&value)) {
      local.SetDouble(local_key, *d);
    } else if (const int64_t* i = std::get_if<int64_t>(&value)) {
      local.SetInt(local_key, *i);
    } else {
      local.SetChoice(local_key, std::get<std::string>(value));
    }
  }
  return std::make_pair(algo, local);
}

namespace {

// Joint-space objective: decodes the algorithm choice and delegates to a
// per-algorithm ClassifierObjective sharing one fold split.
class CashObjective : public TuningObjective {
 public:
  static StatusOr<std::unique_ptr<CashObjective>> Create(
      const std::vector<std::string>& algorithms, const Dataset& train,
      int cv_folds, uint64_t seed) {
    auto objective = std::unique_ptr<CashObjective>(new CashObjective());
    for (const std::string& algo : algorithms) {
      SMARTML_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> prototype,
                               CreateClassifier(algo));
      SMARTML_ASSIGN_OR_RETURN(
          std::unique_ptr<ClassifierObjective> per_algo,
          ClassifierObjective::Create(*prototype, train, cv_folds, seed));
      objective->num_folds_ = per_algo->NumFolds();
      objective->delegates_.emplace(algo, std::move(per_algo));
    }
    return objective;
  }

  size_t NumFolds() const override { return num_folds_; }

  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override {
    SMARTML_ASSIGN_OR_RETURN(auto decoded, DecodeCashConfig(config));
    auto it = delegates_.find(decoded.first);
    if (it == delegates_.end()) {
      return Status::InvalidArgument("cash: unknown algorithm '" +
                                     decoded.first + "'");
    }
    return it->second->EvaluateFold(decoded.second, fold);
  }

 private:
  CashObjective() = default;
  std::map<std::string, std::unique_ptr<ClassifierObjective>> delegates_;
  size_t num_folds_ = 0;
};

}  // namespace

StatusOr<CashResult> RunAutoWekaBaseline(const Dataset& dataset,
                                         const CashOptions& options) {
  std::vector<std::string> algorithms = options.algorithms;
  if (algorithms.empty()) algorithms = AllAlgorithmNames();

  SMARTML_ASSIGN_OR_RETURN(
      TrainValidationSplit split,
      StratifiedSplit(dataset, options.validation_fraction, options.seed));

  SMARTML_ASSIGN_OR_RETURN(ParamSpace joint, BuildCashSpace(algorithms));
  SMARTML_ASSIGN_OR_RETURN(
      std::unique_ptr<CashObjective> objective,
      CashObjective::Create(algorithms, split.train, options.cv_folds,
                            options.seed));

  TunerOptions tuner_options;
  tuner_options.deadline = Deadline::After(options.time_budget_seconds);
  tuner_options.max_evaluations =
      options.max_evaluations > 0 ? options.max_evaluations : 1000000;
  tuner_options.seed = options.seed;
  TunedResult tuned;
  if (options.optimizer == CashOptions::Optimizer::kSmac) {
    SmacOptions smac_options;
    static_cast<TunerOptions&>(smac_options) = tuner_options;
    SMARTML_ASSIGN_OR_RETURN(tuned, Smac(joint, objective.get(),
                                         smac_options));
  } else if (options.optimizer == CashOptions::Optimizer::kGenetic) {
    GeneticOptions genetic_options;
    static_cast<TunerOptions&>(genetic_options) = tuner_options;
    SMARTML_ASSIGN_OR_RETURN(
        tuned, GeneticSearch(joint, objective.get(), genetic_options));
  } else {
    SMARTML_ASSIGN_OR_RETURN(
        tuned, RandomSearch(joint, objective.get(), tuner_options));
  }

  CashResult result;
  SMARTML_ASSIGN_OR_RETURN(auto decoded, DecodeCashConfig(tuned.best_config));
  result.best_algorithm = decoded.first;
  result.best_config = decoded.second;
  result.tuning_cost = tuned.best_cost;
  result.evaluations = tuned.num_evaluations;
  result.trajectory = std::move(tuned.trajectory);

  // Refit on the training partition; score on the held-out validation
  // partition (the same protocol as SmartML's tuning phase).
  SMARTML_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> prototype,
                           CreateClassifier(result.best_algorithm));
  result.validation_accuracy =
      FitAndValidate(*prototype, result.best_config, split.train,
                     split.validation)
          .validation_accuracy;
  return result;
}

}  // namespace smartml
