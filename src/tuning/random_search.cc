#include "src/tuning/random_search.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tuning/checkpoint_codec.h"
#include "src/tuning/parallel_eval.h"

namespace smartml {

namespace {

// Random search's checkpoint blob: RNG stream, remaining budget, seed
// cursor, and the best-so-far result. Saved at every batch boundary;
// restored (all-or-nothing) before the first one.
constexpr char kSearchHeader[] = "search-ckpt 1";

std::string SerializeSearchState(const Rng& rng, int evaluations_left,
                                 size_t next_seed, const TunedResult& result) {
  std::ostringstream out;
  CkptAppendHeader(kSearchHeader, rng, evaluations_left, &out);
  out << "seedcursor " << next_seed << '\n';
  CkptAppendResult(result, &out);
  out << "end\n";
  return out.str();
}

bool RestoreSearchState(const std::string& blob, Rng* rng,
                        int* evaluations_left, size_t* next_seed,
                        TunedResult* result) {
  std::istringstream in(blob);
  std::array<uint64_t, 4> state{};
  int left = 0;
  size_t cursor = 0;
  TunedResult restored;
  if (!CkptReadHeader(&in, kSearchHeader, &state, &left) ||
      !CkptExpect(&in, "seedcursor") || !(in >> cursor) ||
      !CkptReadResult(&in, &restored) || !CkptExpect(&in, "end")) {
    return false;
  }
  rng->SetState(state);
  *evaluations_left = left;
  *next_seed = cursor;
  *result = std::move(restored);
  return true;
}

// The loop random and grid search share: batches of one config per
// participant in the run's thread pool (1 when the run is sequential),
// pulled from `next_config` until it returns false, the budget is spent or
// the deadline passes. Batch size only affects grouping, never which
// (config, fold) pairs get evaluated, so results are identical at any
// thread count for evaluation-capped runs. `serialize`, when set, is
// checkpointed at every batch boundary.
StatusOr<TunedResult> SearchLoop(
    const char* tuner, TuningObjective* objective, const TunerOptions& options,
    const std::function<bool(ParamConfig*)>& next_config,
    const std::function<std::string(int, const TunedResult&)>& serialize,
    int evaluations_left, TunedResult result) {
  ThreadPool* pool = CurrentRunContext().pool;
  const size_t batch_configs =
      pool == nullptr ? 1 : static_cast<size_t>(pool->num_workers()) + 1;
  const size_t folds = objective->NumFolds();
  bool more = true;
  while (more && evaluations_left > 0 && !options.deadline.Expired()) {
    if (serialize) {
      CkptPut(tuner, options,
              [&] { return serialize(evaluations_left, result); });
    }
    std::vector<ParamConfig> batch;
    ParamConfig config;
    while (batch.size() < batch_configs &&
           batch.size() * folds < static_cast<size_t>(evaluations_left) &&
           (more = next_config(&config))) {
      batch.push_back(std::move(config));
    }
    SMARTML_RETURN_NOT_OK(
        EvaluateBatch(tuner, objective, batch, &evaluations_left, &result)
            .status());
  }
  return FinishTuning(tuner, std::move(result));
}

}  // namespace

StatusOr<TunedResult> RandomSearch(const ParamSpace& space,
                                   TuningObjective* objective,
                                   const TunerOptions& options) {
  SMARTML_RETURN_NOT_OK(CheckObjective("random", objective));
  TunedResult result;
  result.best_config = space.DefaultConfig();
  int evaluations_left = options.max_evaluations;
  Rng rng(options.seed);

  // Deterministic config stream: warm-start configs first, then the
  // default, then random draws. Drawing never depends on evaluation
  // results, so the stream — and with it the whole search — is identical at
  // any thread count.
  std::vector<ParamConfig> seeds = options.initial_configs;
  seeds.push_back(space.DefaultConfig());
  size_t next_seed = 0;

  const std::optional<std::string> blob = CkptGet("random", options);
  if (blob && RestoreSearchState(*blob, &rng, &evaluations_left, &next_seed,
                                 &result)) {
    SMARTML_LOG_INFO << "random: resumed from checkpoint ("
                     << result.num_evaluations << " evaluations done)";
  }
  return SearchLoop(
      "random", objective, options,
      [&](ParamConfig* config) {
        *config = next_seed < seeds.size() ? space.Repair(seeds[next_seed++])
                                           : space.Sample(&rng);
        return true;
      },
      [&](int left, const TunedResult& so_far) {
        return SerializeSearchState(rng, left, next_seed, so_far);
      },
      evaluations_left, std::move(result));
}

StatusOr<TunedResult> GridSearch(const ParamSpace& space,
                                 TuningObjective* objective,
                                 const TunerOptions& options,
                                 int points_per_numeric) {
  SMARTML_RETURN_NOT_OK(CheckObjective("grid", objective));
  // Build per-parameter level lists.
  std::vector<ParamConfig> grid;
  grid.emplace_back();
  const int levels = std::max(2, points_per_numeric);
  for (const ParamSpec& spec : space.specs()) {
    std::vector<ParamConfig> expanded;
    for (const ParamConfig& partial : grid) {
      switch (spec.type) {
        case ParamType::kCategorical:
          for (const std::string& choice : spec.choices) {
            ParamConfig next = partial;
            next.SetChoice(spec.name, choice);
            expanded.push_back(std::move(next));
          }
          break;
        case ParamType::kDouble:
        case ParamType::kInt: {
          const auto scale = [&](double v) {
            return spec.log_scale ? std::log(std::max(v, 1e-12)) : v;
          };
          const double lo = scale(spec.min_value), hi = scale(spec.max_value);
          for (int level = 0; level < levels; ++level) {
            const double frac =
                static_cast<double>(level) / static_cast<double>(levels - 1);
            const double x = lo + frac * (hi - lo);
            const double v = spec.log_scale ? std::exp(x) : x;
            ParamConfig next = partial;
            if (spec.type == ParamType::kInt) {
              next.SetInt(spec.name, static_cast<int64_t>(std::llround(v)));
            } else {
              next.SetDouble(spec.name, v);
            }
            expanded.push_back(std::move(next));
          }
          break;
        }
      }
    }
    grid = std::move(expanded);
    if (grid.size() > 100000) {
      return Status::InvalidArgument("grid search: grid too large");
    }
  }

  TunedResult result;
  result.best_config = space.DefaultConfig();
  size_t next = 0;
  return SearchLoop(
      "grid", objective, options,
      [&](ParamConfig* config) {
        if (next == grid.size()) return false;
        *config = space.Repair(grid[next++]);
        return true;
      },
      nullptr, options.max_evaluations, std::move(result));
}

}  // namespace smartml
