#include "src/ml/forest.h"

#include <algorithm>
#include <cmath>

#include "src/common/cancellation.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace smartml {

namespace {

// Bootstrap (or subsampled) row draw.
std::vector<size_t> DrawSample(size_t n, double fraction, bool with_replacement,
                               Rng* rng) {
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n) + 0.5));
  std::vector<size_t> rows(m);
  if (with_replacement) {
    for (size_t i = 0; i < m; ++i) rows[i] = rng->UniformInt(n);
  } else {
    std::vector<size_t> perm = rng->Permutation(n);
    perm.resize(std::min(m, n));
    rows = std::move(perm);
  }
  return rows;
}

StatusOr<std::vector<std::vector<double>>> ForestPredict(
    const std::vector<DecisionTree>& trees, const Dataset& data,
    size_t num_features, int num_classes) {
  if (trees.empty()) {
    return Status::FailedPrecondition("forest: not fitted");
  }
  if (data.NumFeatures() != num_features) {
    return Status::InvalidArgument("forest: schema mismatch");
  }
  return VoteTrees(trees, /*weights=*/{}, data.ToRawMatrix(), num_classes);
}

}  // namespace

// ---------------------------------------------------------------------------
// RandomForest
// ---------------------------------------------------------------------------

ParamSpace RandomForestClassifier::Space() {
  ParamSpace space;
  space.AddInt("ntree", 10, 300, 100, /*log_scale=*/true);
  space.AddDouble("mtry_frac", 0.05, 1.0, 0.3);
  space.AddInt("nodesize", 1, 20, 1, /*log_scale=*/true);
  return space;
}

Status RandomForestClassifier::Fit(const Dataset& train,
                                   const ParamConfig& config) {
  if (train.NumRows() == 0) {
    return Status::InvalidArgument("random_forest: empty training data");
  }
  const int ntree = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("ntree", 100), 1, 2000));
  const double mtry_frac =
      std::clamp(config.GetDouble("mtry_frac", 0.3), 0.01, 1.0);
  const auto nodesize = static_cast<size_t>(
      std::max<int64_t>(1, config.GetInt("nodesize", 1)));

  num_features_ = train.NumFeatures();
  num_classes_ = static_cast<int>(train.NumClasses());
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);

  // randomForest's default mtry is sqrt(d); mtry_frac scales around that by
  // interpolating between 1 and d.
  int mtry = static_cast<int>(std::lround(
      mtry_frac * static_cast<double>(num_features_)));
  mtry = std::clamp(mtry, 1, static_cast<int>(num_features_));

  TreeOptions options;
  options.criterion = TreeCriterion::kGini;
  options.multiway_categorical = false;
  options.min_leaf = nodesize;
  options.min_split = std::max<size_t>(2, 2 * nodesize);
  options.max_depth = 40;
  options.mtry = mtry;

  // One binned view of the training table, built once and shared read-only
  // by every tree worker (bootstraps are per-row weights, so all trees see
  // the same rows).
  const std::shared_ptr<const BinnedColumns> binned = train.Binned();

  const uint64_t base_seed =
      static_cast<uint64_t>(config.GetInt("seed", 11));
  trees_.clear();
  trees_.resize(static_cast<size_t>(ntree));
  // Each tree gets its own decorrelated RNG stream keyed on (seed, index),
  // so the forest is identical at any thread count.
  SMARTML_RETURN_NOT_OK(ParallelFor(
      static_cast<size_t>(ntree),
      [&](size_t t) -> Status {
        Rng rng(TaskSeed(base_seed, t));
        const std::vector<size_t> rows = DrawSample(train.NumRows(), 1.0,
                                                    /*with_replacement=*/true,
                                                    &rng);
        // Bootstrap via per-row weights so trees share one feature matrix.
        std::vector<double> weights(train.NumRows(), 0.0);
        for (size_t r : rows) weights[r] += 1.0;
        TreeOptions tree_options = options;
        tree_options.seed = rng.NextU64();
        return trees_[t].Fit(x, schema, train.labels(), num_classes_, weights,
                             tree_options, binned);
      },
      CurrentCancelToken()));
  return Status::OK();
}

StatusOr<std::vector<std::vector<double>>> RandomForestClassifier::PredictProba(
    const Dataset& data) const {
  return ForestPredict(trees_, data, num_features_, num_classes_);
}

std::vector<double> RandomForestClassifier::FeatureImportances() const {
  std::vector<double> imp(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const std::vector<double> t = tree.FeatureImportances(num_features_);
    for (size_t f = 0; f < num_features_; ++f) imp[f] += t[f];
  }
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

// ---------------------------------------------------------------------------
// Bagging
// ---------------------------------------------------------------------------

ParamSpace BaggingClassifier::Space() {
  ParamSpace space;
  space.AddInt("nbagg", 5, 150, 25, /*log_scale=*/true);
  space.AddInt("minsplit", 2, 60, 20, /*log_scale=*/true);
  space.AddInt("maxdepth", 2, 30, 30);
  space.AddDouble("cp", 1e-4, 0.2, 0.01, /*log_scale=*/true);
  space.AddDouble("subsample", 0.4, 1.0, 1.0);
  return space;
}

Status BaggingClassifier::Fit(const Dataset& train, const ParamConfig& config) {
  if (train.NumRows() == 0) {
    return Status::InvalidArgument("bagging: empty training data");
  }
  const int nbagg = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("nbagg", 25), 1, 1000));
  const double subsample =
      std::clamp(config.GetDouble("subsample", 1.0), 0.05, 1.0);

  num_features_ = train.NumFeatures();
  num_classes_ = static_cast<int>(train.NumClasses());
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);

  TreeOptions options;
  options.criterion = TreeCriterion::kGini;
  options.multiway_categorical = false;
  options.min_split = static_cast<size_t>(
      std::max<int64_t>(2, config.GetInt("minsplit", 20)));
  options.min_leaf = std::max<size_t>(1, options.min_split / 3);
  options.max_depth = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("maxdepth", 30), 1, 60));
  options.min_impurity_decrease =
      std::clamp(config.GetDouble("cp", 0.01), 0.0, 1.0);

  const std::shared_ptr<const BinnedColumns> binned = train.Binned();

  const uint64_t base_seed =
      static_cast<uint64_t>(config.GetInt("seed", 13));
  trees_.clear();
  trees_.resize(static_cast<size_t>(nbagg));
  // Per-tree RNG streams keyed on (seed, index), as in RandomForest.
  SMARTML_RETURN_NOT_OK(ParallelFor(
      static_cast<size_t>(nbagg),
      [&](size_t t) -> Status {
        Rng rng(TaskSeed(base_seed, t));
        const std::vector<size_t> rows =
            DrawSample(train.NumRows(), subsample, /*with_replacement=*/true,
                       &rng);
        std::vector<double> weights(train.NumRows(), 0.0);
        for (size_t r : rows) weights[r] += 1.0;
        TreeOptions tree_options = options;
        tree_options.seed = rng.NextU64();
        return trees_[t].Fit(x, schema, train.labels(), num_classes_, weights,
                             tree_options, binned);
      },
      CurrentCancelToken()));
  return Status::OK();
}

StatusOr<std::vector<std::vector<double>>> BaggingClassifier::PredictProba(
    const Dataset& data) const {
  return ForestPredict(trees_, data, num_features_, num_classes_);
}

}  // namespace smartml
