#include "src/ml/forest.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace smartml {

namespace {

// Fits `count` trees, each on its own draw of `fraction` * n rows with
// replacement, given to the tree as per-row weights so every tree shares one
// feature matrix and one binned view. Tree t draws from the stream keyed on
// (base_seed, t), so the forest is identical at any thread count.
Status FitBootstrapTrees(const Dataset& train, const TreeOptions& options,
                         size_t count, double fraction, uint64_t base_seed,
                         std::vector<DecisionTree>* trees) {
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);
  const std::shared_ptr<const BinnedColumns> binned = train.Binned();
  const int num_classes = static_cast<int>(train.NumClasses());
  const size_t n = train.NumRows();
  const size_t draws = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n) + 0.5));
  trees->clear();
  trees->resize(count);
  return ParallelFor(
      count,
      [&](size_t t) -> Status {
        Rng rng(TaskSeed(base_seed, t));
        std::vector<double> weights(n, 0.0);
        for (size_t i = 0; i < draws; ++i) weights[rng.UniformInt(n)] += 1.0;
        TreeOptions tree_options = options;
        tree_options.seed = rng.NextU64();
        return (*trees)[t].Fit(x, schema, train.labels(), num_classes, weights,
                               tree_options, binned);
      });
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

Status RandomForestClassifier::FitImpl(const Dataset& train,
                                       const ParamConfig& config) {
  const int ntree = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("ntree", 100), 1, 2000));
  const double mtry_frac =
      std::clamp(config.GetDouble("mtry_frac", 0.3), 0.01, 1.0);
  const auto nodesize = static_cast<size_t>(
      std::max<int64_t>(1, config.GetInt("nodesize", 1)));

  // randomForest's default mtry is sqrt(d); mtry_frac scales around that by
  // interpolating between 1 and d.
  const auto num_features = static_cast<int>(train.NumFeatures());
  int mtry = static_cast<int>(
      std::lround(mtry_frac * static_cast<double>(num_features)));
  mtry = std::clamp(mtry, 1, num_features);

  TreeOptions options;
  options.criterion = TreeCriterion::kGini;
  options.multiway_categorical = false;
  options.min_leaf = nodesize;
  options.min_split = std::max<size_t>(2, 2 * nodesize);
  options.max_depth = 40;
  options.mtry = mtry;

  return FitBootstrapTrees(train, options, static_cast<size_t>(ntree),
                           /*fraction=*/1.0,
                           static_cast<uint64_t>(config.GetInt("seed", 11)),
                           &trees_);
}

std::vector<double> RandomForestClassifier::FeatureImportances() const {
  std::vector<double> imp(num_features(), 0.0);
  for (const auto& tree : trees_) {
    const std::vector<double> t = tree.FeatureImportances(num_features());
    for (size_t f = 0; f < num_features(); ++f) imp[f] += t[f];
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

Status BaggingClassifier::FitImpl(const Dataset& train,
                                  const ParamConfig& config) {
  const int nbagg = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("nbagg", 25), 1, 1000));
  const double subsample =
      std::clamp(config.GetDouble("subsample", 1.0), 0.05, 1.0);

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

  return FitBootstrapTrees(train, options, static_cast<size_t>(nbagg),
                           subsample,
                           static_cast<uint64_t>(config.GetInt("seed", 13)),
                           &trees_);
}

}  // namespace smartml
