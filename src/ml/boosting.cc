#include "src/ml/boosting.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/common/cancellation.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace smartml {

namespace {

// Masks winnowed-out feature columns with NaN so the tree builder never
// splits on them (NaN cells are treated as missing and skipped).
Matrix ApplyFeatureMask(const Matrix& x, const std::vector<bool>& active) {
  Matrix out = x;
  for (size_t c = 0; c < x.cols(); ++c) {
    if (active[c]) continue;
    for (size_t r = 0; r < x.rows(); ++r) {
      out(r, c) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return out;
}

// One SAMME boosting run shared by both classifiers. `alpha_shrink` is the
// DeepBoost complexity regularizer applied to each round's vote weight
// (0 for plain C5.0 boosting). `logistic_weights` switches the sample
// reweighting from exponential to logistic-style (bounded) updates.
// `binned` is a view of the rows of `x`, shared by every round: only the
// sample weights change between rounds, never the feature values.
struct BoostResult {
  std::vector<DecisionTree> trees;
  std::vector<double> alphas;
};

Status RunSamme(const Matrix& x, const TreeSchema& schema,
                std::shared_ptr<const BinnedColumns> binned,
                const std::vector<int>& y, int num_classes, int rounds,
                const TreeOptions& tree_options, bool early_stopping,
                double beta, double lambda, bool logistic_weights,
                uint64_t seed, BoostResult* out) {
  const size_t n = x.rows();
  // Weights are kept at sample scale (sum == n): the tree's pruning bounds
  // interpret node weight as a case count, so unit-mean weights are required
  // for sane pessimistic-error estimates.
  std::vector<double> weights(n, 1.0);
  Rng rng(seed);
  const double k = std::max(2, num_classes);
  const double log_km1 = std::log(k - 1.0);

  for (int round = 0; round < rounds; ++round) {
    if (CancellationRequested()) {
      return Status::Cancelled("boosting: fit cancelled");
    }
    TreeOptions options = tree_options;
    options.seed = rng.NextU64();
    DecisionTree tree;
    SMARTML_RETURN_NOT_OK(
        tree.Fit(x, schema, y, num_classes, weights, options, binned));
    // Weighted training error of this round. Row predictions are
    // independent and run in parallel; the error accumulation stays
    // sequential so floating-point sums are identical at any thread count.
    std::vector<int> predictions(n);
    SMARTML_RETURN_NOT_OK(ParallelForRanges(
        n, /*grain=*/256,
        [&](size_t begin, size_t end) -> Status {
          for (size_t r = begin; r < end; ++r) {
            predictions[r] = tree.PredictRow(x.RowPtr(r));
          }
          return Status::OK();
        }));
    double err = 0.0;
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += weights[r];
      if (predictions[r] != y[r]) err += weights[r];
    }
    err = total > 0 ? err / total : 1.0;

    if (err <= 1e-10) {
      // Perfect tree: take it with a large (capped) weight and stop.
      out->trees.push_back(std::move(tree));
      out->alphas.push_back(std::max(0.1, 5.0 + log_km1 - beta));
      break;
    }
    const double random_error = 1.0 - 1.0 / k;
    if (err >= random_error) {
      if (out->trees.empty()) {
        // Keep one tree regardless so the model is usable.
        out->trees.push_back(std::move(tree));
        out->alphas.push_back(1.0);
      }
      if (early_stopping) break;
      // Reset weights and continue (C5.0 behaviour on a bad round).
      weights.assign(n, 1.0);
      continue;
    }

    double alpha = std::log((1.0 - err) / err) + log_km1;
    // DeepBoost regularizer: complexity-scaled shrinkage of the vote.
    if (beta > 0 || lambda > 0) {
      const double complexity =
          std::sqrt(static_cast<double>(tree.NumLeaves())) /
          std::sqrt(static_cast<double>(std::max<size_t>(n, 1)));
      alpha -= beta + lambda * complexity;
      if (alpha <= 0) {
        if (early_stopping) break;
        continue;  // Tree too weak for its complexity: skip it.
      }
    }

    // Reweight samples.
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      if (predictions[r] != y[r]) {
        if (logistic_weights) {
          // Bounded logistic-style update.
          weights[r] *= 1.0 + std::min(alpha, 4.0);
        } else {
          weights[r] *= std::exp(alpha);
        }
      }
      sum += weights[r];
    }
    const double rescale = static_cast<double>(n) / sum;
    for (double& w : weights) w *= rescale;

    out->trees.push_back(std::move(tree));
    out->alphas.push_back(alpha);
  }

  if (out->trees.empty()) {
    return Status::Internal("boosting produced no usable trees");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// C5.0
// ---------------------------------------------------------------------------

ParamSpace C50Classifier::Space() {
  ParamSpace space;
  space.AddCategorical("winnow", {"no", "yes"}, "no");
  space.AddCategorical("rules", {"no", "yes"}, "no");
  space.AddCategorical("earlyStopping", {"yes", "no"}, "yes");
  space.AddInt("trials", 1, 60, 10, /*log_scale=*/true);
  space.AddDouble("CF", 0.05, 0.5, 0.25);
  return space;
}

Status C50Classifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  const size_t num_features = train.NumFeatures();
  const int num_classes = static_cast<int>(train.NumClasses());
  const int trials = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("trials", 10), 1, 200));
  const bool winnow = config.GetChoice("winnow", "no") == "yes";
  const bool rules = config.GetChoice("rules", "no") == "yes";
  const bool early = config.GetChoice("earlyStopping", "yes") == "yes";
  const double cf = std::clamp(config.GetDouble("CF", 0.25), 0.001, 0.5);
  const auto seed = static_cast<uint64_t>(config.GetInt("seed", 29));

  Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);

  TreeOptions options;
  options.criterion = TreeCriterion::kGainRatio;
  options.multiway_categorical = true;
  options.confidence_factor = cf;
  options.min_leaf = 2;
  options.min_split = 4;
  // Rules mode in C5.0 generalizes the tree into simpler overlapping rules;
  // we approximate its effect with shallower, more regular trees.
  options.max_depth = rules ? 8 : 30;

  std::shared_ptr<const BinnedColumns> binned = train.Binned();
  active_features_.assign(num_features, true);
  if (winnow && num_features > 2) {
    // Screening pass: drop features that contribute no split gain to an
    // unboosted tree (C5.0's winnowing estimates predictive value upfront).
    DecisionTree probe;
    SMARTML_RETURN_NOT_OK(probe.Fit(x, schema, train.labels(), num_classes,
                                    {}, options, binned));
    const std::vector<double> imp = probe.FeatureImportances(num_features);
    size_t kept = 0;
    for (size_t f = 0; f < num_features; ++f) {
      active_features_[f] = imp[f] > 0.0;
      if (active_features_[f]) ++kept;
    }
    if (kept == 0) {
      active_features_.assign(num_features, true);
    } else if (kept < num_features) {
      x = ApplyFeatureMask(x, active_features_);
      binned = std::make_shared<const BinnedColumns>(BinnedColumns::FromMatrix(
          x, schema.categorical, schema.cardinalities));
    }
  }

  BoostResult result;
  SMARTML_RETURN_NOT_OK(RunSamme(x, schema, binned, train.labels(),
                                 num_classes, trials, options, early,
                                 /*beta=*/0.0, /*lambda=*/0.0,
                                 /*logistic_weights=*/false, seed, &result));
  trees_ = std::move(result.trees);
  weights_ = std::move(result.alphas);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DeepBoost
// ---------------------------------------------------------------------------

ParamSpace DeepBoostClassifier::Space() {
  ParamSpace space;
  space.AddCategorical("loss_type", {"exponential", "logistic"},
                       "exponential");
  space.AddInt("num_iter", 5, 100, 30, /*log_scale=*/true);
  space.AddDouble("beta", 0.0, 0.5, 0.0);
  space.AddDouble("lambda", 0.0, 1.0, 0.05);
  space.AddInt("tree_depth", 1, 8, 3);
  return space;
}

Status DeepBoostClassifier::FitImpl(const Dataset& train,
                                    const ParamConfig& config) {
  const int rounds = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("num_iter", 30), 1, 500));
  const double beta = std::clamp(config.GetDouble("beta", 0.0), 0.0, 5.0);
  const double lambda = std::clamp(config.GetDouble("lambda", 0.05), 0.0, 5.0);
  const int depth = static_cast<int>(
      std::clamp<int64_t>(config.GetInt("tree_depth", 3), 1, 12));
  const bool logistic =
      config.GetChoice("loss_type", "exponential") == "logistic";
  const auto seed = static_cast<uint64_t>(config.GetInt("seed", 31));

  TreeOptions options;
  options.criterion = TreeCriterion::kGini;
  options.multiway_categorical = false;
  options.max_depth = depth;
  options.min_leaf = 1;
  options.min_split = 2;

  BoostResult result;
  SMARTML_RETURN_NOT_OK(RunSamme(
      train.ToRawMatrix(), TreeSchema::FromDataset(train), train.Binned(),
      train.labels(), static_cast<int>(train.NumClasses()), rounds, options,
      /*early_stopping=*/false, beta, lambda, logistic, seed, &result));
  trees_ = std::move(result.trees);
  weights_ = std::move(result.alphas);
  return Status::OK();
}

}  // namespace smartml
