// SMAC: sequential model-based algorithm configuration (Hutter et al.,
// LION 2011) — the Bayesian optimizer SmartML uses for hyperparameter
// tuning.
//
// Faithful structure: a random-forest regression surrogate supplies the
// predictive mean and variance (from the spread of per-tree predictions),
// expected improvement selects challengers (random + local search around the
// best predictions), random challengers are interleaved for coverage, and an
// intensification race compares challengers against the incumbent on
// increasing numbers of CV folds so weak configs are discarded after few
// folds.
#ifndef SMARTML_TUNING_SMAC_H_
#define SMARTML_TUNING_SMAC_H_

#include <vector>

#include "src/common/rng.h"
#include "src/linalg/matrix.h"
#include "src/tuning/objective.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// Random-forest regressor over encoded configurations — SMAC's surrogate.
/// Exposed for testing and for the micro benchmarks.
class RegressionForest {
 public:
  struct Options {
    int num_trees = 10;
    size_t min_leaf = 3;
    int max_depth = 24;
    double feature_fraction = 0.8;
    uint64_t seed = 5;
  };

  /// Fits on rows of `x` with targets `y`.
  Status Fit(const Matrix& x, const std::vector<double>& y,
             const Options& options);

  /// Predictive mean and variance (variance of per-tree means).
  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };
  Prediction Predict(const std::vector<double>& row) const;

  bool fitted() const { return !trees_.empty(); }

 private:
  struct Node {
    bool leaf = true;
    int feature = -1;
    double threshold = 0.0;
    int left = -1, right = -1;
    double value = 0.0;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  int BuildNode(Tree* tree, const Matrix& x, const std::vector<double>& y,
                const std::vector<size_t>& rows, int depth, Rng* rng) const;
  static double PredictTree(const Tree& tree, const double* row);

  std::vector<Tree> trees_;
  Options options_;
  size_t dim_ = 0;
};

/// The shared TunerOptions with SMAC's default budget of 120 fold
/// evaluations. initial_configs are evaluated before model-based search
/// begins. With checkpoint set, the run snapshots its full search
/// state (RNG stream, evaluated configs, fold costs, incumbent, trajectory)
/// at the top of every iteration; the continuation is bit-identical to an
/// uninterrupted run because the objective is deterministic per (config,
/// fold) and doubles round-trip exactly.
struct SmacOptions : TunerOptions {
  SmacOptions() { max_evaluations = 120; }
};

/// Runs SMAC on `objective`, minimizing mean fold cost.
StatusOr<TunedResult> Smac(const ParamSpace& space, TuningObjective* objective,
                           const SmacOptions& options);

}  // namespace smartml

#endif  // SMARTML_TUNING_SMAC_H_
