// Model interpretability (the paper integrates the R `iml` package "to
// explain for the user the most important features"): permutation feature
// importance and partial-dependence-style feature effects.
#ifndef SMARTML_INTERPRET_INTERPRET_H_
#define SMARTML_INTERPRET_INTERPRET_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/ml/classifier.h"

namespace smartml {

/// One feature's permutation importance.
struct FeatureImportance {
  std::string feature;
  /// Accuracy drop when the feature is permuted (>= 0 means informative).
  double importance = 0.0;
};

/// Permutation importance of every feature of `data` for trained `model`,
/// sorted descending. `repeats` permutations are averaged per feature.
///
/// The RNG seeded with `seed` shuffles a fresh copy of column f once per
/// (feature, repeat), features in order and repeats within each feature.
/// Tree-vote learners (those with a non-empty Classifier::tree_vote():
/// random_forest, bagging, c50, deepboost) take a cached path: each row's
/// leaf in each tree is found once, and a permutation re-walks only the
/// (row, tree) pairs whose root-to-leaf path tests the permuted feature,
/// summing changed rows as VoteTrees does. Every other learner predicts a
/// copy of `data` whose column f is shuffled and restored in place. Both
/// paths give the bits a full PredictProba per permutation would.
StatusOr<std::vector<FeatureImportance>> PermutationImportance(
    const Classifier& model, const Dataset& data, int repeats = 3,
    uint64_t seed = 97);

/// Partial-dependence curve of one numeric feature: the mean predicted
/// probability of `target_class` while the feature is swept over a grid.
struct PartialDependence {
  std::string feature;
  std::vector<double> grid;
  std::vector<double> mean_probability;
};

StatusOr<PartialDependence> ComputePartialDependence(
    const Classifier& model, const Dataset& data, size_t feature_index,
    int target_class, int grid_points = 12);

}  // namespace smartml

#endif  // SMARTML_INTERPRET_INTERPRET_H_
