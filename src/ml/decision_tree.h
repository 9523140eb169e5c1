// Shared decision-tree engine.
//
// One configurable tree builder backs eight of the fifteen classifiers:
// J48/C5.0/PART use the gain-ratio criterion with C4.5 error-based pruning
// and multiway categorical splits; rpart/Bagging/RandomForest use Gini with
// binary splits; LMT grows small trees with logistic leaves; DeepBoost
// reweights samples between depth-limited trees.
//
// Growth is one recursive node builder over one split scan. The scan reads
// per-node bin statistics (class-weight sums and row counts per bin, plus a
// missing slot) from one of two sources: a shared BinnedColumns view
// (histograms with parent-minus-sibling reuse at full-feature nodes, only
// the occupied bins at nodes that sample features), or node-local bins made
// by sorting the node's rows, one bin per distinct value (exact split
// search).
// Nodes are stored flat: contiguous children and one class-count buffer
// per tree, so prediction is one leaf lookup with no allocation.
#ifndef SMARTML_ML_DECISION_TREE_H_
#define SMARTML_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/binned_columns.h"
#include "src/data/dataset.h"
#include "src/linalg/matrix.h"

namespace smartml {

/// Split-quality criterion.
enum class TreeCriterion { kGini, kEntropy, kGainRatio };

struct TreeOptions {
  TreeCriterion criterion = TreeCriterion::kGini;
  int max_depth = 30;
  size_t min_split = 2;   ///< Minimum samples at a node to try splitting.
  size_t min_leaf = 1;    ///< Minimum samples in each child.
  /// Minimum fraction of the root impurity a split must remove (rpart's cp).
  double min_impurity_decrease = 0.0;
  /// C4.5 confidence factor for error-based pruning; <= 0 disables pruning.
  double confidence_factor = 0.0;
  /// Number of features examined per split; <= 0 means all (random forests
  /// set this to mtry).
  int mtry = 0;
  /// Multiway splits on categorical features (C4.5 style); false gives
  /// binary one-category-vs-rest splits (CART style).
  bool multiway_categorical = false;
  uint64_t seed = 1;
};

/// Feature typing the tree needs from the Dataset schema.
struct TreeSchema {
  std::vector<bool> categorical;      ///< Per feature.
  std::vector<size_t> cardinalities;  ///< Per feature (0 for numeric).

  static TreeSchema FromDataset(const Dataset& dataset);
};

/// One condition on a root-to-leaf path, for rule extraction (PART).
struct TreeCondition {
  int feature = 0;
  enum class Op { kLessEq, kGreater, kEquals, kNotEquals } op = Op::kLessEq;
  double value = 0.0;
  std::string ToString(const Dataset& schema_source) const;
};

/// A weighted decision tree over the raw feature matrix (one column per
/// feature; categorical cells hold category codes; NaN = missing, routed to
/// the heavier child at predict time).
class DecisionTree {
 public:
  /// Trains the tree. `weights` may be empty (all ones). `x` is the
  /// ToRawMatrix() encoding of the training data. `binned`, when given, is
  /// a binned view of the SAME rows (e.g. Dataset::Binned(), shared across
  /// a whole forest): split search then reads per-node class histograms
  /// over the view's bins. Without a view, or when the view is not
  /// histogram_safe(), each node sorts its rows per feature and makes every
  /// distinct value a bin of its own. Both feed the same split scan.
  Status Fit(const Matrix& x, const TreeSchema& schema,
             const std::vector<int>& y, int num_classes,
             const std::vector<double>& weights, const TreeOptions& options,
             std::shared_ptr<const BinnedColumns> binned = nullptr);

  /// One stored node. The children of an internal node are the contiguous
  /// nodes [first_child, first_child + num_children); a leaf has none.
  struct Node {
    int feature = -1;
    bool categorical_split = false;
    double threshold = 0.0;  ///< Numeric: child 0 iff value <= threshold.
    /// Binary categorical: child 0 iff code == category. -1 on a multiway
    /// split, whose child index is the category code.
    int category = -1;
    int first_child = 0;
    int num_children = 0;
    int majority_child = 0;  ///< Missing values follow this child.
    double weight = 0.0;
    int majority = 0;
    int depth = 0;
    double split_gain = 0.0;  ///< Weighted impurity decrease of the split.

    bool leaf() const { return num_children == 0; }
  };

  /// The child of `node` a value goes to, or -1 when the value is missing
  /// (or a category code the multiway split has no child for).
  static int Branch(const Node& node, double v);

  /// Index of the leaf a raw-encoded row lands in (-1 when unfitted).
  int LeafIndexForRow(const double* row) const;

  /// Adds `scale` times the leaf's Laplace-smoothed class frequencies to
  /// out[0, num_classes).
  void AddLeafProba(int leaf, double scale, double* out) const;

  /// Majority class of the leaf a row lands in.
  int PredictRow(const double* row) const;

  int num_classes() const { return num_classes_; }
  /// Every node grown, including subtrees that pruning detached.
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumLeaves() const;
  int Depth() const;
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Leaves as (path conditions, weight, class counts), heaviest first —
  /// PART picks the best-covering leaf as its next rule.
  struct LeafRule {
    std::vector<TreeCondition> conditions;
    double weight = 0.0;
    std::vector<double> class_counts;
    int majority = 0;
  };
  std::vector<LeafRule> ExtractLeafRules() const;

  /// Total (weighted) impurity decrease contributed by each feature —
  /// the tree-internal importance used by RandomForest reporting.
  std::vector<double> FeatureImportances(size_t num_features) const;

 private:
  class Grower;  // Split search and recursive growth (decision_tree.cc).

  /// Calls visit(node) for every node reachable from the root, so subtrees
  /// that pruning detached are skipped.
  template <typename Visit>
  void ForEachReachable(Visit visit) const;
  /// The training class weights that reached `node`.
  const double* ClassCounts(int node) const {
    return counts_.data() +
           static_cast<size_t>(node) * static_cast<size_t>(num_classes_);
  }
  /// Pessimistic (C4.5) pruning, bottom-up. Returns the subtree's
  /// post-prune error estimate.
  double Prune(int node_index);
  double LeafErrorUpperBound(int node_index) const;
  void CollectLeafRules(int node_index, std::vector<TreeCondition>* path,
                        std::vector<LeafRule>* out) const;

  std::vector<Node> nodes_;
  std::vector<double> counts_;  // num_classes_ entries per node.
  TreeSchema schema_;
  TreeOptions options_;
  int num_classes_ = 0;
};

/// The trees and per-tree vote weights a tree-vote learner predicts with.
/// Empty `weights` means weight 1 for every tree; empty `trees` means the
/// learner predicts some other way.
struct TreeVote {
  std::span<const DecisionTree> trees;
  std::span<const double> weights;
};

/// One row's vote from its leaf in every tree (`leaves[t]` in trees[t]):
/// resets `out` to num_classes zeros, adds weights[t] times each leaf's
/// probabilities in tree order (multiplying by exactly 1 leaves the bits
/// unchanged), then normalizes. VoteTrees and the cached permutation
/// importance (src/interpret) both sum rows through this one helper, so a
/// row with the same leaves gets the same bits on either path.
void VoteRow(const TreeVote& vote, const int* leaves, int num_classes,
             std::vector<double>* out);

/// The vote of every row of the raw matrix `x`: each row's leaf in each
/// tree, summed by VoteRow. Rows run in parallel on the current pool.
StatusOr<std::vector<std::vector<double>>> VoteTrees(const TreeVote& vote,
                                                     const Matrix& x,
                                                     int num_classes);

}  // namespace smartml

#endif  // SMARTML_ML_DECISION_TREE_H_
