// A deliberately plain reference tree grower, the oracle for the engine's
// split search (tests/tree_histogram_test.cc). It shares no split-search
// code with src/ml/decision_tree.cc: every node re-sorts its (value, row)
// pairs per feature and walks the boundaries between distinct values row by
// row, accumulating class weights as it goes. It keeps a node-per-vector
// layout and records which leaf each training row reached while growing.
//
// It implements exactly the TreeOptions the oracle tests exercise: gini,
// entropy and gain-ratio criteria, min_split / min_leaf / max_depth, the cp
// gate (min_impurity_decrease), mtry (drawing from the tree RNG in the same
// per-node order as the engine), binary and multiway categorical splits,
// missing values routed to the child with the most rows, and C4.5
// error-based pruning.
#ifndef SMARTML_TESTS_REFERENCE_TREE_H_
#define SMARTML_TESTS_REFERENCE_TREE_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/data/binned_columns.h"
#include "src/data/dataset.h"
#include "src/linalg/matrix.h"
#include "src/ml/decision_tree.h"

namespace smartml {

class ReferenceTree {
 public:
  struct Node {
    bool leaf = true;
    int parent = -1;
    int feature = -1;
    bool categorical = false;
    bool multiway = false;
    double threshold = 0.0;
    int category = -1;
    std::vector<int> children;
    int majority_child = 0;
    std::vector<double> class_counts;
    double weight = 0.0;
    int majority = 0;
    int depth = 0;
  };

  void Fit(const Matrix& x, const TreeSchema& schema, const std::vector<int>& y,
           int num_classes, const std::vector<double>& weights,
           const TreeOptions& options) {
    x_ = &x;
    schema_ = schema;
    y_ = y;
    k_ = num_classes;
    options_ = options;
    w_ = weights.empty() ? std::vector<double>(x.rows(), 1.0) : weights;
    nodes_.clear();
    grown_leaf_.assign(x.rows(), -1);
    std::vector<size_t> rows;
    for (size_t r = 0; r < x.rows(); ++r) {
      if (w_[r] > 0.0) rows.push_back(r);
    }
    Rng rng(options.seed);
    Build(rows, 0, -1, &rng);
    if (options.confidence_factor > 0) Prune(0);
  }

  size_t NumNodes() const { return nodes_.size(); }

  int Depth() const {
    int depth = 0;
    std::vector<int> stack = {0};
    while (!stack.empty()) {
      const Node& node = nodes_[static_cast<size_t>(stack.back())];
      stack.pop_back();
      depth = std::max(depth, node.depth);
      if (!node.leaf) {
        stack.insert(stack.end(), node.children.begin(), node.children.end());
      }
    }
    return depth;
  }

  /// The leaf training row `r` ended in: the topmost node on its growth
  /// path that is a leaf after pruning. -1 for rows that did not train.
  int TrainingLeaf(size_t r) const {
    int node = grown_leaf_[r];
    int leaf = node;
    while (node >= 0) {
      if (nodes_[static_cast<size_t>(node)].leaf) leaf = node;
      node = nodes_[static_cast<size_t>(node)].parent;
    }
    return leaf;
  }

  /// Predict-time walk: missing values follow the heaviest child.
  int PredictRow(const double* row) const {
    size_t i = 0;
    while (!nodes_[i].leaf) {
      const Node& node = nodes_[i];
      const double v = row[node.feature];
      size_t branch;
      if (IsMissing(v)) {
        branch = static_cast<size_t>(node.majority_child);
      } else if (node.multiway) {
        const auto code = static_cast<size_t>(v);
        branch = code < node.children.size()
                     ? code
                     : static_cast<size_t>(node.majority_child);
      } else if (node.categorical) {
        branch = static_cast<int>(v) == node.category ? 0 : 1;
      } else {
        branch = v <= node.threshold ? 0 : 1;
      }
      i = static_cast<size_t>(node.children[branch]);
    }
    return nodes_[i].majority;
  }

 private:
  TreeCriterion ImpurityCriterion() const {
    return options_.criterion == TreeCriterion::kGainRatio
               ? TreeCriterion::kEntropy
               : options_.criterion;
  }

  double Impurity(const std::vector<double>& counts, double total) const {
    if (total <= 0) return 0.0;
    double acc = 0.0;
    for (double c : counts) {
      const double p = c / total;
      if (ImpurityCriterion() == TreeCriterion::kGini) {
        acc += p * p;
      } else if (c > 0) {
        acc -= p * std::log2(p);
      }
    }
    return ImpurityCriterion() == TreeCriterion::kGini ? 1.0 - acc : acc;
  }

  struct Best {
    bool valid = false;
    int feature = -1;
    bool categorical = false;
    bool multiway = false;
    double threshold = 0.0;
    int category = -1;
    double score = -1e300;
    double gain = 0.0;
  };

  // Scores a binary partition (left counts vs the rest) and keeps it if it
  // beats `best`.
  void Consider(const std::vector<double>& left, double left_weight,
                const std::vector<double>& total, double present_weight,
                double total_impurity, double known_fraction,
                double parent_weight, Best candidate, Best* best) const {
    std::vector<double> right(total.size());
    for (size_t k = 0; k < total.size(); ++k) right[k] = total[k] - left[k];
    const double right_weight = present_weight - left_weight;
    const double child = (left_weight * Impurity(left, left_weight) +
                          right_weight * Impurity(right, right_weight)) /
                         present_weight;
    const double gain = (total_impurity - child) * known_fraction;
    if (gain <= 0) return;
    double score = gain;
    if (options_.criterion == TreeCriterion::kGainRatio) {
      const double pl = left_weight / present_weight;
      const double pr = right_weight / present_weight;
      const double split_info = -(pl * std::log2(pl) + pr * std::log2(pr));
      if (split_info < 1e-9) return;
      score = gain / split_info;
    }
    if (score > best->score) {
      candidate.valid = true;
      candidate.score = score;
      candidate.gain = gain * parent_weight;
      *best = candidate;
    }
  }

  int Build(const std::vector<size_t>& rows, int depth, int parent, Rng* rng) {
    const int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    {
      Node& node = nodes_.back();
      node.parent = parent;
      node.depth = depth;
      node.class_counts.assign(static_cast<size_t>(k_), 0.0);
      for (size_t r : rows) {
        node.class_counts[static_cast<size_t>(y_[r])] += w_[r];
        node.weight += w_[r];
        grown_leaf_[r] = index;
      }
      node.majority = static_cast<int>(
          std::max_element(node.class_counts.begin(),
                           node.class_counts.end()) -
          node.class_counts.begin());
    }
    const std::vector<double> counts = nodes_.back().class_counts;
    const double parent_weight = nodes_.back().weight;
    if (depth >= options_.max_depth || rows.size() < options_.min_split ||
        counts[static_cast<size_t>(nodes_.back().majority)] >=
            parent_weight - 1e-12) {
      return index;
    }
    const double parent_impurity = Impurity(counts, parent_weight);
    if (parent_impurity <= 1e-12) return index;

    const size_t d = x_->cols();
    std::vector<size_t> features(d);
    std::iota(features.begin(), features.end(), size_t{0});
    if (options_.mtry > 0 && static_cast<size_t>(options_.mtry) < d) {
      rng->Shuffle(&features);
      features.resize(static_cast<size_t>(options_.mtry));
    }

    const size_t k = static_cast<size_t>(k_);
    Best best;
    for (size_t f : features) {
      std::vector<std::pair<double, size_t>> present;
      double missing_weight = 0.0;
      for (size_t r : rows) {
        const double v = (*x_)(r, f);
        if (IsMissing(v)) {
          missing_weight += w_[r];
        } else {
          present.emplace_back(v, r);
        }
      }
      if (present.size() < 2 * options_.min_leaf) continue;
      double present_weight = 0.0;
      std::vector<double> total(k, 0.0);
      for (const auto& [v, r] : present) {
        present_weight += w_[r];
        total[static_cast<size_t>(y_[r])] += w_[r];
      }
      if (present_weight <= 0) continue;
      const double known_fraction =
          present_weight / (present_weight + missing_weight);
      const double total_impurity = Impurity(total, present_weight);
      Best candidate;
      candidate.feature = static_cast<int>(f);

      if (!schema_.categorical[f]) {
        std::sort(present.begin(), present.end());
        std::vector<double> left(k, 0.0);
        double left_weight = 0.0;
        for (size_t i = 0; i + 1 < present.size(); ++i) {
          const size_t r = present[i].second;
          left[static_cast<size_t>(y_[r])] += w_[r];
          left_weight += w_[r];
          if (present[i].first == present[i + 1].first) continue;
          if (i + 1 < options_.min_leaf ||
              present.size() - (i + 1) < options_.min_leaf) {
            continue;
          }
          candidate.threshold =
              SplitMidpoint(present[i].first, present[i + 1].first);
          Consider(left, left_weight, total, present_weight, total_impurity,
                   known_fraction, parent_weight, candidate, &best);
        }
        continue;
      }

      const size_t cats = schema_.cardinalities[f];
      std::vector<std::vector<double>> cat_counts(cats,
                                                  std::vector<double>(k, 0.0));
      std::vector<double> cat_weight(cats, 0.0);
      std::vector<size_t> cat_n(cats, 0);
      for (const auto& [v, r] : present) {
        const auto c = static_cast<size_t>(v);
        cat_counts[c][static_cast<size_t>(y_[r])] += w_[r];
        cat_weight[c] += w_[r];
        ++cat_n[c];
      }
      candidate.categorical = true;
      if (options_.multiway_categorical && cats >= 2) {
        size_t populated = 0;
        bool leaf_ok = true;
        double child = 0.0;
        double split_info = 0.0;
        for (size_t c = 0; c < cats; ++c) {
          if (cat_n[c] == 0) continue;
          ++populated;
          leaf_ok &= cat_n[c] >= options_.min_leaf;
          child += cat_weight[c] * Impurity(cat_counts[c], cat_weight[c]);
          const double p = cat_weight[c] / present_weight;
          split_info -= p * std::log2(p);
        }
        child /= present_weight;
        const double gain = (total_impurity - child) * known_fraction;
        if (populated < 2 || !leaf_ok || gain <= 0) continue;
        double score = gain;
        if (options_.criterion == TreeCriterion::kGainRatio) {
          if (split_info < 1e-9) continue;
          score = gain / split_info;
        }
        if (score > best.score) {
          candidate.valid = true;
          candidate.multiway = true;
          candidate.score = score;
          candidate.gain = gain * parent_weight;
          best = candidate;
        }
        continue;
      }
      for (size_t c = 0; c < cats; ++c) {
        if (cat_n[c] < options_.min_leaf ||
            present.size() - cat_n[c] < options_.min_leaf) {
          continue;
        }
        candidate.category = static_cast<int>(c);
        Consider(cat_counts[c], cat_weight[c], total, present_weight,
                 total_impurity, known_fraction, parent_weight, candidate,
                 &best);
      }
    }

    if (!best.valid) return index;
    if (best.gain <
        options_.min_impurity_decrease * parent_weight * parent_impurity +
            1e-15) {
      return index;
    }

    // Partition; missing rows join the branch with the most rows.
    const auto f = static_cast<size_t>(best.feature);
    std::vector<std::vector<size_t>> parts(
        best.multiway ? schema_.cardinalities[f] : 2);
    std::vector<size_t> missing;
    for (size_t r : rows) {
      const double v = (*x_)(r, f);
      if (IsMissing(v)) {
        missing.push_back(r);
      } else if (best.multiway) {
        parts[static_cast<size_t>(v)].push_back(r);
      } else if (best.categorical) {
        parts[static_cast<int>(v) == best.category ? 0 : 1].push_back(r);
      } else {
        parts[v <= best.threshold ? 0 : 1].push_back(r);
      }
    }
    size_t heaviest = 0;
    for (size_t c = 1; c < parts.size(); ++c) {
      if (parts[c].size() > parts[heaviest].size()) heaviest = c;
    }
    for (size_t r : missing) parts[heaviest].push_back(r);
    size_t populated = 0;
    for (const auto& p : parts) populated += !p.empty();
    if (populated < 2) return index;

    {
      Node& node = nodes_[static_cast<size_t>(index)];
      node.leaf = false;
      node.feature = best.feature;
      node.categorical = best.categorical;
      node.multiway = best.multiway;
      node.threshold = best.threshold;
      node.category = best.category;
    }
    std::vector<int> children;
    double heaviest_weight = -1.0;
    int majority_child = 0;
    for (size_t c = 0; c < parts.size(); ++c) {
      int child;
      if (parts[c].empty()) {
        // Empty multiway branch: a leaf carrying the parent distribution.
        child = static_cast<int>(nodes_.size());
        nodes_.emplace_back();
        nodes_.back().parent = index;
        nodes_.back().depth = depth + 1;
        nodes_.back().class_counts = counts;
        nodes_.back().majority = nodes_[static_cast<size_t>(index)].majority;
      } else {
        child = Build(parts[c], depth + 1, index, rng);
      }
      children.push_back(child);
      if (nodes_[static_cast<size_t>(child)].weight > heaviest_weight) {
        heaviest_weight = nodes_[static_cast<size_t>(child)].weight;
        majority_child = static_cast<int>(c);
      }
    }
    nodes_[static_cast<size_t>(index)].children = std::move(children);
    nodes_[static_cast<size_t>(index)].majority_child = majority_child;
    return index;
  }

  double LeafError(const Node& node) const {
    const double n = std::max(node.weight, 1e-9);
    const double errors =
        node.weight - node.class_counts[static_cast<size_t>(node.majority)];
    return n * BinomialUpperConfidence(errors, n, options_.confidence_factor);
  }

  double SubtreeError(int i) const {
    const Node& node = nodes_[static_cast<size_t>(i)];
    if (node.leaf) return LeafError(node);
    double total = 0.0;
    for (int c : node.children) total += SubtreeError(c);
    return total;
  }

  void Prune(int i) {
    Node& node = nodes_[static_cast<size_t>(i)];
    if (node.leaf) return;
    for (int c : node.children) Prune(c);
    if (LeafError(node) <= SubtreeError(i) + 0.1) node.leaf = true;
  }

  const Matrix* x_ = nullptr;
  TreeSchema schema_;
  std::vector<int> y_;
  std::vector<double> w_;
  int k_ = 0;
  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<int> grown_leaf_;
};

}  // namespace smartml

#endif  // SMARTML_TESTS_REFERENCE_TREE_H_
