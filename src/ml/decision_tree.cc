#include "src/ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/ml/classifier.h"

namespace smartml {

namespace {

// The per-class terms of the two impurities: a node's impurity is
// Finish(sum of Term(count_k, total) in class order). Entropy's term is 0
// for a non-positive count, which adds nothing, as skipping it would.
struct Gini {
  static double Term(double count, double total) {
    const double p = count / total;
    return p * p;
  }
  static double Finish(double sum) { return 1.0 - sum; }
};

struct Entropy {
  static double Term(double count, double total) {
    if (count <= 0) return 0.0;
    const double p = count / total;
    return -(p * std::log2(p));
  }
  static double Finish(double sum) { return sum; }
};

template <typename C>
double ImpurityOf(const double* counts, size_t num_k, double total) {
  if (total <= 0) return 0.0;
  double sum = 0.0;
  for (size_t k = 0; k < num_k; ++k) sum += C::Term(counts[k], total);
  return C::Finish(sum);
}

double Impurity(TreeCriterion criterion, const double* counts, size_t num_k,
                double total) {
  return criterion == TreeCriterion::kGini
             ? ImpurityOf<Gini>(counts, num_k, total)
             : ImpurityOf<Entropy>(counts, num_k, total);
}

// Weighted child impurity of a binary split, left_weight * Impurity(left) +
// right_weight * Impurity(right), where right = totals - left per class.
// Both sides accumulate in one pass, each in class order through the same
// per-class term, so each side's impurity has the bits Impurity() gives
// for its counts.
template <typename C>
double SplitImpurity(const double* left, const double* totals, size_t num_k,
                     double left_weight, double right_weight) {
  double left_sum = 0.0;
  double right_sum = 0.0;
  for (size_t k = 0; k < num_k; ++k) {
    left_sum += C::Term(left[k], left_weight);
    right_sum += C::Term(totals[k] - left[k], right_weight);
  }
  const double left_impurity = left_weight <= 0 ? 0.0 : C::Finish(left_sum);
  const double right_impurity =
      right_weight <= 0 ? 0.0 : C::Finish(right_sum);
  return left_weight * left_impurity + right_weight * right_impurity;
}

int ArgMaxCount(const double* counts, size_t num_k) {
  int best = 0;
  for (size_t i = 1; i < num_k; ++i) {
    if (counts[i] > counts[static_cast<size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

// One node's statistics for one feature over a list of its bins:
// class-weight sums wsum[i * K + k] and row counts cnt[i] for the i-th
// listed bin, with slot size() holding the rows whose value is missing.
// `bins` names the listed bins in ascending order; when it is null every bin
// b < num_bins is listed, at slot b. Bin ids index `thresholds` (a numeric
// split after bin b sends a row to child 0 iff its value <= thresholds[b])
// and are the category codes of a categorical feature, whose multiway split
// has num_bins children.
struct BinStats {
  const double* wsum = nullptr;
  const uint32_t* cnt = nullptr;
  size_t num_bins = 0;
  const double* thresholds = nullptr;
  const uint16_t* bins = nullptr;
  size_t num_listed = 0;  // Entries of `bins`.

  size_t size() const { return bins == nullptr ? num_bins : num_listed; }
  size_t bin(size_t i) const { return bins == nullptr ? i : bins[i]; }
};

struct SplitCandidate {
  bool valid = false;
  int feature = -1;
  bool categorical = false;
  int num_children = 2;
  double threshold = 0.0;
  int category = -1;  // -1 on a multiway split.
  double score = -std::numeric_limits<double>::infinity();
  double gain = 0.0;  // Weighted impurity decrease (always entropy/gini gain).
};

// Per-tree layout of the flat histogram buffers: feature f's class-weight
// sums occupy wsum[off_w[f] .. off_w[f] + (num_bins + 1) * K) and its row
// counts cnt[off_n[f] .. off_n[f] + num_bins + 1), where slot num_bins is
// the missing bin. One layout serves every node of a tree, so subtraction
// and accumulation are plain flat-array loops.
struct HistLayout {
  std::vector<size_t> off_w;
  std::vector<size_t> off_n;
  size_t total_w = 0;
  size_t total_n = 0;

  static HistLayout For(const BinnedColumns& binned, size_t num_classes) {
    HistLayout layout;
    layout.off_w.reserve(binned.num_features());
    layout.off_n.reserve(binned.num_features());
    for (size_t f = 0; f < binned.num_features(); ++f) {
      const size_t slots = binned.column(f).num_bins + size_t{1};
      layout.off_w.push_back(layout.total_w);
      layout.off_n.push_back(layout.total_n);
      layout.total_w += slots * num_classes;
      layout.total_n += slots;
    }
    return layout;
  }
};

// One node's bin histograms over all features of the shared view. `valid`
// marks a hist handed down by the parent (via the parent-minus-sibling
// trick) as ready to use.
struct NodeHist {
  std::vector<double> wsum;
  std::vector<uint32_t> cnt;
  bool valid = false;

  void AccumulateAll(const BinnedColumns& binned, const HistLayout& layout,
                     const std::vector<size_t>& rows, const std::vector<int>& y,
                     const std::vector<double>& w, size_t num_classes) {
    wsum.assign(layout.total_w, 0.0);
    cnt.assign(layout.total_n, 0);
    for (size_t f = 0; f < binned.num_features(); ++f) {
      const BinnedColumn& col = binned.column(f);
      AccumulateBinHistogram(col.codes.data(), rows.data(), rows.size(),
                             y.data(), w.data(), num_classes, col.num_bins,
                             wsum.data() + layout.off_w[f],
                             cnt.data() + layout.off_n[f]);
    }
    valid = true;
  }

  /// this -= other, elementwise. Turns a parent histogram into the larger
  /// sibling's histogram once the smaller sibling has been accumulated.
  void SubtractInPlace(const NodeHist& other) {
    for (size_t i = 0; i < wsum.size(); ++i) wsum[i] -= other.wsum[i];
    for (size_t i = 0; i < cnt.size(); ++i) cnt[i] -= other.cnt[i];
  }
};

}  // namespace

TreeSchema TreeSchema::FromDataset(const Dataset& dataset) {
  TreeSchema schema;
  schema.categorical.reserve(dataset.NumFeatures());
  schema.cardinalities.reserve(dataset.NumFeatures());
  for (const auto& f : dataset.features()) {
    schema.categorical.push_back(f.is_categorical());
    schema.cardinalities.push_back(f.is_categorical() ? f.num_categories() : 0);
  }
  return schema;
}

std::string TreeCondition::ToString(const Dataset& schema_source) const {
  const auto& feat = schema_source.feature(static_cast<size_t>(feature));
  std::string name = feat.name;
  switch (op) {
    case Op::kLessEq:
      return StrFormat("%s <= %.4g", name.c_str(), value);
    case Op::kGreater:
      return StrFormat("%s > %.4g", name.c_str(), value);
    case Op::kEquals:
      return name + " = " +
             (feat.is_categorical() &&
                      static_cast<size_t>(value) < feat.categories.size()
                  ? feat.categories[static_cast<size_t>(value)]
                  : StrFormat("%.4g", value));
    case Op::kNotEquals:
      return name + " != " +
             (feat.is_categorical() &&
                      static_cast<size_t>(value) < feat.categories.size()
                  ? feat.categories[static_cast<size_t>(value)]
                  : StrFormat("%.4g", value));
  }
  return "?";
}

// Grows one tree: one recursive node builder over one split scan. The bin
// statistics the scan reads come from the shared view when there is one and
// from node-local bins otherwise (each distinct value at the node a bin,
// thresholds the node-local midpoints). From the view, a full-feature node
// reads dense histograms (the larger child of a binary split derived as
// parent minus the smaller sibling), and a node that samples features
// (mtry) lists just the bins its rows occupy.
//
// With lossless view columns and integral weights both sources give the
// same candidates and bit-equal gains (integer sums are exact in doubles),
// so they grow the same partitions. The view's thresholds are global bin
// midpoints, so rows a tree never trained on may route differently.
class DecisionTree::Grower {
 public:
  Grower(DecisionTree* tree, const Matrix& x, const std::vector<int>& y,
         const std::vector<double>& w, const BinnedColumns* view)
      : tree_(*tree),
        options_(tree->options_),
        x_(x),
        y_(y),
        w_(w),
        view_(view),
        num_k_(static_cast<size_t>(tree->num_classes_)),
        rng_(tree->options_.seed),
        criterion_(options_.criterion == TreeCriterion::kGainRatio
                       ? TreeCriterion::kEntropy
                       : options_.criterion),
        left_(num_k_),
        total_(num_k_) {
    if (view_ != nullptr) layout_ = HistLayout::For(*view_, num_k_);
  }

  // Grows the subtree rooted at the already allocated node `index` from the
  // training rows that reach it. `inherited` is a view histogram the parent
  // derived for this node, or null.
  void Grow(int index, const std::vector<size_t>& rows, int depth,
            NodeHist* inherited);

 private:
  BinStats LocalBins(size_t f, const std::vector<size_t>& rows);
  BinStats OccupiedBins(size_t f, const std::vector<size_t>& rows);
  void Scan(size_t f, const BinStats& s, double parent_weight,
            SplitCandidate* best);

  DecisionTree& tree_;
  const TreeOptions& options_;
  const Matrix& x_;
  const std::vector<int>& y_;
  const std::vector<double>& w_;
  const BinnedColumns* view_;  // Null: node-local bins.
  const size_t num_k_;
  Rng rng_;
  const TreeCriterion criterion_;  // Gain ratio scores entropy gain.
  HistLayout layout_;
  // Scratch reused by every node (a node's scan ends before its children
  // grow).
  std::vector<double> left_, total_;
  std::vector<size_t> features_;
  std::vector<std::pair<double, size_t>> present_;
  std::vector<double> bin_w_, thresholds_;
  std::vector<uint32_t> bin_n_;
  std::vector<uint8_t> codes_;      // Bin code of each row at the node.
  std::vector<uint16_t> occupied_;  // Listed bins, ascending.
  std::array<uint16_t, BinnedColumns::kMaxBins + 1> slot_{};  // Bin -> slot.
};

void DecisionTree::Grower::Grow(int index, const std::vector<size_t>& rows,
                                int depth, NodeHist* inherited) {
  const size_t num_k = num_k_;
  double weight = 0.0;
  int majority;
  double parent_impurity;
  {
    double* counts = tree_.counts_.data() + static_cast<size_t>(index) * num_k;
    for (size_t r : rows) {
      counts[static_cast<size_t>(y_[r])] += w_[r];
      weight += w_[r];
    }
    majority = ArgMaxCount(counts, num_k);
    Node& node = tree_.nodes_[static_cast<size_t>(index)];
    node.depth = depth;
    node.weight = weight;
    node.majority = majority;
    if (depth >= options_.max_depth || rows.size() < options_.min_split ||
        counts[static_cast<size_t>(majority)] >= weight - 1e-12) {
      return;
    }
    parent_impurity = Impurity(criterion_, counts, num_k, weight);
    if (parent_impurity <= 1e-12) return;
  }

  // Feature subset (mtry).
  const size_t d = x_.cols();
  features_.resize(d);
  std::iota(features_.begin(), features_.end(), size_t{0});
  if (options_.mtry > 0 && static_cast<size_t>(options_.mtry) < d) {
    rng_.Shuffle(&features_);
    features_.resize(static_cast<size_t>(options_.mtry));
  }

  // Full-feature nodes keep one view histogram spanning all features so a
  // binary split can hand the larger child `parent - smaller sibling`
  // instead of rescanning its rows; mtry nodes sample different features at
  // every node, so they list just the occupied bins of each sampled column
  // and retain nothing.
  const bool full_features = features_.size() == d;
  NodeHist own;
  if (view_ != nullptr && full_features) {
    if (inherited != nullptr && inherited->valid) {
      own = std::move(*inherited);
      inherited->valid = false;
    } else {
      own.AccumulateAll(*view_, layout_, rows, y_, w_, num_k);
    }
  }

  SplitCandidate best;
  for (size_t f : features_) {
    BinStats s;
    if (view_ == nullptr) {
      s = LocalBins(f, rows);
    } else if (!full_features) {
      s = OccupiedBins(f, rows);
    } else {
      const BinnedColumn& col = view_->column(f);
      s.num_bins = col.num_bins;
      s.thresholds = col.thresholds.data();
      s.wsum = own.wsum.data() + layout_.off_w[f];
      s.cnt = own.cnt.data() + layout_.off_n[f];
    }
    Scan(f, s, weight, &best);
  }

  if (!best.valid) return;
  // rpart-style complexity gate: the split must remove at least
  // min_impurity_decrease of the node's own weighted impurity.
  if (best.gain <
      options_.min_impurity_decrease * weight * parent_impurity + 1e-15) {
    return;
  }

  // Partition rows by raw value. For a view this is the partition its codes
  // induce: every value in bins <= b is <= thresholds[b] by construction.
  Node split = tree_.nodes_[static_cast<size_t>(index)];
  split.feature = best.feature;
  split.categorical_split = best.categorical;
  split.threshold = best.threshold;
  split.category = best.category;
  split.split_gain = best.gain;
  split.num_children = best.num_children;
  const auto f = static_cast<size_t>(best.feature);
  std::vector<std::vector<size_t>> parts(
      static_cast<size_t>(best.num_children));
  std::vector<size_t> missing;
  for (size_t r : rows) {
    const int branch = Branch(split, x_(r, f));
    if (branch < 0) {
      missing.push_back(r);
    } else {
      parts[static_cast<size_t>(branch)].push_back(r);
    }
  }
  // Missing rows join the most populated branch.
  size_t heaviest = 0;
  for (size_t c = 1; c < parts.size(); ++c) {
    if (parts[c].size() > parts[heaviest].size()) heaviest = c;
  }
  for (size_t r : missing) parts[heaviest].push_back(r);

  // Degenerate partitions can occur after missing-value routing.
  size_t populated = 0;
  for (const auto& p : parts) {
    if (!p.empty()) ++populated;
  }
  if (populated < 2) return;

  // Parent-minus-sibling: scan only the smaller child, derive the larger
  // one by subtracting in place. Multiway children (and mtry nodes, which
  // have no full parent hist) recompute from their rows.
  const bool multiway = best.categorical && best.category < 0;
  NodeHist child_hist[2];
  bool have_child_hist = false;
  if (view_ != nullptr && full_features && !multiway) {
    const size_t small = parts[0].size() <= parts[1].size() ? 0 : 1;
    child_hist[small].AccumulateAll(*view_, layout_, parts[small], y_, w_,
                                    num_k);
    own.SubtractInPlace(child_hist[small]);
    child_hist[1 - small] = std::move(own);
    child_hist[1 - small].valid = true;
    have_child_hist = true;
  }
  own = NodeHist{};

  // Children are allocated contiguously before any of them grows; an empty
  // multiway branch stays a leaf that inherits the parent distribution.
  const size_t first = tree_.nodes_.size();
  split.first_child = static_cast<int>(first);
  tree_.nodes_[static_cast<size_t>(index)] = split;
  tree_.nodes_.resize(first + parts.size());
  tree_.counts_.resize((first + parts.size()) * num_k, 0.0);
  int majority_child = 0;
  double heaviest_weight = -1.0;
  for (size_t c = 0; c < parts.size(); ++c) {
    const int child = static_cast<int>(first + c);
    if (parts[c].empty()) {
      Node& leaf = tree_.nodes_[first + c];
      leaf.depth = depth + 1;
      leaf.majority = majority;
      std::copy_n(tree_.counts_.begin() +
                      static_cast<std::ptrdiff_t>(
                          static_cast<size_t>(index) * num_k),
                  num_k,
                  tree_.counts_.begin() +
                      static_cast<std::ptrdiff_t>((first + c) * num_k));
    } else {
      Grow(child, parts[c], depth + 1,
           have_child_hist ? &child_hist[c] : nullptr);
    }
    const double cw = tree_.nodes_[first + c].weight;
    if (cw > heaviest_weight) {
      heaviest_weight = cw;
      majority_child = static_cast<int>(c);
    }
  }
  tree_.nodes_[static_cast<size_t>(index)].majority_child = majority_child;
}

// Node-local bins: the node's present rows sorted by value, one bin per
// distinct value (numeric), or one bin per category code (categorical;
// codes past the cardinality count as missing).
BinStats DecisionTree::Grower::LocalBins(size_t f,
                                         const std::vector<size_t>& rows) {
  const size_t num_k = num_k_;
  const bool categorical = tree_.schema_.categorical[f];
  const size_t cardinality = tree_.schema_.cardinalities[f];
  std::fill(total_.begin(), total_.end(), 0.0);  // Missing-slot sums.
  uint32_t missing_n = 0;
  present_.clear();
  for (size_t r : rows) {
    const double v = x_(r, f);
    if (IsMissing(v) ||
        (categorical && static_cast<size_t>(v) >= cardinality)) {
      total_[static_cast<size_t>(y_[r])] += w_[r];
      ++missing_n;
    } else {
      present_.emplace_back(v, r);
    }
  }
  size_t num_bins = cardinality;
  if (!categorical) {
    std::sort(present_.begin(), present_.end());
    thresholds_.clear();
    for (size_t i = 1; i < present_.size(); ++i) {
      if (present_[i].first != present_[i - 1].first) {
        thresholds_.push_back(
            SplitMidpoint(present_[i - 1].first, present_[i].first));
      }
    }
    num_bins = present_.empty() ? 0 : thresholds_.size() + 1;
  }
  bin_w_.assign((num_bins + 1) * num_k, 0.0);
  bin_n_.assign(num_bins + 1, 0);
  size_t b = 0;
  for (size_t i = 0; i < present_.size(); ++i) {
    const auto& [v, r] = present_[i];
    if (categorical) {
      b = static_cast<size_t>(v);
    } else if (i > 0 && v != present_[i - 1].first) {
      ++b;
    }
    bin_w_[b * num_k + static_cast<size_t>(y_[r])] += w_[r];
    ++bin_n_[b];
  }
  std::copy(total_.begin(), total_.end(),
            bin_w_.begin() + static_cast<std::ptrdiff_t>(num_bins * num_k));
  bin_n_[num_bins] = missing_n;
  BinStats s;
  s.wsum = bin_w_.data();
  s.cnt = bin_n_.data();
  s.num_bins = num_bins;
  s.thresholds = thresholds_.data();
  return s;
}

// Occupied view bins: the view bins the node's rows fall in, listed in
// ascending order, plus the missing slot. Each listed bin's sums add its
// rows in the node's row order, as a dense histogram over the view would,
// and the unlisted bins are exactly the dense histogram's empty ones (zero
// count, zero weight). A scan over the list therefore sees the dense
// histogram's candidates and bit-equal sums, at a cost set by the node's
// rows rather than by the feature's bins times the classes.
BinStats DecisionTree::Grower::OccupiedBins(size_t f,
                                            const std::vector<size_t>& rows) {
  const size_t num_k = num_k_;
  const BinnedColumn& col = view_->column(f);
  const size_t nb = col.num_bins;
  // One bit per bin code; codes past num_bins count as missing (bin nb).
  uint64_t seen[(BinnedColumns::kMaxBins + 64) / 64] = {};
  codes_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto code =
        static_cast<uint8_t>(std::min<size_t>(col.codes[rows[i]], nb));
    codes_[i] = code;
    seen[code >> 6] |= uint64_t{1} << (code & 63);
  }
  occupied_.clear();
  for (size_t word = 0; word < std::size(seen); ++word) {
    for (uint64_t bits = seen[word]; bits != 0; bits &= bits - 1) {
      const auto b = static_cast<uint16_t>(word * 64 + std::countr_zero(bits));
      if (b == nb) break;  // The missing bin is the highest code.
      slot_[b] = static_cast<uint16_t>(occupied_.size());
      occupied_.push_back(b);
    }
  }
  const size_t listed = occupied_.size();
  slot_[nb] = static_cast<uint16_t>(listed);
  bin_w_.assign((listed + 1) * num_k, 0.0);
  bin_n_.assign(listed + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t r = rows[i];
    const size_t j = slot_[codes_[i]];
    bin_w_[j * num_k + static_cast<size_t>(y_[r])] += w_[r];
    ++bin_n_[j];
  }
  BinStats s;
  s.wsum = bin_w_.data();
  s.cnt = bin_n_.data();
  s.num_bins = nb;
  s.thresholds = col.thresholds.data();
  s.bins = occupied_.data();
  s.num_listed = listed;
  return s;
}

// The one split scan: numeric boundaries between bins, one multiway split,
// or one-vs-rest category splits, scored from per-bin class sums. An empty
// bin is never a candidate, so the scan reads the same splits from a list of
// the occupied bins as from all of them.
void DecisionTree::Grower::Scan(size_t f, const BinStats& s,
                                double parent_weight, SplitCandidate* best) {
  const size_t num_k = num_k_;
  const size_t nb = s.num_bins;
  if (nb == 0) return;
  const size_t n = s.size();
  const double* wsum = s.wsum;
  const uint32_t* cnt = s.cnt;

  // Present/missing totals straight from the bin slots.
  size_t present_n = 0;
  std::fill(total_.begin(), total_.end(), 0.0);
  for (size_t i = 0; i < n; ++i) {
    present_n += cnt[i];
    for (size_t k = 0; k < num_k; ++k) total_[k] += wsum[i * num_k + k];
  }
  if (present_n < 2 * options_.min_leaf) return;
  double present_weight = 0.0;
  for (size_t k = 0; k < num_k; ++k) present_weight += total_[k];
  if (present_weight <= 0) return;
  double missing_weight = 0.0;
  for (size_t k = 0; k < num_k; ++k) missing_weight += wsum[n * num_k + k];
  // C4.5-style penalty: scale gain by the fraction of known values.
  const double known_fraction =
      present_weight / (present_weight + missing_weight);
  const double total_impurity =
      Impurity(criterion_, total_.data(), num_k, present_weight);
  const bool gain_ratio = options_.criterion == TreeCriterion::kGainRatio;

  // Scores sending left_ (weight left_weight) to child 0 and the rest of the
  // present rows (totals minus left_, per class) to child 1; false when the
  // split does not qualify.
  auto score_binary = [&](double left_weight, double* gain, double* score) {
    const double right_weight = present_weight - left_weight;
    const double child_impurity =
        (criterion_ == TreeCriterion::kGini
             ? SplitImpurity<Gini>(left_.data(), total_.data(), num_k,
                                   left_weight, right_weight)
             : SplitImpurity<Entropy>(left_.data(), total_.data(), num_k,
                                      left_weight, right_weight)) /
        present_weight;
    *gain = (total_impurity - child_impurity) * known_fraction;
    if (*gain <= 0) return false;
    *score = *gain;
    if (gain_ratio) {
      const double pl = left_weight / present_weight;
      const double pr = right_weight / present_weight;
      const double split_info = -(pl * std::log2(pl) + pr * std::log2(pr));
      if (split_info < 1e-9) return false;
      *score = *gain / split_info;
    }
    return true;
  };
  auto take = [&](double score, double gain, int num_children,
                  double threshold, int category) {
    if (!(score > best->score)) return;
    best->valid = true;
    best->feature = static_cast<int>(f);
    best->categorical = tree_.schema_.categorical[f];
    best->num_children = num_children;
    best->threshold = threshold;
    best->category = category;
    best->score = score;
    best->gain = gain * parent_weight;
  };

  double gain = 0.0;
  double score = 0.0;
  if (!tree_.schema_.categorical[f]) {
    std::fill(left_.begin(), left_.end(), 0.0);
    double left_weight = 0.0;
    size_t left_n = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t b = s.bin(i);
      if (b + 1 >= nb) break;  // No boundary after the last bin.
      for (size_t k = 0; k < num_k; ++k) {
        const double c = wsum[i * num_k + k];
        left_[k] += c;
        left_weight += c;
      }
      left_n += cnt[i];
      // An empty bin leaves the partition identical to the previous
      // boundary's, so only the first boundary of each run is a candidate.
      if (cnt[i] == 0) continue;
      if (left_n < options_.min_leaf ||
          present_n - left_n < options_.min_leaf) {
        continue;
      }
      if (score_binary(left_weight, &gain, &score)) {
        take(score, gain, 2, s.thresholds[b], -1);
      }
    }
  } else if (options_.multiway_categorical && nb >= 2) {
    // One child per category (bin code == category code).
    size_t populated = 0;
    double child_impurity = 0.0;
    double split_info = 0.0;
    bool leaf_ok = true;
    for (size_t i = 0; i < n; ++i) {
      if (cnt[i] == 0) continue;
      ++populated;
      if (cnt[i] < options_.min_leaf) leaf_ok = false;
      double cw = 0.0;
      for (size_t k = 0; k < num_k; ++k) {
        left_[k] = wsum[i * num_k + k];
        cw += left_[k];
      }
      child_impurity += cw * Impurity(criterion_, left_.data(), num_k, cw);
      const double p = cw / present_weight;
      if (p > 0) split_info -= p * std::log2(p);
    }
    child_impurity /= present_weight;
    if (populated < 2 || !leaf_ok) return;
    gain = (total_impurity - child_impurity) * known_fraction;
    if (gain <= 0) return;
    score = gain;
    if (gain_ratio) {
      score = split_info >= 1e-9 ? gain / split_info
                                 : -std::numeric_limits<double>::infinity();
    }
    take(score, gain, static_cast<int>(nb), 0.0, -1);
  } else {
    // Binary one-vs-rest categorical splits.
    for (size_t i = 0; i < n; ++i) {
      if (cnt[i] == 0 || cnt[i] < options_.min_leaf ||
          present_n - cnt[i] < options_.min_leaf) {
        continue;
      }
      double left_weight = 0.0;
      for (size_t k = 0; k < num_k; ++k) {
        left_[k] = wsum[i * num_k + k];
        left_weight += left_[k];
      }
      if (score_binary(left_weight, &gain, &score)) {
        take(score, gain, 2, 0.0, static_cast<int>(s.bin(i)));
      }
    }
  }
}

Status DecisionTree::Fit(const Matrix& x, const TreeSchema& schema,
                         const std::vector<int>& y, int num_classes,
                         const std::vector<double>& weights,
                         const TreeOptions& options,
                         std::shared_ptr<const BinnedColumns> binned) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("DecisionTree: bad training shape");
  }
  if (schema.categorical.size() != x.cols()) {
    return Status::InvalidArgument("DecisionTree: schema/feature mismatch");
  }
  if (num_classes < 1) {
    return Status::InvalidArgument("DecisionTree: need >= 1 class");
  }
  if (binned != nullptr && (binned->num_rows() != x.rows() ||
                            binned->num_features() != x.cols())) {
    return Status::InvalidArgument(
        "DecisionTree: binned view does not match the training matrix");
  }
  nodes_.clear();
  counts_.clear();
  schema_ = schema;
  options_ = options;
  num_classes_ = num_classes;

  std::vector<double> w = weights;
  if (w.empty()) w.assign(x.rows(), 1.0);
  if (w.size() != x.rows()) {
    return Status::InvalidArgument("DecisionTree: weight/row mismatch");
  }

  // Rows with zero weight (e.g. out-of-bootstrap samples) are excluded
  // entirely so they influence neither counts nor split thresholds.
  std::vector<size_t> rows;
  rows.reserve(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    if (w[r] > 0.0) rows.push_back(r);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("DecisionTree: all weights are zero");
  }

  // Categorical columns wider than the bin range alias the missing bin in
  // a view; node-local bins handle them.
  const BinnedColumns* view =
      binned != nullptr && binned->histogram_safe() ? binned.get() : nullptr;
  nodes_.resize(1);
  counts_.assign(static_cast<size_t>(num_classes_), 0.0);
  Grower(this, x, y, w, view).Grow(0, rows, 0, nullptr);
  if (options_.confidence_factor > 0) Prune(0);
  return Status::OK();
}

double DecisionTree::LeafErrorUpperBound(int node_index) const {
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  const double n = std::max(node.weight, 1e-9);
  const double errors =
      node.weight - ClassCounts(node_index)[static_cast<size_t>(node.majority)];
  if (options_.confidence_factor <= 0) return errors;
  // C4.5's pessimistic estimate: binomial upper confidence limit at CF.
  return n * BinomialUpperConfidence(errors, n, options_.confidence_factor);
}

double DecisionTree::Prune(int node_index) {
  Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.leaf()) return LeafErrorUpperBound(node_index);
  // Children first; their post-prune errors, summed in child order, are
  // this subtree's error (the fixed order keeps trees bit-identical).
  double as_subtree = 0.0;
  for (int c = 0; c < node.num_children; ++c) {
    as_subtree += Prune(node.first_child + c);
  }
  const double as_leaf = LeafErrorUpperBound(node_index);
  if (as_leaf <= as_subtree + 0.1) {
    node.num_children = 0;
    return as_leaf;
  }
  return as_subtree;
}

int DecisionTree::Branch(const Node& node, double v) {
  if (IsMissing(v)) return -1;
  if (!node.categorical_split) return v <= node.threshold ? 0 : 1;
  if (node.category >= 0) return static_cast<int>(v) == node.category ? 0 : 1;
  const auto code = static_cast<size_t>(v);
  return code < static_cast<size_t>(node.num_children) ? static_cast<int>(code)
                                                       : -1;
}

int DecisionTree::LeafIndexForRow(const double* row) const {
  if (nodes_.empty()) return -1;
  size_t index = 0;
  while (!nodes_[index].leaf()) {
    const Node& node = nodes_[index];
    const int branch = Branch(node, row[node.feature]);
    index = static_cast<size_t>(node.first_child +
                                (branch < 0 ? node.majority_child : branch));
  }
  return static_cast<int>(index);
}

void DecisionTree::AddLeafProba(int leaf, double scale, double* out) const {
  // Laplace-smoothed leaf frequencies.
  const double* counts = ClassCounts(leaf);
  const double total = nodes_[static_cast<size_t>(leaf)].weight + num_classes_;
  for (size_t k = 0; k < static_cast<size_t>(num_classes_); ++k) {
    out[k] += scale * ((counts[k] + 1.0) / total);
  }
}

int DecisionTree::PredictRow(const double* row) const {
  if (nodes_.empty()) return 0;
  return nodes_[static_cast<size_t>(LeafIndexForRow(row))].majority;
}

template <typename Visit>
void DecisionTree::ForEachReachable(Visit visit) const {
  if (nodes_.empty()) return;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    visit(node);
    for (int c = 0; c < node.num_children; ++c) {
      stack.push_back(node.first_child + c);
    }
  }
}

size_t DecisionTree::NumLeaves() const {
  size_t n = 0;
  ForEachReachable([&](const Node& node) { n += node.leaf(); });
  return n;
}

int DecisionTree::Depth() const {
  int depth = 0;
  ForEachReachable(
      [&](const Node& node) { depth = std::max(depth, node.depth); });
  return depth;
}

void DecisionTree::CollectLeafRules(int node_index,
                                    std::vector<TreeCondition>* path,
                                    std::vector<LeafRule>* out) const {
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.leaf()) {
    LeafRule rule;
    rule.conditions = *path;
    rule.weight = node.weight;
    const double* counts = ClassCounts(node_index);
    rule.class_counts.assign(counts, counts + num_classes_);
    rule.majority = node.majority;
    out->push_back(std::move(rule));
    return;
  }
  for (int c = 0; c < node.num_children; ++c) {
    TreeCondition cond;
    cond.feature = node.feature;
    if (!node.categorical_split) {
      cond.op =
          c == 0 ? TreeCondition::Op::kLessEq : TreeCondition::Op::kGreater;
      cond.value = node.threshold;
    } else if (node.category < 0) {
      cond.op = TreeCondition::Op::kEquals;
      cond.value = static_cast<double>(c);
    } else {
      cond.op = c == 0 ? TreeCondition::Op::kEquals
                       : TreeCondition::Op::kNotEquals;
      cond.value = static_cast<double>(node.category);
    }
    path->push_back(cond);
    CollectLeafRules(node.first_child + c, path, out);
    path->pop_back();
  }
}

std::vector<DecisionTree::LeafRule> DecisionTree::ExtractLeafRules() const {
  std::vector<LeafRule> out;
  if (nodes_.empty()) return out;
  std::vector<TreeCondition> path;
  CollectLeafRules(0, &path, &out);
  std::sort(out.begin(), out.end(), [](const LeafRule& a, const LeafRule& b) {
    return a.weight > b.weight;
  });
  return out;
}

std::vector<double> DecisionTree::FeatureImportances(
    size_t num_features) const {
  std::vector<double> imp(num_features, 0.0);
  ForEachReachable([&](const Node& node) {
    if (!node.leaf() && node.feature >= 0 &&
        static_cast<size_t>(node.feature) < num_features) {
      imp[static_cast<size_t>(node.feature)] += node.split_gain;
    }
  });
  return imp;
}

void VoteRow(const TreeVote& vote, const int* leaves, int num_classes,
             std::vector<double>* out) {
  out->assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t t = 0; t < vote.trees.size(); ++t) {
    vote.trees[t].AddLeafProba(leaves[t],
                               vote.weights.empty() ? 1.0 : vote.weights[t],
                               out->data());
  }
  NormalizeProba(out);
}

StatusOr<std::vector<std::vector<double>>> VoteTrees(const TreeVote& vote,
                                                     const Matrix& x,
                                                     int num_classes) {
  std::vector<std::vector<double>> out(x.rows());
  // Rows are independent; chunked so per-task overhead stays negligible.
  SMARTML_RETURN_NOT_OK(ParallelForRanges(
      x.rows(), /*grain=*/256,
      [&](size_t begin, size_t end) -> Status {
        std::vector<int> leaves(vote.trees.size());
        for (size_t r = begin; r < end; ++r) {
          for (size_t t = 0; t < vote.trees.size(); ++t) {
            leaves[t] = vote.trees[t].LeafIndexForRow(x.RowPtr(r));
          }
          VoteRow(vote, leaves.data(), num_classes, &out[r]);
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace smartml
