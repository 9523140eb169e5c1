#include "src/interpret/interpret.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/metrics.h"

namespace smartml {

namespace {

// Predictions of a tree vote on the rows of `data` with one column replaced,
// re-walking only what the replacement can move. Every row's leaf in every
// tree is computed once; per tree, each node records (one bit per feature)
// the features tested on the path from the root to it. A (row, tree) pair
// whose path to its cached leaf never tests the replaced column keeps that
// leaf, since no node it passes reads the column; only the other pairs are
// walked again. A row whose leaves all stay put keeps its base prediction;
// any other row is summed by VoteRow, as VoteTrees sums it.
class CachedVote {
 public:
  CachedVote(const TreeVote& vote, int num_classes, const Dataset& data)
      : vote_(vote),
        num_classes_(num_classes),
        num_trees_(vote.trees.size()),
        words_((data.NumFeatures() + 63) / 64),
        data_(data),
        x_(data.ToRawMatrix()) {}

  // Caches the leaves and the path bits, and predicts the unchanged rows.
  Status Init() {
    paths_.resize(num_trees_);
    for (size_t t = 0; t < num_trees_; ++t) {
      const auto& nodes = vote_.trees[t].nodes();
      std::vector<uint64_t>& bits = paths_[t];
      bits.assign(nodes.size() * words_, 0);
      // Children are stored after their parent, so one forward pass sees
      // every parent's path before its children's.
      for (size_t i = 0; i < nodes.size(); ++i) {
        const DecisionTree::Node& node = nodes[i];
        for (int c = 0; c < node.num_children; ++c) {
          const auto child = static_cast<size_t>(node.first_child + c);
          std::copy_n(bits.begin() + static_cast<std::ptrdiff_t>(i * words_),
                      words_,
                      bits.begin() +
                          static_cast<std::ptrdiff_t>(child * words_));
          const auto f = static_cast<size_t>(node.feature);
          bits[child * words_ + f / 64] |= uint64_t{1} << (f % 64);
        }
      }
    }
    leaves_.resize(x_.rows() * num_trees_);
    base_.resize(x_.rows());
    return ParallelForRanges(
        x_.rows(), /*grain=*/256,
        [&](size_t begin, size_t end) -> Status {
          std::vector<double> proba;
          for (size_t r = begin; r < end; ++r) {
            int* leaves = &leaves_[r * num_trees_];
            for (size_t t = 0; t < num_trees_; ++t) {
              leaves[t] = vote_.trees[t].LeafIndexForRow(x_.RowPtr(r));
            }
            VoteRow(vote_, leaves, num_classes_, &proba);
            base_[r] = ArgMax(proba);
          }
          return Status::OK();
        });
  }

  const std::vector<int>& base() const { return base_; }

  // Predictions with column f holding `column`.
  StatusOr<std::vector<int>> Predict(size_t f,
                                     const std::vector<double>& column) {
    for (size_t r = 0; r < x_.rows(); ++r) x_(r, f) = column[r];
    std::vector<int> pred = base_;
    const Status status = ParallelForRanges(
        x_.rows(), /*grain=*/256,
        [&](size_t begin, size_t end) -> Status {
          std::vector<int> leaves(num_trees_);
          std::vector<double> proba;
          for (size_t r = begin; r < end; ++r) {
            const int* cached = &leaves_[r * num_trees_];
            bool moved = false;
            for (size_t t = 0; t < num_trees_; ++t) {
              leaves[t] = cached[t];
              if (Tests(t, cached[t], f)) {
                leaves[t] = vote_.trees[t].LeafIndexForRow(x_.RowPtr(r));
                moved = moved || leaves[t] != cached[t];
              }
            }
            if (moved) {
              VoteRow(vote_, leaves.data(), num_classes_, &proba);
              pred[r] = ArgMax(proba);
            }
          }
          return Status::OK();
        });
    const std::vector<double>& original = data_.feature(f).values;
    for (size_t r = 0; r < x_.rows(); ++r) x_(r, f) = original[r];
    SMARTML_RETURN_NOT_OK(status);
    return pred;
  }

 private:
  // Whether the path from tree t's root to `node` tests feature f.
  bool Tests(size_t t, int node, size_t f) const {
    return (paths_[t][static_cast<size_t>(node) * words_ + f / 64] >>
            (f % 64)) &
           1;
  }

  const TreeVote vote_;
  const int num_classes_;
  const size_t num_trees_;
  const size_t words_;
  const Dataset& data_;
  Matrix x_;  // data_ as a raw matrix, one column replaced during Predict.
  std::vector<std::vector<uint64_t>> paths_;  // Per tree: words_ per node.
  std::vector<int> leaves_;                   // Row r, tree t: r * T + t.
  std::vector<int> base_;
};

}  // namespace

StatusOr<std::vector<FeatureImportance>> PermutationImportance(
    const Classifier& model, const Dataset& data, int repeats,
    uint64_t seed) {
  if (data.NumRows() < 2) {
    return Status::InvalidArgument("importance: need at least 2 rows");
  }
  // Tree votes take the cached path; a schema mismatch goes the generic way
  // so PredictProba reports it.
  const TreeVote vote = model.tree_vote();
  std::optional<CachedVote> cached;
  std::optional<Dataset> work;
  std::vector<int> base_pred;
  if (!vote.trees.empty() && data.NumFeatures() == model.num_features()) {
    cached.emplace(vote, model.num_classes(), data);
    SMARTML_RETURN_NOT_OK(cached->Init());
    base_pred = cached->base();
  } else {
    SMARTML_ASSIGN_OR_RETURN(base_pred, model.Predict(data));
    work.emplace(data);
  }
  const double base_accuracy = Accuracy(data.labels(), base_pred);

  // One Shuffle of a fresh copy of column f per (feature, repeat), in that
  // order, on both paths.
  Rng rng(seed);
  std::vector<FeatureImportance> out;
  out.reserve(data.NumFeatures());
  for (size_t f = 0; f < data.NumFeatures(); ++f) {
    double drop_sum = 0.0;
    for (int rep = 0; rep < std::max(1, repeats); ++rep) {
      std::vector<double> column = data.feature(f).values;
      rng.Shuffle(&column);
      std::vector<int> pred;
      if (cached) {
        SMARTML_ASSIGN_OR_RETURN(pred, cached->Predict(f, column));
      } else {
        work->mutable_feature(f).values.swap(column);
        SMARTML_ASSIGN_OR_RETURN(pred, model.Predict(*work));
      }
      drop_sum += base_accuracy - Accuracy(data.labels(), pred);
    }
    if (work) work->mutable_feature(f).values = data.feature(f).values;
    FeatureImportance fi;
    fi.feature = data.feature(f).name;
    fi.importance = drop_sum / std::max(1, repeats);
    out.push_back(std::move(fi));
  }
  std::sort(out.begin(), out.end(),
            [](const FeatureImportance& a, const FeatureImportance& b) {
              return a.importance > b.importance;
            });
  return out;
}

StatusOr<PartialDependence> ComputePartialDependence(
    const Classifier& model, const Dataset& data, size_t feature_index,
    int target_class, int grid_points) {
  if (feature_index >= data.NumFeatures()) {
    return Status::InvalidArgument("pdp: feature index out of range");
  }
  const auto& col = data.feature(feature_index);
  if (col.is_categorical()) {
    return Status::InvalidArgument("pdp: feature must be numeric");
  }
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (double v : col.values) {
    if (IsMissing(v)) continue;
    if (first) {
      lo = hi = v;
      first = false;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (first) return Status::InvalidArgument("pdp: feature entirely missing");

  PartialDependence pd;
  pd.feature = col.name;
  const int points = std::max(2, grid_points);
  for (int g = 0; g < points; ++g) {
    const double value =
        lo + (hi - lo) * static_cast<double>(g) / (points - 1);
    Dataset modified = data;
    for (double& v : modified.mutable_feature(feature_index).values) {
      v = value;
    }
    SMARTML_ASSIGN_OR_RETURN(std::vector<std::vector<double>> proba,
                             model.PredictProba(modified));
    double mean = 0.0;
    for (const auto& p : proba) {
      if (static_cast<size_t>(target_class) < p.size()) {
        mean += p[static_cast<size_t>(target_class)];
      }
    }
    mean /= static_cast<double>(proba.size());
    pd.grid.push_back(value);
    pd.mean_probability.push_back(mean);
  }
  return pd;
}

}  // namespace smartml
