// Oracle tests for the tree engine's split search, plus unit tests for the
// shared SIMD kernels.
//
// The engine grows every tree with one split scan over per-node bin
// statistics, which come either from a shared binned view or from
// node-local bins (each distinct value at the node a bin). Both sources are
// checked against ReferenceTree (tests/reference_tree.h), a plain grower
// that re-sorts rows at every node and shares no split-search code with the
// engine. The contract (see DESIGN.md §11): with integral sample weights,
// node-local bins, and a view whose columns are lossless, both grow the
// reference's tree: the same training-row partition, node count, depth and
// training-row predictions. Lossy (quantile) view columns and fractional
// weights only promise closeness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/data/binned_columns.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/forest.h"
#include "tests/reference_tree.h"

namespace smartml {
namespace {

template <typename Tree>
std::vector<int> Predictions(const Tree& tree, const Matrix& x) {
  std::vector<int> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = tree.PredictRow(x.RowPtr(r));
  return out;
}

double Accuracy(const std::vector<int>& pred, const std::vector<int>& y) {
  size_t hits = 0;
  for (size_t r = 0; r < pred.size(); ++r) hits += pred[r] == y[r];
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

// Snaps numeric columns to a 0.25 grid so each has far fewer than 255
// distinct values and the binning is lossless.
void SnapToGrid(Dataset* d) {
  for (size_t f = 0; f < d->NumFeatures(); ++f) {
    if (d->feature(f).is_categorical()) continue;
    for (double& v : d->mutable_feature(f).values) {
      if (!IsMissing(v)) v = std::round(v * 4.0) / 4.0;
    }
  }
}

Dataset GridDataset(uint64_t seed, double missing_fraction,
                    size_t num_categorical) {
  SyntheticSpec spec;
  spec.kind = SyntheticKind::kGaussianClusters;
  spec.num_instances = 300;
  spec.num_informative = 5;
  spec.num_noise = 1;
  spec.num_categorical = num_categorical;
  spec.categorical_cardinality = 5;
  spec.num_classes = 3;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.5;
  spec.label_noise = 0.05;
  spec.missing_fraction = missing_fraction;
  spec.seed = seed;
  Dataset d = GenerateSynthetic(spec);
  SnapToGrid(&d);
  return d;
}

// The reference tree plus the engine tree from each bin source.
struct Fits {
  ReferenceTree reference;
  DecisionTree local;  // No view: node-local bins.
  DecisionTree view;   // The dataset's shared binned view.
};

Fits FitAll(const Dataset& train, const std::vector<double>& weights,
            const TreeOptions& options) {
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);
  const int k = static_cast<int>(train.NumClasses());
  Fits fits;
  fits.reference.Fit(x, schema, train.labels(), k, weights, options);
  EXPECT_TRUE(
      fits.local.Fit(x, schema, train.labels(), k, weights, options).ok());
  EXPECT_TRUE(fits.view
                  .Fit(x, schema, train.labels(), k, weights, options,
                       train.Binned())
                  .ok());
  return fits;
}

bool Trains(const std::vector<double>& weights, size_t r) {
  return weights.empty() || weights[r] > 0.0;
}

// Replays growth through a fitted engine tree: each training row follows
// its split values, and rows missing the split feature join the child that
// got the most rows, as they did while the tree grew. Returns each training
// row's leaf (-1 for rows that did not train).
std::vector<int> TrainingLeaves(const DecisionTree& tree, const Matrix& x,
                                const std::vector<double>& weights) {
  std::vector<int> leaf(x.rows(), -1);
  std::vector<size_t> rows;
  for (size_t r = 0; r < x.rows(); ++r) {
    if (Trains(weights, r)) rows.push_back(r);
  }
  std::vector<std::pair<int, std::vector<size_t>>> stack = {{0, rows}};
  while (!stack.empty()) {
    auto [index, at] = std::move(stack.back());
    stack.pop_back();
    const DecisionTree::Node& node = tree.nodes()[static_cast<size_t>(index)];
    if (node.leaf()) {
      for (size_t r : at) leaf[r] = index;
      continue;
    }
    std::vector<std::vector<size_t>> parts(
        static_cast<size_t>(node.num_children));
    std::vector<size_t> missing;
    for (size_t r : at) {
      const int b = DecisionTree::Branch(node, x(r, node.feature));
      (b < 0 ? missing : parts[static_cast<size_t>(b)]).push_back(r);
    }
    size_t heaviest = 0;
    for (size_t c = 1; c < parts.size(); ++c) {
      if (parts[c].size() > parts[heaviest].size()) heaviest = c;
    }
    parts[heaviest].insert(parts[heaviest].end(), missing.begin(),
                           missing.end());
    for (size_t c = 0; c < parts.size(); ++c) {
      stack.emplace_back(node.first_child + static_cast<int>(c),
                         std::move(parts[c]));
    }
  }
  return leaf;
}

// Two leaf labelings describe the same partition of the training rows iff
// the leaf ids correspond one-to-one.
void ExpectSamePartition(const std::vector<int>& expected,
                         const std::vector<int>& got) {
  std::map<int, int> forward;
  std::map<int, int> backward;
  for (size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(expected[r] < 0, got[r] < 0) << "row " << r;
    if (expected[r] < 0) continue;
    const auto [f, new_f] = forward.emplace(expected[r], got[r]);
    const auto [b, new_b] = backward.emplace(got[r], expected[r]);
    ASSERT_EQ(f->second, got[r]) << "row " << r << " split off its leaf";
    ASSERT_EQ(b->second, expected[r]) << "row " << r << " joined a leaf";
  }
}

// Asserts the identity contract for one engine tree: same training-row
// partition, node count and depth as the reference, and the same
// prediction for every row that trained.
void ExpectMatchesReference(const Dataset& train, const ReferenceTree& ref,
                            const DecisionTree& tree,
                            const std::vector<double>& weights = {}) {
  EXPECT_EQ(tree.NumNodes(), ref.NumNodes());
  EXPECT_EQ(tree.Depth(), ref.Depth());
  const Matrix x = train.ToRawMatrix();
  std::vector<int> ref_leaves(x.rows(), -1);
  for (size_t r = 0; r < x.rows(); ++r) {
    if (Trains(weights, r)) ref_leaves[r] = ref.TrainingLeaf(r);
  }
  ExpectSamePartition(ref_leaves, TrainingLeaves(tree, x, weights));
  const std::vector<int> pe = Predictions(ref, x);
  const std::vector<int> pt = Predictions(tree, x);
  for (size_t r = 0; r < pe.size(); ++r) {
    if (!Trains(weights, r)) continue;
    ASSERT_EQ(pe[r], pt[r]) << "row " << r;
  }
}

void ExpectBothSourcesMatchReference(const Dataset& train, const Fits& fits,
                                     const std::vector<double>& weights = {}) {
  {
    SCOPED_TRACE("node-local bins");
    ExpectMatchesReference(train, fits.reference, fits.local, weights);
  }
  {
    SCOPED_TRACE("shared view");
    ExpectMatchesReference(train, fits.reference, fits.view, weights);
  }
}

// Randomized oracle sweep: every criterion, with and without multiway
// categorical splits, missing values, categorical columns, and pruning.
// Lossless bins + unit weights => both bin sources must grow the
// reference tree.
TEST(TreeHistogramTest, LosslessGridOracleAcrossConfigs) {
  const TreeCriterion criteria[] = {TreeCriterion::kGini,
                                    TreeCriterion::kEntropy,
                                    TreeCriterion::kGainRatio};
  for (uint64_t seed : {42u, 43u}) {
    for (TreeCriterion crit : criteria) {
      for (bool multiway : {false, true}) {
        for (double missing : {0.0, 0.1}) {
          for (size_t cats : {size_t{0}, size_t{2}}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " crit="
                         << static_cast<int>(crit) << " multiway=" << multiway
                         << " missing=" << missing << " cats=" << cats);
            const Dataset train = GridDataset(seed, missing, cats);
            // Sanity: the grid snap must have made every column lossless,
            // otherwise this test is not exercising the identity contract.
            const auto binned = train.Binned();
            for (size_t f = 0; f < binned->num_features(); ++f) {
              ASSERT_TRUE(binned->column(f).lossless) << "feature " << f;
            }
            TreeOptions options;
            options.criterion = crit;
            options.multiway_categorical = multiway;
            options.max_depth = 12;
            options.min_split = 4;
            options.min_leaf = 2;
            if (crit == TreeCriterion::kGainRatio) {
              options.confidence_factor = 0.25;  // Exercise C4.5 pruning.
            } else {
              options.min_impurity_decrease = 0.001;  // Exercise cp gate.
            }
            ExpectBothSourcesMatchReference(train,
                                            FitAll(train, {}, options));
          }
        }
      }
    }
  }
}

// Bootstrap-style integer weights (including zeros) keep the identity:
// integer sums are exact in doubles, so gains are bit-identical.
TEST(TreeHistogramTest, IntegerBootstrapWeightsMatchExact) {
  const Dataset train = GridDataset(7, 0.0, 2);
  Rng rng(99);
  std::vector<double> weights(train.NumRows(), 0.0);
  for (size_t r = 0; r < weights.size(); ++r) {
    weights[rng.UniformInt(weights.size())] += 1.0;  // Bootstrap counts.
  }
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  ExpectBothSourcesMatchReference(train, FitAll(train, weights, options),
                                  weights);
}

// Missing values + non-uniform weights: the training partition routes
// missing rows to the child with more ROWS, while predict time follows
// majority_child (heaviest by WEIGHT). When those disagree a missing row
// strays off its training path at predict time, and for a strayed
// (effectively held-out) row the view's global bin midpoints may route it
// differently from the reference's node-local midpoints. Growth is still
// identical (gains are bit-equal integer sums), so the training-row
// partition, node count and depth match for both sources.
TEST(TreeHistogramTest, IntegerWeightsWithMissingKeepStructure) {
  const Dataset train = GridDataset(7, 0.05, 2);
  Rng rng(99);
  std::vector<double> weights(train.NumRows(), 0.0);
  for (size_t r = 0; r < weights.size(); ++r) {
    weights[rng.UniformInt(weights.size())] += 1.0;
  }
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  ExpectBothSourcesMatchReference(train, FitAll(train, weights, options),
                                  weights);
}

// Feature subsampling draws from the tree RNG in the same per-node order as
// the reference, so identical structure implies identical subsets and the
// identity survives mtry < d.
TEST(TreeHistogramTest, MtrySubsetMatchesExact) {
  const Dataset train = GridDataset(11, 0.0, 1);
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  options.mtry = 2;
  options.seed = 5;
  ExpectBothSourcesMatchReference(train, FitAll(train, {}, options));
}

// Sampled-feature nodes read statistics over only the bins their rows
// occupy. Bootstrap weights and min_leaf 1 on a table built for the edge
// cases: a column whose present rows mostly share one bin and whose last
// bin is rare (occupied at some nodes, empty at others), a column missing
// everywhere, a column missing on a class-correlated half of the rows (so
// whole nodes see only missing cells), and a categorical column with a rare
// last category, under one-vs-rest and multiway splits.
TEST(TreeHistogramTest, MtryOccupiedBinEdgeCasesMatchExact) {
  const size_t kRows = 240;
  Rng rng(61);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> grid(kRows);
  std::vector<double> rare_top(kRows);
  std::vector<double> all_missing(kRows, nan);
  std::vector<double> half_missing(kRows);
  std::vector<double> cat(kRows);
  std::vector<int> labels(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    const int label = static_cast<int>(rng.UniformInt(3));
    labels[r] = label;
    grid[r] = std::round((label + rng.Normal()) * 4.0) / 4.0;
    const double u = rng.Uniform(0.0, 1.0);
    rare_top[r] = u < 0.8 ? 0.0 : (u < 0.96 ? 1.0 : 2.0);
    half_missing[r] =
        label == 0 ? nan : std::round((label + rng.Normal()) * 2.0) / 2.0;
    cat[r] = rng.Uniform(0.0, 1.0) < 0.05
                 ? 3.0
                 : static_cast<double>((label + rng.UniformInt(2)) % 3);
  }
  Dataset train("mtry_edges");
  train.AddNumericFeature("grid", std::move(grid));
  train.AddNumericFeature("rare_top", std::move(rare_top));
  train.AddNumericFeature("all_missing", std::move(all_missing));
  train.AddNumericFeature("half_missing", std::move(half_missing));
  train.AddCategoricalFeature("cat", std::move(cat), {"a", "b", "c", "d"});
  train.SetLabels(std::move(labels), {"x", "y", "z"});
  ASSERT_TRUE(train.Validate().ok());
  const auto binned = train.Binned();
  ASSERT_EQ(binned->column(2).num_bins, 0u);  // all_missing has no bins.
  for (size_t f : {0u, 1u, 3u, 4u}) {
    ASSERT_TRUE(binned->column(f).lossless) << "feature " << f;
  }

  for (uint64_t seed : {3u, 4u, 5u, 6u}) {
    for (bool multiway : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " multiway=" << multiway);
      Rng draw(seed);
      std::vector<double> weights(kRows, 0.0);
      for (size_t i = 0; i < kRows; ++i) weights[draw.UniformInt(kRows)] += 1.0;
      TreeOptions options;
      options.criterion =
          multiway ? TreeCriterion::kGainRatio : TreeCriterion::kGini;
      options.multiway_categorical = multiway;
      options.max_depth = 16;
      options.min_split = 2;
      options.min_leaf = 1;
      options.mtry = 2;
      options.seed = seed;
      const Fits fits = FitAll(train, weights, options);
      EXPECT_GT(fits.view.Depth(), 5);  // Deep enough to reach small nodes.
      ExpectBothSourcesMatchReference(train, fits, weights);
    }
  }
}

// Fractional weights: per-bin sums add the same weights in a different
// order than the reference's row-by-row scan, so only closeness is
// promised.
TEST(TreeHistogramTest, FractionalWeightsStayClose) {
  const Dataset train = GridDataset(13, 0.0, 0);
  Rng rng(3);
  std::vector<double> weights(train.NumRows());
  for (double& w : weights) w = rng.Uniform(0.1, 2.0);
  TreeOptions options;
  options.max_depth = 12;
  options.min_split = 4;
  options.min_leaf = 2;
  const Fits fits = FitAll(train, weights, options);
  const Matrix x = train.ToRawMatrix();
  const double acc_ref =
      Accuracy(Predictions(fits.reference, x), train.labels());
  EXPECT_NEAR(acc_ref, Accuracy(Predictions(fits.local, x), train.labels()),
              0.05);
  EXPECT_NEAR(acc_ref, Accuracy(Predictions(fits.view, x), train.labels()),
              0.05);
}

// Continuous columns with thousands of distinct values force real quantile
// binning (lossless = false); the view-grown tree must stay within a small
// train-accuracy band of the reference, while node-local bins (one per
// distinct value) still grow the reference tree exactly.
TEST(TreeHistogramTest, QuantileBinnedColumnsStayClose) {
  SyntheticSpec spec;
  spec.num_instances = 3000;
  spec.num_informative = 6;
  spec.num_classes = 4;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.5;
  spec.label_noise = 0.05;
  spec.seed = 17;
  const Dataset train = GenerateSynthetic(spec);
  const auto binned = train.Binned();
  bool any_lossy = false;
  for (size_t f = 0; f < binned->num_features(); ++f) {
    any_lossy |= !binned->column(f).lossless;
    EXPECT_LE(binned->column(f).num_bins, BinnedColumns::kMaxBins);
  }
  ASSERT_TRUE(any_lossy) << "test is not exercising quantile binning";

  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 40;
  options.min_leaf = 20;
  const Fits fits = FitAll(train, {}, options);
  ExpectMatchesReference(train, fits.reference, fits.local);
  const Matrix x = train.ToRawMatrix();
  const double acc_ref =
      Accuracy(Predictions(fits.reference, x), train.labels());
  EXPECT_GT(acc_ref, 0.6);
  EXPECT_NEAR(acc_ref, Accuracy(Predictions(fits.view, x), train.labels()),
              0.05);
}

// Categorical cardinality above 255 cannot be represented in uint8 bin
// codes; a tree handed such a view must silently use node-local bins,
// growing the reference tree and predicting exactly like a tree given no
// view at all.
TEST(TreeHistogramTest, HighCardinalityCategoricalFallsBackToExact) {
  const size_t kCard = 300;
  const size_t kRows = 600;
  Dataset train("highcard");
  Rng rng(23);
  std::vector<double> codes(kRows);
  std::vector<double> noise(kRows);
  std::vector<int> labels(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    const auto code = rng.UniformInt(kCard);
    codes[r] = static_cast<double>(code);
    noise[r] = rng.Normal();
    labels[r] = static_cast<int>(code % 2);
  }
  std::vector<std::string> categories;
  for (size_t c = 0; c < kCard; ++c) {
    // "c<c>", appended: `"c" + std::to_string(c)` trips GCC 12's -Wrestrict.
    categories.emplace_back("c") += std::to_string(c);
  }
  train.AddCategoricalFeature("big", std::move(codes), std::move(categories));
  train.AddNumericFeature("noise", std::move(noise));
  train.SetLabels(std::move(labels), {"even", "odd"});
  ASSERT_TRUE(train.Validate().ok());
  ASSERT_FALSE(train.Binned()->histogram_safe());

  TreeOptions options;
  options.max_depth = 10;
  options.multiway_categorical = true;
  const Fits fits = FitAll(train, {}, options);
  ExpectBothSourcesMatchReference(train, fits);
  const Matrix x = train.ToRawMatrix();
  EXPECT_EQ(Predictions(fits.view, x), Predictions(fits.local, x));
}

// A pre-built binned view whose shape disagrees with the training matrix is
// a caller bug and must be rejected, not silently misread.
TEST(TreeHistogramTest, MismatchedBinnedViewRejected) {
  const Dataset big = GridDataset(29, 0.0, 0);
  SyntheticSpec small_spec;
  small_spec.num_instances = 100;
  small_spec.num_informative = 6;
  small_spec.seed = 29;
  const Dataset small = GenerateSynthetic(small_spec);

  DecisionTree tree;
  TreeOptions options;
  const Status status = tree.Fit(
      big.ToRawMatrix(), TreeSchema::FromDataset(big), big.labels(),
      static_cast<int>(big.NumClasses()), {}, options, small.Binned());
  EXPECT_FALSE(status.ok());
}

// TSan race case: concurrent Binned() calls on one Dataset (first call
// builds and caches), plus tree fits reading the shared view from several
// threads, plus a RandomForest fit (whose workers share one view through
// ParallelFor). All trees over the same rows must agree with a reference.
TEST(TreeHistogramTest, ConcurrentBinnedViewSharing) {
  const Dataset train = GridDataset(31, 0.05, 1);
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);
  const int k = static_cast<int>(train.NumClasses());
  TreeOptions options;
  options.max_depth = 12;
  options.min_split = 4;
  options.min_leaf = 2;

  DecisionTree reference;
  ASSERT_TRUE(reference.Fit(x, schema, train.labels(), k, {}, options,
                            train.Binned())
                  .ok());
  const std::vector<int> expected = Predictions(reference, x);

  constexpr int kThreads = 4;
  std::vector<DecisionTree> trees(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each worker races on the lazy cache and then trains off the view.
      const std::shared_ptr<const BinnedColumns> binned = train.Binned();
      ASSERT_TRUE(trees[static_cast<size_t>(t)]
                      .Fit(x, schema, train.labels(), k, {}, options, binned)
                      .ok());
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& tree : trees) {
    EXPECT_EQ(Predictions(tree, x), expected);
  }

  RandomForestClassifier forest;
  ParamConfig config;
  config.SetInt("ntree", 16);
  ASSERT_TRUE(forest.Fit(train, config).ok());
  const auto proba = forest.PredictProba(train);
  ASSERT_TRUE(proba.ok());
  EXPECT_EQ(proba.value().size(), train.NumRows());
}

// ---------------------------------------------------------------------------
// SIMD kernel unit tests.
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, SquaredDistanceMatchesScalarReference) {
  Rng rng(47);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{25}, size_t{64}, size_t{101}}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-100.0, 100.0);
      b[i] = rng.Uniform(-100.0, 100.0);
    }
    double expected = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[i];
      expected += d * d;
    }
    const double got = SquaredDistance(a.data(), b.data(), n);
    EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << "n=" << n;
  }
}

TEST(SimdKernelTest, AccumulateBinHistogramMatchesNaiveLoop) {
  Rng rng(53);
  const size_t kRows = 500;
  const size_t kBins = 13;
  const size_t kClasses = 4;
  std::vector<uint8_t> codes(kRows);
  std::vector<int> y(kRows);
  std::vector<double> w(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    // ~10% of rows get the missing code to exercise the overflow slot.
    codes[r] = rng.Bernoulli(0.1)
                   ? BinnedColumns::kMissingBin
                   : static_cast<uint8_t>(rng.UniformInt(kBins));
    y[r] = static_cast<int>(rng.UniformInt(kClasses));
    w[r] = static_cast<double>(rng.UniformInt(4));  // Integer, incl. zero.
  }
  // A strided, shuffled subset of rows, as node partitions produce.
  std::vector<size_t> rows;
  for (size_t r = 0; r < kRows; r += 2) rows.push_back(r);
  rng.Shuffle(&rows);

  std::vector<double> wsum((kBins + 1) * kClasses, 0.0);
  std::vector<uint32_t> cnt(kBins + 1, 0);
  AccumulateBinHistogram(codes.data(), rows.data(), rows.size(), y.data(),
                         w.data(), kClasses, kBins, wsum.data(), cnt.data());

  std::vector<double> want_w((kBins + 1) * kClasses, 0.0);
  std::vector<uint32_t> want_c(kBins + 1, 0);
  for (size_t r : rows) {
    size_t b = codes[r];
    if (b > kBins) b = kBins;
    want_w[b * kClasses + static_cast<size_t>(y[r])] += w[r];
    ++want_c[b];
  }
  for (size_t i = 0; i < wsum.size(); ++i) {
    EXPECT_DOUBLE_EQ(wsum[i], want_w[i]) << "slot " << i;
  }
  for (size_t b = 0; b <= kBins; ++b) {
    EXPECT_EQ(cnt[b], want_c[b]) << "bin " << b;
  }
}

}  // namespace
}  // namespace smartml
