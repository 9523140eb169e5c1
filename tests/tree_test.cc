// Tests for the shared decision-tree engine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/common/rng.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"

namespace smartml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TreeSchema schema_all_numeric() {
  TreeSchema schema;
  schema.categorical = {false};
  schema.cardinalities = {0};
  return schema;
}

// XOR-ish dataset: perfectly learnable by a depth-2 tree.
void MakeXor(Matrix* x, std::vector<int>* y, TreeSchema* schema) {
  std::vector<std::vector<double>> rows;
  y->clear();
  for (int i = 0; i < 40; ++i) {
    const double a = (i % 2 == 0) ? 0.0 : 1.0;
    const double b = ((i / 2) % 2 == 0) ? 0.0 : 1.0;
    rows.push_back({a + 0.01 * i, b + 0.005 * i});
    y->push_back(static_cast<int>(a) ^ static_cast<int>(b));
  }
  *x = Matrix::FromRows(rows);
  schema->categorical = {false, false};
  schema->cardinalities = {0, 0};
}

TEST(TreeTest, LearnsXorPerfectly) {
  Matrix x;
  std::vector<int> y;
  TreeSchema schema;
  MakeXor(&x, &y, &schema);
  DecisionTree tree;
  TreeOptions options;
  // Greedy impurity splits cannot cut XOR cleanly in two levels (every
  // single split has near-zero gain), so the tree carves the quadrants with
  // several splits; allow it the depth to do so.
  options.max_depth = 40;
  ASSERT_TRUE(tree.Fit(x, schema, y, 2, {}, options).ok());
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(tree.PredictRow(x.RowPtr(r)), y[r]) << r;
  }
}

TEST(TreeTest, PureNodeBecomesLeaf) {
  const Matrix x = Matrix::FromRows({{1}, {2}, {3}});
  TreeSchema schema;
  schema.categorical = {false};
  schema.cardinalities = {0};
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema, {0, 0, 0}, 1, {}, {}).ok());
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.Depth(), 0);
}

TEST(TreeTest, MaxDepthRespected) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_informative = 5;
  spec.num_classes = 3;
  spec.class_sep = 0.8;
  const Dataset d = GenerateSynthetic(spec);
  DecisionTree tree;
  TreeOptions options;
  options.max_depth = 3;
  ASSERT_TRUE(tree.Fit(d.ToRawMatrix(), TreeSchema::FromDataset(d),
                       d.labels(), 3, {}, options)
                  .ok());
  EXPECT_LE(tree.Depth(), 3);
}

TEST(TreeTest, MinLeafRespected) {
  SyntheticSpec spec;
  spec.num_instances = 200;
  spec.num_classes = 2;
  const Dataset d = GenerateSynthetic(spec);
  DecisionTree tree;
  TreeOptions options;
  options.min_leaf = 40;
  ASSERT_TRUE(tree.Fit(d.ToRawMatrix(), TreeSchema::FromDataset(d),
                       d.labels(), 2, {}, options)
                  .ok());
  // With min_leaf 40 on 200 rows the tree can have at most 5 leaves.
  EXPECT_LE(tree.NumLeaves(), 5u);
}

TEST(TreeTest, PruningShrinksNoisyTree) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_informative = 4;
  spec.num_classes = 2;
  spec.label_noise = 0.25;
  spec.class_sep = 0.8;
  spec.seed = 9;
  const Dataset d = GenerateSynthetic(spec);
  const Matrix x = d.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(d);

  TreeOptions unpruned;
  unpruned.criterion = TreeCriterion::kGainRatio;
  DecisionTree big;
  ASSERT_TRUE(big.Fit(x, schema, d.labels(), 2, {}, unpruned).ok());

  TreeOptions pruned = unpruned;
  pruned.confidence_factor = 0.25;
  DecisionTree small;
  ASSERT_TRUE(small.Fit(x, schema, d.labels(), 2, {}, pruned).ok());

  EXPECT_LT(small.NumLeaves(), big.NumLeaves());
}

TEST(TreeTest, CpGateStopsWeakSplits) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_classes = 2;
  spec.label_noise = 0.3;
  spec.class_sep = 0.6;
  const Dataset d = GenerateSynthetic(spec);
  TreeOptions loose;
  DecisionTree big;
  ASSERT_TRUE(big.Fit(d.ToRawMatrix(), TreeSchema::FromDataset(d), d.labels(),
                      2, {}, loose)
                  .ok());
  TreeOptions strict = loose;
  strict.min_impurity_decrease = 0.1;
  DecisionTree small;
  ASSERT_TRUE(small.Fit(d.ToRawMatrix(), TreeSchema::FromDataset(d),
                        d.labels(), 2, {}, strict)
                  .ok());
  EXPECT_LT(small.NumNodes(), big.NumNodes());
}

TEST(TreeTest, MultiwayCategoricalSplit) {
  // A 3-category feature that fully determines the class.
  Matrix x(60, 1);
  std::vector<int> y(60);
  for (size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i % 3);
    y[i] = static_cast<int>(i % 3);
  }
  TreeSchema schema;
  schema.categorical = {true};
  schema.cardinalities = {3};
  TreeOptions options;
  options.criterion = TreeCriterion::kGainRatio;
  options.multiway_categorical = true;
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema, y, 3, {}, options).ok());
  EXPECT_EQ(tree.Depth(), 1);  // One multiway split suffices.
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(tree.PredictRow(x.RowPtr(i)), y[i]);
  }
}

TEST(TreeTest, BinaryCategoricalSplit) {
  Matrix x(40, 1);
  std::vector<int> y(40);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i % 4);
    y[i] = (i % 4 == 2) ? 1 : 0;  // Only category 2 is positive.
  }
  TreeSchema schema;
  schema.categorical = {true};
  schema.cardinalities = {4};
  TreeOptions options;
  options.multiway_categorical = false;
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema, y, 2, {}, options).ok());
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(tree.PredictRow(x.RowPtr(i)), y[i]);
  }
}

TEST(TreeTest, MissingValuesRoutedAtPredictTime) {
  Matrix x;
  std::vector<int> y;
  TreeSchema schema;
  MakeXor(&x, &y, &schema);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema, y, 2, {}, {}).ok());
  const double row[2] = {kNaN, kNaN};
  const int pred = tree.PredictRow(row);
  EXPECT_TRUE(pred == 0 || pred == 1);  // Must not crash, returns a class.
  std::vector<double> proba(2, 0.0);
  tree.AddLeafProba(tree.LeafIndexForRow(row), 1.0, proba.data());
  EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9);
}

TEST(TreeTest, SampleWeightsChangeTheTree) {
  // Weighting class-1 rows heavily shifts leaf majorities.
  Matrix x(20, 1);
  std::vector<int> y(20);
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 15 ? 0 : 1;  // Majority class 0.
  }
  TreeSchema schema;
  schema.categorical = {false};
  schema.cardinalities = {0};
  TreeOptions options;
  options.max_depth = 0;  // Force a stump: prediction = weighted majority.
  std::vector<double> w(20, 1.0);
  DecisionTree plain;
  ASSERT_TRUE(plain.Fit(x, schema, y, 2, w, options).ok());
  EXPECT_EQ(plain.PredictRow(x.RowPtr(0)), 0);
  for (size_t i = 15; i < 20; ++i) w[i] = 10.0;
  DecisionTree weighted;
  ASSERT_TRUE(weighted.Fit(x, schema, y, 2, w, options).ok());
  EXPECT_EQ(weighted.PredictRow(x.RowPtr(0)), 1);
}

TEST(TreeTest, ZeroWeightRowsIgnored) {
  Matrix x(10, 1);
  std::vector<int> y(10);
  std::vector<double> w(10, 1.0);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 5 ? 0 : 1;
  }
  // Zero out all class-1 rows: tree should see a single class.
  for (size_t i = 5; i < 10; ++i) w[i] = 0.0;
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema_all_numeric(), y, 2, w, {}).ok());
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.PredictRow(x.RowPtr(9)), 0);
}

TEST(TreeTest, AllZeroWeightsRejected) {
  Matrix x(4, 1);
  DecisionTree tree;
  EXPECT_FALSE(
      tree.Fit(x, schema_all_numeric(), {0, 0, 1, 1}, 2,
               {0, 0, 0, 0}, {})
          .ok());
}

TEST(TreeTest, LeafRuleExtraction) {
  Matrix x;
  std::vector<int> y;
  TreeSchema schema;
  MakeXor(&x, &y, &schema);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema, y, 2, {}, {}).ok());
  const auto rules = tree.ExtractLeafRules();
  EXPECT_EQ(rules.size(), tree.NumLeaves());
  // Sorted heaviest first.
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_GE(rules[i - 1].weight, rules[i].weight);
  }
  // Every rule has at least one condition (root is not a leaf here).
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.conditions.empty());
  }
}

TEST(TreeTest, FeatureImportancesFavorInformativeFeature) {
  // Feature 0 fully determines the label; feature 1 is noise.
  Matrix x(100, 2);
  std::vector<int> y(100);
  Rng rng(3);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i % 2);
    x(i, 1) = rng.Normal();
    y[i] = static_cast<int>(i % 2);
  }
  TreeSchema schema;
  schema.categorical = {false, false};
  schema.cardinalities = {0, 0};
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema, y, 2, {}, {}).ok());
  const auto imp = tree.FeatureImportances(2);
  EXPECT_GT(imp[0], imp[1]);
}

TEST(TreeTest, RejectsBadInput) {
  DecisionTree tree;
  Matrix x(3, 1);
  TreeSchema schema;
  schema.categorical = {false};
  schema.cardinalities = {0};
  EXPECT_FALSE(tree.Fit(x, schema, {0, 1}, 2, {}, {}).ok());  // y mismatch.
  TreeSchema bad;
  bad.categorical = {false, false};
  bad.cardinalities = {0, 0};
  EXPECT_FALSE(tree.Fit(x, bad, {0, 1, 0}, 2, {}, {}).ok());  // schema.
}

// Regression: with two adjacent representable doubles the naive midpoint
// 0.5 * (lo + hi) rounds (ties-to-even) up to hi itself, so `v <= t` held
// for BOTH values, every row routed left, and the node degenerated into a
// leaf that got half the training rows wrong. SplitMidpoint clamps the
// threshold below hi so the classes separate.
TEST(TreeTest, AdjacentDoubleValuesStillSplit) {
  const double eps = std::numeric_limits<double>::epsilon();
  const double lo = 1.0 + eps;        // Odd mantissa.
  const double hi = 1.0 + 2.0 * eps;  // The next double up; even mantissa.
  ASSERT_EQ(std::nextafter(lo, 2.0), hi);
  ASSERT_GE(0.5 * (lo + hi), hi);  // The naive midpoint IS the bug.
  const double t = SplitMidpoint(lo, hi);
  EXPECT_GE(t, lo);
  EXPECT_LT(t, hi);

  Matrix x(4, 1);
  x(0, 0) = lo;
  x(1, 0) = lo;
  x(2, 0) = hi;
  x(3, 0) = hi;
  const std::vector<int> y = {0, 0, 1, 1};
  const auto view = std::make_shared<const BinnedColumns>(
      BinnedColumns::FromMatrix(x, {false}, {0}));
  for (const auto& binned : {std::shared_ptr<const BinnedColumns>(), view}) {
    SCOPED_TRACE(binned ? "view" : "node-local");
    DecisionTree tree;
    ASSERT_TRUE(
        tree.Fit(x, schema_all_numeric(), y, 2, {}, {}, binned).ok());
    EXPECT_EQ(tree.NumLeaves(), 2u);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(tree.PredictRow(x.RowPtr(r)), y[r]) << "row " << r;
    }
  }
}

// SplitMidpoint must always land strictly below the upper value and at or
// above the lower one, across magnitudes and signs.
TEST(TreeTest, SplitMidpointStaysInHalfOpenInterval) {
  Rng rng(71);
  for (int i = 0; i < 2000; ++i) {
    const int scale = static_cast<int>(rng.UniformInt(-300, 300));
    double lo = rng.Uniform(-1.0, 1.0) * std::pow(10.0, scale);
    // Mix adjacent pairs (the hard case) with well-separated ones.
    double hi = (i % 2 == 0) ? std::nextafter(lo, 1e308)
                             : lo + std::fabs(lo) * rng.Uniform(0.0, 2.0) +
                                   rng.Uniform(0.0, 1.0);
    if (!(lo < hi)) continue;
    const double t = SplitMidpoint(lo, hi);
    ASSERT_GE(t, lo) << "lo=" << lo << " hi=" << hi;
    ASSERT_LT(t, hi) << "lo=" << lo << " hi=" << hi;
  }
}

// Regression: near-identical (but distinct) adjacent values used to be
// skipped by an epsilon-based tie guard, silently discarding legal split
// boundaries. Distinct doubles are now always split candidates.
TEST(TreeTest, TinyValueGapsAreStillSplitCandidates) {
  // Values differ by ~1e-305 — far below any fixed epsilon.
  const double a = 1e-305;
  const double b = 2e-305;
  Matrix x(4, 1);
  x(0, 0) = a;
  x(1, 0) = a;
  x(2, 0) = b;
  x(3, 0) = b;
  const std::vector<int> y = {0, 0, 1, 1};
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, schema_all_numeric(), y, 2, {}, {}).ok());
  EXPECT_EQ(tree.NumLeaves(), 2u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(tree.PredictRow(x.RowPtr(r)), y[r]) << "row " << r;
  }
}

}  // namespace
}  // namespace smartml
