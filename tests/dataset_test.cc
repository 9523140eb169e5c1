// Tests for the Dataset container.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/data/dataset.h"

namespace smartml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeSmallDataset() {
  Dataset d("toy");
  d.AddNumericFeature("x1", {1.0, 2.0, 3.0, 4.0});
  d.AddCategoricalFeature("color", {0, 1, 0, 2}, {"red", "green", "blue"});
  d.SetLabels({0, 1, 0, 1}, {"neg", "pos"});
  return d;
}

TEST(DatasetTest, BasicShape) {
  const Dataset d = MakeSmallDataset();
  EXPECT_EQ(d.NumRows(), 4u);
  EXPECT_EQ(d.NumFeatures(), 2u);
  EXPECT_EQ(d.NumClasses(), 2u);
  EXPECT_EQ(d.NumNumericFeatures(), 1u);
  EXPECT_EQ(d.NumCategoricalFeatures(), 1u);
  EXPECT_TRUE(d.Validate().ok());
}

TEST(DatasetTest, LabelsFromStringsFirstAppearanceOrder) {
  Dataset d;
  d.AddNumericFeature("x", {1, 2, 3});
  d.SetLabelsFromStrings({"b", "a", "b"});
  EXPECT_EQ(d.NumClasses(), 2u);
  EXPECT_EQ(d.class_names()[0], "b");
  EXPECT_EQ(d.class_names()[1], "a");
  EXPECT_EQ(d.label(0), 0);
  EXPECT_EQ(d.label(1), 1);
}

TEST(DatasetTest, ValidateCatchesLengthMismatch) {
  Dataset d;
  d.AddNumericFeature("x", {1, 2, 3});
  d.SetLabels({0, 1}, {"a", "b"});
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesBadCategoryCode) {
  Dataset d;
  d.AddCategoricalFeature("c", {0, 5}, {"a", "b"});
  d.SetLabels({0, 0}, {"x"});
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesBadLabel) {
  Dataset d;
  d.AddNumericFeature("x", {1, 2});
  d.SetLabels({0, 7}, {"a", "b"});
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, SubsetPreservesSchemaAndClasses) {
  const Dataset d = MakeSmallDataset();
  const Dataset sub = d.Subset({0, 3});
  EXPECT_EQ(sub.NumRows(), 2u);
  EXPECT_EQ(sub.NumFeatures(), 2u);
  EXPECT_EQ(sub.NumClasses(), 2u);  // Dictionary preserved.
  EXPECT_DOUBLE_EQ(sub.feature(0).values[1], 4.0);
  EXPECT_EQ(sub.label(1), 1);
  EXPECT_EQ(sub.feature(1).categories.size(), 3u);
}

TEST(DatasetTest, ClassCounts) {
  const Dataset d = MakeSmallDataset();
  const auto counts = d.ClassCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(DatasetTest, MissingDetection) {
  Dataset d;
  d.AddNumericFeature("x", {1.0, kNaN, 3.0});
  d.AddCategoricalFeature("c", {0, 0, kNaN}, {"a"});
  d.SetLabels({0, 0, 0}, {"y"});
  EXPECT_TRUE(d.HasMissing());
  EXPECT_EQ(d.CountMissing(), 2u);
}

TEST(DatasetTest, NoMissing) {
  EXPECT_FALSE(MakeSmallDataset().HasMissing());
}

TEST(DatasetTest, ToRawMatrixKeepsCodesAndNaN) {
  Dataset d;
  d.AddNumericFeature("x", {1.0, kNaN});
  d.AddCategoricalFeature("c", {1, 0}, {"a", "b"});
  d.SetLabels({0, 0}, {"y"});
  const Matrix x = d.ToRawMatrix();
  EXPECT_EQ(x.cols(), 2u);
  EXPECT_TRUE(std::isnan(x(1, 0)));
  EXPECT_DOUBLE_EQ(x(0, 1), 1.0);
}

TEST(DatasetTest, RemoveFeature) {
  Dataset d = MakeSmallDataset();
  EXPECT_TRUE(d.RemoveFeature(0).ok());
  EXPECT_EQ(d.NumFeatures(), 1u);
  EXPECT_EQ(d.feature(0).name, "color");
}

// Regression: an out-of-range index used to hit a bare assert that NDEBUG
// compiled out, erasing past the end of the column vector in release
// builds. It is now a reported error.
TEST(DatasetTest, RemoveFeatureRejectsOutOfRange) {
  Dataset d = MakeSmallDataset();
  EXPECT_FALSE(d.RemoveFeature(2).ok());
  EXPECT_FALSE(d.RemoveFeature(999).ok());
  EXPECT_EQ(d.NumFeatures(), 2u);  // Nothing was erased.
}

TEST(DatasetTest, BinnedLosslessSmallColumn) {
  Dataset d;
  d.AddNumericFeature("x", {3.0, 1.0, 2.0, 2.0, kNaN});
  d.AddCategoricalFeature("c", {0, 1, 0, 2, kNaN}, {"a", "b", "c"});
  d.SetLabels({0, 0, 0, 0, 0}, {"y"});
  const auto binned = d.Binned();
  ASSERT_EQ(binned->num_features(), 2u);
  EXPECT_EQ(binned->num_rows(), 5u);
  EXPECT_TRUE(binned->histogram_safe());

  const BinnedColumn& x = binned->column(0);
  EXPECT_FALSE(x.categorical);
  EXPECT_TRUE(x.lossless);
  ASSERT_EQ(x.num_bins, 3u);
  // Codes follow sorted value order; missing gets the sentinel.
  const std::vector<uint8_t> want = {2, 0, 1, 1, BinnedColumns::kMissingBin};
  EXPECT_EQ(x.codes, want);
  ASSERT_EQ(x.thresholds.size(), 2u);
  EXPECT_DOUBLE_EQ(x.thresholds[0], 1.5);
  EXPECT_DOUBLE_EQ(x.thresholds[1], 2.5);

  const BinnedColumn& c = binned->column(1);
  EXPECT_TRUE(c.categorical);
  EXPECT_EQ(c.num_bins, 3u);
  EXPECT_EQ(c.cardinality, 3u);
  const std::vector<uint8_t> want_c = {0, 1, 0, 2, BinnedColumns::kMissingBin};
  EXPECT_EQ(c.codes, want_c);
}

TEST(DatasetTest, BinnedQuantileColumnRespectsThresholdOrder) {
  Dataset d;
  std::vector<double> values(1000);
  // 1000 distinct values force true quantile binning (> 255 distinct).
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 7919) % 1000);
  }
  d.AddNumericFeature("x", values);
  d.SetLabels(std::vector<int>(1000, 0), {"y"});
  const auto binned = d.Binned();
  const BinnedColumn& col = binned->column(0);
  EXPECT_FALSE(col.lossless);
  EXPECT_GT(col.num_bins, 1u);
  EXPECT_LE(col.num_bins, BinnedColumns::kMaxBins);
  ASSERT_EQ(col.thresholds.size(), static_cast<size_t>(col.num_bins) - 1);
  for (size_t b = 1; b < col.thresholds.size(); ++b) {
    EXPECT_LT(col.thresholds[b - 1], col.thresholds[b]);
  }
  // The binning contract: value <= thresholds[b] exactly when code <= b.
  for (size_t r = 0; r < values.size(); ++r) {
    for (size_t b = 0; b < col.thresholds.size(); ++b) {
      EXPECT_EQ(values[r] <= col.thresholds[b], col.codes[r] <= b)
          << "row " << r << " bin " << b;
    }
  }
}

TEST(DatasetTest, BinnedViewIsCachedAndInvalidatedByMutation) {
  Dataset d = MakeSmallDataset();
  const auto first = d.Binned();
  EXPECT_EQ(first.get(), d.Binned().get());  // Cached.

  d.AddNumericFeature("x2", {5.0, 6.0, 7.0, 8.0});
  const auto second = d.Binned();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second->num_features(), 3u);
  // The old view stays valid for holders that captured it (shared, immutable).
  EXPECT_EQ(first->num_features(), 2u);

  d.mutable_feature(0).values[0] = 99.0;  // Mutation drops the cache too.
  const auto third = d.Binned();
  EXPECT_NE(second.get(), third.get());
}

}  // namespace
}  // namespace smartml
