// Tests for the Table 2 preprocessing operators: each operator's
// post-condition is verified, plus pipeline composition and train/transform
// consistency.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/data/synthetic.h"
#include "src/preprocess/preprocess.h"

namespace smartml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeNumericDataset() {
  SyntheticSpec spec;
  spec.num_instances = 120;
  spec.num_informative = 4;
  spec.num_classes = 2;
  spec.seed = 21;
  return GenerateSynthetic(spec);
}

double ColumnMean(const FeatureColumn& col) {
  double sum = 0;
  size_t n = 0;
  for (double v : col.values) {
    if (!IsMissing(v)) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

double ColumnStd(const FeatureColumn& col) {
  const double mean = ColumnMean(col);
  double acc = 0;
  size_t n = 0;
  for (double v : col.values) {
    if (!IsMissing(v)) {
      acc += (v - mean) * (v - mean);
      ++n;
    }
  }
  return n > 1 ? std::sqrt(acc / (n - 1)) : 0.0;
}

TEST(PreprocessTest, NamesRoundTrip) {
  for (PreprocessOp op : AllPreprocessOps()) {
    auto parsed = ParsePreprocessOp(PreprocessOpName(op));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, op);
  }
  EXPECT_FALSE(ParsePreprocessOp("bogus").ok());
  EXPECT_EQ(AllPreprocessOps().size(), 8u)
      << "Table 2 lists exactly 8 operators";
}

TEST(PreprocessTest, CenterZeroesMeans) {
  const Dataset d = MakeNumericDataset();
  auto p = CreatePreprocessor(PreprocessOp::kCenter);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  for (const auto& col : out->features()) {
    if (!col.is_categorical()) {
      EXPECT_NEAR(ColumnMean(col), 0.0, 1e-9);
    }
  }
}

TEST(PreprocessTest, ScaleUnitStddev) {
  const Dataset d = MakeNumericDataset();
  auto p = CreatePreprocessor(PreprocessOp::kScale);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  for (const auto& col : out->features()) {
    if (!col.is_categorical()) {
      EXPECT_NEAR(ColumnStd(col), 1.0, 1e-9);
    }
  }
}

TEST(PreprocessTest, RangeMapsToUnitInterval) {
  const Dataset d = MakeNumericDataset();
  auto p = CreatePreprocessor(PreprocessOp::kRange);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  for (const auto& col : out->features()) {
    if (col.is_categorical()) continue;
    double lo = 1e9, hi = -1e9;
    for (double v : col.values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_NEAR(lo, 0.0, 1e-9);
    EXPECT_NEAR(hi, 1.0, 1e-9);
  }
}

TEST(PreprocessTest, ZeroVarianceDropsConstantColumns) {
  Dataset d("zv");
  d.AddNumericFeature("constant", {5, 5, 5, 5});
  d.AddNumericFeature("varies", {1, 2, 3, 4});
  d.AddCategoricalFeature("const_cat", {0, 0, 0, 0}, {"a", "b"});
  d.SetLabels({0, 1, 0, 1}, {"n", "p"});
  auto p = CreatePreprocessor(PreprocessOp::kZeroVariance);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumFeatures(), 1u);
  EXPECT_EQ(out->feature(0).name, "varies");
}

TEST(PreprocessTest, BoxCoxReducesSkewOfLognormal) {
  // Log-normal data is heavily right-skewed; Box-Cox should produce a much
  // more symmetric column (lambda near 0 = log).
  Dataset d("bc");
  std::vector<double> values;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) values.push_back(std::exp(rng.Normal()));
  d.AddNumericFeature("x", values);
  d.SetLabels(std::vector<int>(300, 0), {"y"});

  auto skew = [](const std::vector<double>& v) {
    double mean = 0;
    for (double x : v) mean += x;
    mean /= v.size();
    double m2 = 0, m3 = 0;
    for (double x : v) {
      m2 += (x - mean) * (x - mean);
      m3 += (x - mean) * (x - mean) * (x - mean);
    }
    m2 /= v.size();
    m3 /= v.size();
    return m3 / std::pow(m2, 1.5);
  };
  const double skew_before = skew(values);

  auto p = CreatePreprocessor(PreprocessOp::kBoxCox);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  const double skew_after = skew(out->feature(0).values);
  EXPECT_LT(std::fabs(skew_after), 0.5 * std::fabs(skew_before));
}

TEST(PreprocessTest, BoxCoxSkipsNonPositiveColumns) {
  Dataset d("bc2");
  d.AddNumericFeature("x", {-1, 0, 1, 2});
  d.SetLabels({0, 0, 0, 0}, {"y"});
  auto p = CreatePreprocessor(PreprocessOp::kBoxCox);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->feature(0).values, d.feature(0).values);  // Untouched.
}

TEST(PreprocessTest, YeoJohnsonHandlesNegatives) {
  Dataset d("yj");
  std::vector<double> values;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    values.push_back(std::exp(rng.Normal()) - 1.5);  // Mixed signs, skewed.
  }
  d.AddNumericFeature("x", values);
  d.SetLabels(std::vector<int>(200, 0), {"y"});
  auto p = CreatePreprocessor(PreprocessOp::kYeoJohnson);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  for (double v : out->feature(0).values) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(PreprocessTest, PcaComponentsAreDecorrelated) {
  const Dataset d = MakeNumericDataset();
  auto p = CreatePreprocessor(PreprocessOp::kPca);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->NumNumericFeatures(), 1u);
  // Pairwise correlations of PCs ~ 0.
  const size_t k = out->NumNumericFeatures();
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a + 1; b < k; ++b) {
      const auto& va = out->feature(a).values;
      const auto& vb = out->feature(b).values;
      double ma = 0, mb = 0;
      for (size_t r = 0; r < va.size(); ++r) {
        ma += va[r];
        mb += vb[r];
      }
      ma /= va.size();
      mb /= vb.size();
      double cov = 0, vara = 0, varb = 0;
      for (size_t r = 0; r < va.size(); ++r) {
        cov += (va[r] - ma) * (vb[r] - mb);
        vara += (va[r] - ma) * (va[r] - ma);
        varb += (vb[r] - mb) * (vb[r] - mb);
      }
      const double corr = cov / std::sqrt(vara * varb + 1e-12);
      EXPECT_NEAR(corr, 0.0, 0.05) << a << "," << b;
    }
  }
}

TEST(PreprocessTest, PcaKeepsCategoricalColumns) {
  Dataset d("pcacat");
  Rng rng(9);
  std::vector<double> a(50), b(50), c(50);
  for (size_t i = 0; i < 50; ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
    c[i] = static_cast<double>(i % 2);
  }
  d.AddNumericFeature("a", a);
  d.AddNumericFeature("b", b);
  d.AddCategoricalFeature("c", c, {"u", "v"});
  d.SetLabels(std::vector<int>(50, 0), {"y"});
  auto p = CreatePreprocessor(PreprocessOp::kPca);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumCategoricalFeatures(), 1u);
}

TEST(PreprocessTest, IcaProducesFiniteComponents) {
  const Dataset d = MakeNumericDataset();
  auto p = CreatePreprocessor(PreprocessOp::kIca, 11);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->NumNumericFeatures(), 1u);
  for (const auto& col : out->features()) {
    for (double v : col.values) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(PreprocessTest, IcaUnmixesLinearMixture) {
  // Two independent uniform sources mixed linearly: ICA components should be
  // much closer to independent (low |corr| with each other + heavy
  // non-Gaussianity preserved). We check decorrelation as a proxy.
  Rng rng(13);
  const size_t n = 400;
  std::vector<double> s1(n), s2(n), x1(n), x2(n);
  for (size_t i = 0; i < n; ++i) {
    s1[i] = rng.Uniform(-1, 1);
    s2[i] = rng.Uniform(-1, 1);
    x1[i] = 2 * s1[i] + 1 * s2[i];
    x2[i] = 1 * s1[i] + 1 * s2[i];
  }
  Dataset d("ica");
  d.AddNumericFeature("x1", x1);
  d.AddNumericFeature("x2", x2);
  d.SetLabels(std::vector<int>(n, 0), {"y"});
  auto p = CreatePreprocessor(PreprocessOp::kIca, 17);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumNumericFeatures(), 2u);
  const auto& c1 = out->feature(0).values;
  const auto& c2 = out->feature(1).values;
  double m1 = 0, m2 = 0;
  for (size_t i = 0; i < n; ++i) {
    m1 += c1[i];
    m2 += c2[i];
  }
  m1 /= n;
  m2 /= n;
  double cov = 0, v1 = 0, v2 = 0;
  for (size_t i = 0; i < n; ++i) {
    cov += (c1[i] - m1) * (c2[i] - m2);
    v1 += (c1[i] - m1) * (c1[i] - m1);
    v2 += (c2[i] - m2) * (c2[i] - m2);
  }
  EXPECT_NEAR(cov / std::sqrt(v1 * v2), 0.0, 0.1);
}

TEST(PreprocessTest, ImputeFillsEverything) {
  Dataset d("imp");
  d.AddNumericFeature("x", {1, kNaN, 3, kNaN, 100});
  d.AddCategoricalFeature("c", {0, 1, kNaN, 1, 1}, {"a", "b"});
  d.SetLabels({0, 0, 0, 0, 0}, {"y"});
  auto p = CreatePreprocessor(PreprocessOp::kImpute);
  ASSERT_TRUE(p->Fit(d).ok());
  auto out = p->Transform(d);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->HasMissing());
  EXPECT_DOUBLE_EQ(out->feature(0).values[1], 3.0);  // Median of {1,3,100}.
  EXPECT_DOUBLE_EQ(out->feature(1).values[2], 1.0);  // Mode "b".
}

TEST(PreprocessTest, PipelineComposesInOrder) {
  const Dataset d = MakeNumericDataset();
  PreprocessPipeline pipeline(
      {PreprocessOp::kCenter, PreprocessOp::kScale});
  auto out = pipeline.FitTransform(d);
  ASSERT_TRUE(out.ok());
  for (const auto& col : out->features()) {
    if (col.is_categorical()) continue;
    EXPECT_NEAR(ColumnMean(col), 0.0, 1e-6);
    EXPECT_NEAR(ColumnStd(col), 1.0, 1e-6);
  }
}

TEST(PreprocessTest, FitTransformBitEqualsFitThenTransform) {
  // FitTransform returns the fitting chain's own output; it must equal a
  // separate Transform of the training set bit for bit, with every
  // operator (imputation + all of Table 2) chained.
  SyntheticSpec spec;
  spec.num_instances = 150;
  spec.num_informative = 4;
  spec.num_noise = 2;
  spec.num_categorical = 1;
  spec.num_classes = 3;
  spec.missing_fraction = 0.05;
  spec.seed = 23;
  Dataset train = GenerateSynthetic(spec);
  train.AddNumericFeature("constant", std::vector<double>(150, 1.0));
  std::vector<PreprocessOp> ops = {PreprocessOp::kImpute};
  for (PreprocessOp op : AllPreprocessOps()) ops.push_back(op);
  ASSERT_EQ(ops.size(), 9u);

  PreprocessPipeline one_pass(ops, 5);
  auto fused = one_pass.FitTransform(train);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  PreprocessPipeline two_pass(ops, 5);
  ASSERT_TRUE(two_pass.Fit(train).ok());
  auto separate = two_pass.Transform(train);
  ASSERT_TRUE(separate.ok()) << separate.status().ToString();

  ASSERT_EQ(fused->NumFeatures(), separate->NumFeatures());
  EXPECT_EQ(fused->labels(), separate->labels());
  for (size_t f = 0; f < fused->NumFeatures(); ++f) {
    const FeatureColumn& a = fused->feature(f);
    const FeatureColumn& b = separate->feature(f);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.is_categorical(), b.is_categorical());
    ASSERT_EQ(a.values.size(), b.values.size());
    for (size_t r = 0; r < a.values.size(); ++r) {
      ASSERT_EQ(std::bit_cast<uint64_t>(a.values[r]),
                std::bit_cast<uint64_t>(b.values[r]))
          << a.name << " row " << r;
    }
  }
}

TEST(PreprocessTest, PipelineTransformUsesTrainStatistics) {
  // Transforming a different dataset must reuse training statistics, not
  // refit: a constant shift of the data shows up as a shifted mean.
  const Dataset train = MakeNumericDataset();
  Dataset shifted = train;
  for (double& v : shifted.mutable_feature(0).values) v += 100.0;

  PreprocessPipeline pipeline({PreprocessOp::kCenter});
  ASSERT_TRUE(pipeline.Fit(train).ok());
  auto out = pipeline.Transform(shifted);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(ColumnMean(out->feature(0)), 100.0, 1e-6);
}

TEST(PreprocessTest, UnfittedPipelineRejectsTransform) {
  PreprocessPipeline pipeline({PreprocessOp::kCenter});
  EXPECT_FALSE(pipeline.Transform(MakeNumericDataset()).ok());
}

TEST(PreprocessTest, SchemaMismatchRejected) {
  const Dataset d = MakeNumericDataset();
  auto p = CreatePreprocessor(PreprocessOp::kCenter);
  ASSERT_TRUE(p->Fit(d).ok());
  Dataset other("other");
  other.AddNumericFeature("x", {1, 2});
  other.SetLabels({0, 0}, {"y"});
  EXPECT_FALSE(p->Transform(other).ok());
}

}  // namespace
}  // namespace smartml
