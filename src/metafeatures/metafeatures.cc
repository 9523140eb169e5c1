#include "src/metafeatures/metafeatures.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/simd.h"
#include "src/common/strings.h"

namespace smartml {

namespace {

// Sample skewness and excess kurtosis over non-missing values.
struct Moments {
  double skewness = 0.0;
  double kurtosis = 0.0;
  bool valid = false;
};

Moments ComputeMoments(const std::vector<double>& values) {
  Moments m;
  double sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (IsMissing(v)) continue;
    sum += v;
    ++n;
  }
  if (n < 3) return m;
  const double mean = sum / static_cast<double>(n);
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double v : values) {
    if (IsMissing(v)) continue;
    const double d = v - mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  const double dn = static_cast<double>(n);
  m2 /= dn;
  m3 /= dn;
  m4 /= dn;
  if (m2 < 1e-12) {
    m.skewness = 0.0;
    m.kurtosis = 0.0;
    m.valid = true;
    return m;
  }
  m.skewness = m3 / std::pow(m2, 1.5);
  m.kurtosis = m4 / (m2 * m2) - 3.0;
  m.valid = true;
  return m;
}

}  // namespace

const std::array<std::string, kNumMetaFeatures>& MetaFeatureNames() {
  static const std::array<std::string, kNumMetaFeatures> kNames = {
      "num_instances",       "log_num_instances",  "num_features",
      "log_num_features",    "num_classes",        "num_numeric",
      "num_categorical",     "ratio_numeric",      "ratio_categorical",
      "dimensionality",      "missing_ratio",      "class_entropy",
      "class_imbalance",     "majority_ratio",     "minority_ratio",
      "skewness_mean",       "skewness_min",       "skewness_max",
      "kurtosis_mean",       "kurtosis_min",       "kurtosis_max",
      "symbols_mean",        "symbols_min",        "symbols_max",
      "symbols_sum"};
  return kNames;
}

StatusOr<MetaFeatureVector> ExtractMetaFeatures(const Dataset& dataset) {
  if (dataset.NumRows() == 0 || dataset.NumFeatures() == 0) {
    return Status::InvalidArgument("metafeatures: empty dataset");
  }
  MetaFeatureVector mf{};
  const double n = static_cast<double>(dataset.NumRows());
  const double d = static_cast<double>(dataset.NumFeatures());
  const double num_numeric =
      static_cast<double>(dataset.NumNumericFeatures());
  const double num_categorical =
      static_cast<double>(dataset.NumCategoricalFeatures());

  mf[0] = n;
  mf[1] = std::log(n);
  mf[2] = d;
  mf[3] = std::log(d);
  mf[4] = static_cast<double>(dataset.NumClasses());
  mf[5] = num_numeric;
  mf[6] = num_categorical;
  mf[7] = num_numeric / d;
  mf[8] = num_categorical / d;
  mf[9] = d / n;
  mf[10] = static_cast<double>(dataset.CountMissing()) / (n * d);

  // Class distribution statistics.
  const std::vector<size_t> counts = dataset.ClassCounts();
  double entropy = 0.0;
  size_t max_count = 0;
  size_t min_count = std::numeric_limits<size_t>::max();
  for (size_t c : counts) {
    if (c > 0) {
      const double p = static_cast<double>(c) / n;
      entropy -= p * std::log2(p);
    }
    max_count = std::max(max_count, c);
    min_count = std::min(min_count, c);
  }
  mf[11] = entropy;
  mf[12] = min_count > 0 ? static_cast<double>(max_count) /
                               static_cast<double>(min_count)
                         : static_cast<double>(max_count);
  mf[13] = static_cast<double>(max_count) / n;
  mf[14] = static_cast<double>(min_count) / n;

  // Numeric moments.
  double skew_sum = 0.0, kurt_sum = 0.0;
  double skew_min = std::numeric_limits<double>::infinity();
  double skew_max = -std::numeric_limits<double>::infinity();
  double kurt_min = std::numeric_limits<double>::infinity();
  double kurt_max = -std::numeric_limits<double>::infinity();
  size_t moment_count = 0;
  // Categorical symbol statistics.
  double sym_sum = 0.0;
  double sym_min = std::numeric_limits<double>::infinity();
  double sym_max = -std::numeric_limits<double>::infinity();
  size_t sym_count = 0;

  for (const auto& col : dataset.features()) {
    if (col.is_categorical()) {
      const double k = static_cast<double>(col.num_categories());
      sym_sum += k;
      sym_min = std::min(sym_min, k);
      sym_max = std::max(sym_max, k);
      ++sym_count;
    } else {
      const Moments m = ComputeMoments(col.values);
      if (!m.valid) continue;
      skew_sum += m.skewness;
      kurt_sum += m.kurtosis;
      skew_min = std::min(skew_min, m.skewness);
      skew_max = std::max(skew_max, m.skewness);
      kurt_min = std::min(kurt_min, m.kurtosis);
      kurt_max = std::max(kurt_max, m.kurtosis);
      ++moment_count;
    }
  }
  if (moment_count > 0) {
    mf[15] = skew_sum / static_cast<double>(moment_count);
    mf[16] = skew_min;
    mf[17] = skew_max;
    mf[18] = kurt_sum / static_cast<double>(moment_count);
    mf[19] = kurt_min;
    mf[20] = kurt_max;
  }
  if (sym_count > 0) {
    mf[21] = sym_sum / static_cast<double>(sym_count);
    mf[22] = sym_min;
    mf[23] = sym_max;
    mf[24] = sym_sum;
  }
  return mf;
}

std::string MetaFeaturesToString(const MetaFeatureVector& mf) {
  std::string out;
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    if (i > 0) out += " ";
    AppendDouble(&out, mf[i], 17);
  }
  return out;
}

StatusOr<MetaFeatureVector> MetaFeaturesFromString(const std::string& text) {
  std::vector<std::string> parts;
  for (const std::string& tok : Split(text, ' ')) {
    if (!StripAsciiWhitespace(tok).empty()) parts.push_back(tok);
  }
  if (parts.size() != kNumMetaFeatures) {
    return Status::InvalidArgument(
        StrFormat("metafeatures: expected %zu values, got %zu",
                  kNumMetaFeatures, parts.size()));
  }
  MetaFeatureVector mf{};
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    if (!ParseDouble(parts[i], &mf[i])) {
      return Status::InvalidArgument("metafeatures: bad value '" + parts[i] +
                                     "'");
    }
  }
  return mf;
}

double MetaFeatureDistance(const MetaFeatureVector& a,
                           const MetaFeatureVector& b) {
  // Unrolled kernel: every caller (linear KB scan, k-d tree, dedup) shares
  // this one summation order, so tree-vs-scan stays byte-identical.
  return std::sqrt(SquaredDistance(a.data(), b.data(), kNumMetaFeatures));
}

void MetaFeatureNormalizer::Fit(const std::vector<MetaFeatureVector>& vectors) {
  mean_.fill(0.0);
  stddev_.fill(1.0);
  if (vectors.empty()) {
    fitted_ = true;
    return;
  }
  const double n = static_cast<double>(vectors.size());
  for (const auto& v : vectors) {
    for (size_t i = 0; i < kNumMetaFeatures; ++i) mean_[i] += v[i];
  }
  for (double& m : mean_) m /= n;
  MetaFeatureVector var{};
  for (const auto& v : vectors) {
    for (size_t i = 0; i < kNumMetaFeatures; ++i) {
      const double d = v[i] - mean_[i];
      var[i] += d * d;
    }
  }
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    stddev_[i] = var[i] > 0 ? std::sqrt(var[i] / n) : 1.0;
    if (stddev_[i] < 1e-12) stddev_[i] = 1.0;
  }
  fitted_ = true;
}

MetaFeatureVector MetaFeatureNormalizer::Apply(
    const MetaFeatureVector& v) const {
  MetaFeatureVector out{};
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    out[i] = (v[i] - mean_[i]) / stddev_[i];
  }
  return out;
}

}  // namespace smartml
