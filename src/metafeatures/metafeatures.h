// Dataset meta-feature extraction.
//
// The paper's preprocessing phase extracts "a list of 25 meta-features ...
// describing the dataset characteristics. Examples of these features include
// number of instances, number of classes, skewness and kurtosis of numerical
// features, and symbols of categorical features." This module implements
// exactly 25 such descriptors; the knowledge base measures dataset
// similarity in this space.
#ifndef SMARTML_METAFEATURES_METAFEATURES_H_
#define SMARTML_METAFEATURES_METAFEATURES_H_

#include <array>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace smartml {

/// Number of meta-features (fixed by the paper).
inline constexpr size_t kNumMetaFeatures = 25;

using MetaFeatureVector = std::array<double, kNumMetaFeatures>;

/// Stable names of the 25 meta-features, index-aligned with the vector.
const std::array<std::string, kNumMetaFeatures>& MetaFeatureNames();

/// Extracts the 25 meta-features from a dataset. Works on any dataset with
/// at least one row and one feature; missing cells are skipped in moment
/// computations.
StatusOr<MetaFeatureVector> ExtractMetaFeatures(const Dataset& dataset);

/// Space-separated serialization ("%.17g" per value, lossless).
std::string MetaFeaturesToString(const MetaFeatureVector& mf);

/// Inverse of MetaFeaturesToString.
StatusOr<MetaFeatureVector> MetaFeaturesFromString(const std::string& text);

/// Euclidean distance between two (optionally pre-normalized) vectors.
double MetaFeatureDistance(const MetaFeatureVector& a,
                           const MetaFeatureVector& b);

/// Per-dimension z-normalizer fitted over a collection of vectors, used by
/// the knowledge base so large-magnitude features (e.g. instance counts)
/// don't dominate the distance.
class MetaFeatureNormalizer {
 public:
  void Fit(const std::vector<MetaFeatureVector>& vectors);
  MetaFeatureVector Apply(const MetaFeatureVector& v) const;
  bool fitted() const { return fitted_; }

 private:
  bool fitted_ = false;
  MetaFeatureVector mean_{};
  MetaFeatureVector stddev_{};
};

}  // namespace smartml

#endif  // SMARTML_METAFEATURES_METAFEATURES_H_
