// Landmarking meta-features — an extension of the 25 statistical descriptors
// in the spirit of the paper's meta-learning references (Reif et al. 2012,
// Feurer et al. 2015): the quick performance of a few cheap "landmark"
// learners is itself a powerful dataset descriptor, capturing geometry the
// statistical meta-features cannot (e.g. linear vs. local structure).
//
// Four landmarkers, each scored by a single stratified holdout on a
// subsample: 1-nearest-neighbour, naive Bayes, a decision stump, and LDA.
// All values are accuracies in [0, 1], so they join the knowledge-base
// distance without extra normalization.
#ifndef SMARTML_METAFEATURES_LANDMARKING_H_
#define SMARTML_METAFEATURES_LANDMARKING_H_

#include <array>
#include <string>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace smartml {

inline constexpr size_t kNumLandmarkers = 4;

using LandmarkVector = std::array<double, kNumLandmarkers>;

/// Names, index-aligned: "lm_1nn", "lm_naive_bayes", "lm_stump", "lm_lda".
const std::array<std::string, kNumLandmarkers>& LandmarkerNames();

/// Computes the four landmark accuracies. The dataset is subsampled to at
/// most `max_rows` rows (stratified) so landmarking stays cheap on large
/// inputs. Deterministic in `seed`.
StatusOr<LandmarkVector> ExtractLandmarkers(const Dataset& dataset,
                                            uint64_t seed = 1234,
                                            size_t max_rows = 250);

/// Space-separated serialization ("%.17g" per value, lossless).
std::string LandmarksToString(const LandmarkVector& lm);

/// Inverse of LandmarksToString.
StatusOr<LandmarkVector> LandmarksFromString(const std::string& text);

/// Euclidean distance between landmark vectors.
double LandmarkDistance(const LandmarkVector& a, const LandmarkVector& b);

}  // namespace smartml

#endif  // SMARTML_METAFEATURES_LANDMARKING_H_
