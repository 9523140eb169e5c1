#include "src/metafeatures/landmarking.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/strings.h"
#include "src/data/metrics.h"
#include "src/data/split.h"
#include "src/ml/decision_tree.h"
#include "src/ml/discriminant.h"
#include "src/ml/knn.h"
#include "src/ml/naive_bayes.h"

namespace smartml {

const std::array<std::string, kNumLandmarkers>& LandmarkerNames() {
  static const std::array<std::string, kNumLandmarkers> kNames = {
      "lm_1nn", "lm_naive_bayes", "lm_stump", "lm_lda"};
  return kNames;
}

StatusOr<LandmarkVector> ExtractLandmarkers(const Dataset& dataset,
                                            uint64_t seed, size_t max_rows) {
  if (dataset.NumRows() < 8 || dataset.NumClasses() < 2) {
    return Status::InvalidArgument(
        "landmarking: need >= 8 rows and >= 2 classes");
  }
  // Stratified subsample for speed.
  Dataset sample = dataset;
  if (dataset.NumRows() > max_rows) {
    Rng rng(seed);
    std::vector<std::vector<size_t>> by_class(dataset.NumClasses());
    for (size_t r = 0; r < dataset.NumRows(); ++r) {
      by_class[static_cast<size_t>(dataset.label(r))].push_back(r);
    }
    std::vector<size_t> rows;
    const double fraction = static_cast<double>(max_rows) /
                            static_cast<double>(dataset.NumRows());
    for (auto& group : by_class) {
      rng.Shuffle(&group);
      const size_t take = std::max<size_t>(
          1, static_cast<size_t>(fraction * static_cast<double>(group.size()) +
                                 0.5));
      for (size_t i = 0; i < take && i < group.size(); ++i) {
        rows.push_back(group[i]);
      }
    }
    std::sort(rows.begin(), rows.end());
    sample = dataset.Subset(rows);
  }

  SMARTML_ASSIGN_OR_RETURN(TrainValidationSplit split,
                           StratifiedSplit(sample, 0.3, seed));

  auto holdout_accuracy = [&](const Classifier& learner,
                              const ParamConfig& config) {
    return FitAndValidate(learner, config, split.train, split.validation)
        .validation_accuracy;
  };
  LandmarkVector lm{};
  ParamConfig one_nn;
  one_nn.SetInt("k", 1);
  lm[0] = holdout_accuracy(KnnClassifier(), one_nn);
  lm[1] = holdout_accuracy(NaiveBayesClassifier(),
                           NaiveBayesClassifier::Space().DefaultConfig());
  {
    // Decision stump: depth-1 tree built directly on the raw matrix.
    DecisionTree stump;
    TreeOptions options;
    options.max_depth = 1;
    const Status status = stump.Fit(
        split.train.ToRawMatrix(), TreeSchema::FromDataset(split.train),
        split.train.labels(), static_cast<int>(split.train.NumClasses()), {},
        options);
    if (status.ok()) {
      const Matrix x = split.validation.ToRawMatrix();
      std::vector<int> pred(x.rows());
      for (size_t r = 0; r < x.rows(); ++r) {
        pred[r] = stump.PredictRow(x.RowPtr(r));
      }
      lm[2] = Accuracy(split.validation.labels(), pred);
    }
  }
  lm[3] = holdout_accuracy(LdaClassifier(),
                           LdaClassifier::Space().DefaultConfig());
  return lm;
}

std::string LandmarksToString(const LandmarkVector& lm) {
  std::string out;
  for (size_t i = 0; i < kNumLandmarkers; ++i) {
    if (i > 0) out += " ";
    out += StrFormat("%.17g", lm[i]);
  }
  return out;
}

StatusOr<LandmarkVector> LandmarksFromString(const std::string& text) {
  std::vector<std::string> parts;
  for (const std::string& tok : Split(text, ' ')) {
    if (!StripAsciiWhitespace(tok).empty()) parts.push_back(tok);
  }
  if (parts.size() != kNumLandmarkers) {
    return Status::InvalidArgument(
        StrFormat("landmarks: expected %zu values, got %zu", kNumLandmarkers,
                  parts.size()));
  }
  LandmarkVector lm{};
  for (size_t i = 0; i < kNumLandmarkers; ++i) {
    if (!ParseDouble(parts[i], &lm[i])) {
      return Status::InvalidArgument("landmarks: bad value '" + parts[i] +
                                     "'");
    }
  }
  return lm;
}

double LandmarkDistance(const LandmarkVector& a, const LandmarkVector& b) {
  return std::sqrt(SquaredDistance(a.data(), b.data(), kNumLandmarkers));
}

}  // namespace smartml
