// Column-typed in-memory dataset for classification.
//
// A Dataset holds named feature columns (numeric or categorical) plus an
// integer class label per row. Categorical values are stored as codes into a
// per-column category dictionary; missing values (either type) are stored as
// NaN. This is the single currency all SmartML phases trade in.
#ifndef SMARTML_DATA_DATASET_H_
#define SMARTML_DATA_DATASET_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/binned_columns.h"
#include "src/linalg/matrix.h"

namespace smartml {

enum class FeatureType { kNumeric, kCategorical };

/// One feature column. For categorical columns, `values[i]` is the index of
/// the category in `categories` (or NaN when missing).
struct FeatureColumn {
  std::string name;
  FeatureType type = FeatureType::kNumeric;
  std::vector<double> values;
  std::vector<std::string> categories;  // Only for kCategorical.

  bool is_categorical() const { return type == FeatureType::kCategorical; }
  size_t num_categories() const { return categories.size(); }
};

/// In-memory labelled dataset.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumRows() const { return labels_.size(); }
  size_t NumFeatures() const { return features_.size(); }
  size_t NumClasses() const { return class_names_.size(); }

  size_t NumNumericFeatures() const;
  size_t NumCategoricalFeatures() const;

  const std::vector<FeatureColumn>& features() const { return features_; }
  const FeatureColumn& feature(size_t i) const { return features_[i]; }
  FeatureColumn& mutable_feature(size_t i) {
    InvalidateBinned();  // Caller may rewrite values through the reference.
    return features_[i];
  }

  const std::vector<int>& labels() const { return labels_; }
  int label(size_t row) const { return labels_[row]; }
  const std::vector<std::string>& class_names() const { return class_names_; }

  /// Appends a numeric column; must match the current row count if labels
  /// were already set (validated by Validate()).
  void AddNumericFeature(std::string name, std::vector<double> values);

  /// Appends a categorical column from pre-computed codes.
  void AddCategoricalFeature(std::string name, std::vector<double> codes,
                             std::vector<std::string> categories);

  /// Sets labels directly from class indices.
  void SetLabels(std::vector<int> labels, std::vector<std::string> class_names);

  /// Sets labels from raw strings, building the class dictionary in
  /// first-appearance order.
  void SetLabelsFromStrings(const std::vector<std::string>& raw);

  /// Drops the feature at `index`. Rejects out-of-range indices (same error
  /// style as Validate()) instead of erasing past the end.
  Status RemoveFeature(size_t index);

  /// Structural consistency check (equal column lengths, label codes within
  /// range, category codes within dictionaries).
  Status Validate() const;

  /// Copies the selected rows into a new dataset (feature schema and class
  /// dictionary preserved, including classes absent from the subset).
  Dataset Subset(const std::vector<size_t>& rows) const;

  /// True if any cell in any feature column is NaN.
  bool HasMissing() const;

  /// Number of NaN cells across all feature columns.
  size_t CountMissing() const;

  /// Class frequencies (size NumClasses()).
  std::vector<size_t> ClassCounts() const;

  /// Raw feature matrix with categorical codes kept as-is (one column per
  /// feature). Missing cells stay NaN. Suitable for tree learners that split
  /// on categories natively.
  Matrix ToRawMatrix() const;

  /// Columnar binned view for histogram tree growth: per-feature quantile
  /// bin edges plus per-row bin codes, built lazily on first call and cached
  /// until the next mutation. The returned view is immutable and shared, so
  /// parallel forest workers and repeated boosting rounds all read the same
  /// buffers; callers may also outlive this Dataset. Thread-safe against
  /// concurrent Binned() calls (mutations still require external exclusion,
  /// as with any other accessor).
  std::shared_ptr<const BinnedColumns> Binned() const;

 private:
  void InvalidateBinned() {
    std::lock_guard<std::mutex> lock(*binned_mutex_);
    binned_cache_.reset();
  }

  std::string name_;
  std::vector<FeatureColumn> features_;
  std::vector<int> labels_;
  std::vector<std::string> class_names_;
  // Shared (not owned per-copy) so copies stay copyable; each copy carries
  // its own cache pointer snapshot, invalidated on its own mutations.
  std::shared_ptr<std::mutex> binned_mutex_ = std::make_shared<std::mutex>();
  mutable std::shared_ptr<const BinnedColumns> binned_cache_;
};

/// True when `v` encodes a missing cell.
inline bool IsMissing(double v) { return std::isnan(v); }

}  // namespace smartml

#endif  // SMARTML_DATA_DATASET_H_
