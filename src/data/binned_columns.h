// Columnar binned view of a training table for histogram tree growth.
//
// A BinnedColumns holds, per feature, a contiguous column of per-row bin
// codes (uint8_t) plus the split thresholds between adjacent bins. Numeric
// features are quantile-binned into at most kMaxBins value bins (each
// distinct value gets its own bin when the column has few enough, making
// the binning lossless); categorical features reuse their category codes as
// bin codes. Missing cells map to kMissingBin. The view is built once per
// dataset (see Dataset::Binned()) and shared read-only by every tree grown
// on that data — forests, bagging, boosting rounds, and PART's rule loop
// all train on row-index subsets of the same view instead of copying rows.
// The tree's split scan reads per-node histograms over these bins; a tree
// given no view makes node-local bins instead (see ml/decision_tree.h).
#ifndef SMARTML_DATA_BINNED_COLUMNS_H_
#define SMARTML_DATA_BINNED_COLUMNS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/linalg/matrix.h"

namespace smartml {

/// Midpoint split threshold between two strictly increasing feature values,
/// clamped so `lo <= t < hi` always holds. The naive 0.5 * (lo + hi) can
/// round up to `hi` when the two are adjacent representable doubles, in
/// which case rows that trained into the right child would satisfy
/// `v <= t` and be misrouted left at predict time.
inline double SplitMidpoint(double lo, double hi) {
  double t = lo + 0.5 * (hi - lo);  // Robust against overflow for huge |v|.
  if (t >= hi) t = std::nextafter(hi, lo);
  if (t < lo) t = lo;
  return t;
}

/// One binned feature column.
struct BinnedColumn {
  bool categorical = false;
  /// Occupied value bins (missing excluded). Categorical: min(cardinality,
  /// kMaxBins). Numeric: number of quantile bins actually formed.
  uint16_t num_bins = 0;
  /// Declared category dictionary size (categorical only; may exceed
  /// kMaxBins, in which case the column is not histogram-safe).
  size_t cardinality = 0;
  /// True when every distinct value got its own bin, so the view's split
  /// candidates coincide with those of node-local bins (exact search).
  bool lossless = false;
  /// Numeric only, size max(num_bins - 1, 0): the split `code <= b` means
  /// `value <= thresholds[b]`, with thresholds[b] the clamped midpoint of
  /// the adjacent distinct values straddling the bin boundary.
  std::vector<double> thresholds;
  /// Per-row bin code; BinnedColumns::kMissingBin for missing cells.
  std::vector<uint8_t> codes;
};

class BinnedColumns {
 public:
  /// Bin code reserved for missing cells (and categorical codes beyond
  /// kMaxBins, which Validate() rejects anyway).
  static constexpr uint8_t kMissingBin = 255;
  /// Maximum value bins per feature (codes 0..254; 255 is the missing bin).
  static constexpr size_t kMaxBins = 255;

  /// Incremental construction, one column at a time. `stride` is the step
  /// between consecutive rows of the column (1 for a contiguous column,
  /// x.cols() for a column of a row-major Matrix).
  class Builder {
   public:
    explicit Builder(size_t num_rows, size_t max_bins = kMaxBins);
    void AddNumericColumn(const double* values, size_t stride);
    void AddCategoricalColumn(const double* codes, size_t stride,
                              size_t cardinality);
    BinnedColumns Build() &&;

   private:
    size_t num_rows_;
    size_t max_bins_;
    std::vector<BinnedColumn> columns_;
  };

  /// Bins a raw feature matrix (ToRawMatrix() layout: one column per
  /// feature, categorical cells holding category codes, NaN = missing).
  static BinnedColumns FromMatrix(const Matrix& x,
                                  const std::vector<bool>& categorical,
                                  const std::vector<size_t>& cardinalities,
                                  size_t max_bins = kMaxBins);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return columns_.size(); }
  const BinnedColumn& column(size_t f) const { return columns_[f]; }

  /// True when every categorical column's cardinality fits the bin range,
  /// so the view's bins split on the same categories as node-local bins.
  /// Columns with > kMaxBins categories would alias the missing bin; a tree
  /// handed such a view ignores it and grows from node-local bins.
  bool histogram_safe() const { return histogram_safe_; }

 private:
  friend class Builder;
  size_t num_rows_ = 0;
  bool histogram_safe_ = true;
  std::vector<BinnedColumn> columns_;
};

}  // namespace smartml

#endif  // SMARTML_DATA_BINNED_COLUMNS_H_
