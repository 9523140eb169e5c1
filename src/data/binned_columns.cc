#include "src/data/binned_columns.h"

#include <algorithm>

#include "src/data/dataset.h"

namespace smartml {

BinnedColumns::Builder::Builder(size_t num_rows, size_t max_bins)
    : num_rows_(num_rows), max_bins_(std::min(max_bins, kMaxBins)) {
  if (max_bins_ == 0) max_bins_ = 1;
}

void BinnedColumns::Builder::AddNumericColumn(const double* values,
                                              size_t stride) {
  BinnedColumn col;
  col.categorical = false;
  col.codes.resize(num_rows_, kMissingBin);

  // Sorted distinct present values with multiplicities.
  std::vector<double> present;
  present.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    const double v = values[r * stride];
    if (!IsMissing(v)) present.push_back(v);
  }
  if (present.empty()) {
    columns_.push_back(std::move(col));
    return;
  }
  std::sort(present.begin(), present.end());

  // Collapse into (value, count) runs.
  std::vector<std::pair<double, size_t>> runs;
  runs.emplace_back(present[0], 1);
  for (size_t i = 1; i < present.size(); ++i) {
    if (present[i] == runs.back().first) {
      ++runs.back().second;
    } else {
      runs.emplace_back(present[i], 1);
    }
  }

  if (runs.size() <= max_bins_) {
    // Lossless: one bin per distinct value. The view's split candidates
    // are exactly those of node-local bins (midpoints between adjacent
    // distinct values).
    col.lossless = true;
    col.num_bins = static_cast<uint16_t>(runs.size());
    col.thresholds.reserve(runs.size() - 1);
    for (size_t b = 0; b + 1 < runs.size(); ++b) {
      col.thresholds.push_back(SplitMidpoint(runs[b].first, runs[b + 1].first));
    }
  } else {
    // Greedy quantile binning: close a bin once it holds its share of the
    // remaining mass, never splitting a run of equal values across bins.
    col.lossless = false;
    std::vector<size_t> bin_last_run;  // Index of each bin's last run.
    size_t remaining = present.size();
    size_t bins_left = max_bins_;
    size_t in_bin = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      in_bin += runs[i].second;
      remaining -= runs[i].second;
      const size_t runs_after = runs.size() - i - 1;
      // Close unless this is the final bin; also close early when the
      // remaining runs only just fill the remaining bins.
      const double target = static_cast<double>(remaining + in_bin) /
                            static_cast<double>(bins_left);
      if (bins_left > 1 && runs_after > 0 &&
          (static_cast<double>(in_bin) >= target || runs_after < bins_left)) {
        bin_last_run.push_back(i);
        --bins_left;
        in_bin = 0;
      }
    }
    bin_last_run.push_back(runs.size() - 1);
    col.num_bins = static_cast<uint16_t>(bin_last_run.size());
    col.thresholds.reserve(bin_last_run.size() - 1);
    for (size_t b = 0; b + 1 < bin_last_run.size(); ++b) {
      const double upper = runs[bin_last_run[b]].first;
      const double next = runs[bin_last_run[b] + 1].first;
      col.thresholds.push_back(SplitMidpoint(upper, next));
    }
  }

  // Row codes: first threshold >= v marks the row's bin (v <= thresholds[b]
  // routes left of boundary b, matching the tree's split semantics).
  for (size_t r = 0; r < num_rows_; ++r) {
    const double v = values[r * stride];
    if (IsMissing(v)) continue;
    const auto it =
        std::lower_bound(col.thresholds.begin(), col.thresholds.end(), v);
    col.codes[r] = static_cast<uint8_t>(it - col.thresholds.begin());
  }
  columns_.push_back(std::move(col));
}

void BinnedColumns::Builder::AddCategoricalColumn(const double* codes,
                                                  size_t stride,
                                                  size_t cardinality) {
  BinnedColumn col;
  col.categorical = true;
  col.cardinality = cardinality;
  col.num_bins = static_cast<uint16_t>(std::min(cardinality, kMaxBins));
  col.lossless = cardinality <= kMaxBins;
  col.codes.resize(num_rows_, kMissingBin);
  for (size_t r = 0; r < num_rows_; ++r) {
    const double v = codes[r * stride];
    if (IsMissing(v)) continue;
    const auto code = static_cast<size_t>(v);
    // Codes past the bin range stay on the missing bin; Validate() rejects
    // them upstream and histogram_safe() flags the column.
    if (code < col.num_bins) col.codes[r] = static_cast<uint8_t>(code);
  }
  columns_.push_back(std::move(col));
}

BinnedColumns BinnedColumns::Builder::Build() && {
  BinnedColumns out;
  out.num_rows_ = num_rows_;
  out.columns_ = std::move(columns_);
  for (const auto& col : out.columns_) {
    if (col.categorical && col.cardinality > kMaxBins) {
      out.histogram_safe_ = false;
    }
  }
  return out;
}

BinnedColumns BinnedColumns::FromMatrix(const Matrix& x,
                                        const std::vector<bool>& categorical,
                                        const std::vector<size_t>& cardinalities,
                                        size_t max_bins) {
  Builder builder(x.rows(), max_bins);
  const double* base = x.data().data();
  for (size_t f = 0; f < x.cols(); ++f) {
    if (f < categorical.size() && categorical[f]) {
      builder.AddCategoricalColumn(base + f, x.cols(),
                                   f < cardinalities.size() ? cardinalities[f]
                                                            : 0);
    } else {
      builder.AddNumericColumn(base + f, x.cols());
    }
  }
  return std::move(builder).Build();
}

}  // namespace smartml
