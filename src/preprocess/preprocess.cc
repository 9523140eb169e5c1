#include "src/preprocess/preprocess.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/linalg/matrix.h"

namespace smartml {

namespace {

// Per-column moments over non-missing cells.
struct ColumnStats {
  double mean = 0.0;
  double stddev = 1.0;
  double min = 0.0;
  double max = 0.0;
  size_t count = 0;
};

ColumnStats ComputeStats(const std::vector<double>& values) {
  ColumnStats stats;
  double sum = 0.0, sum_sq = 0.0;
  stats.min = std::numeric_limits<double>::infinity();
  stats.max = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (IsMissing(v)) continue;
    sum += v;
    sum_sq += v * v;
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
    ++stats.count;
  }
  if (stats.count > 0) {
    stats.mean = sum / static_cast<double>(stats.count);
    const double var =
        stats.count > 1
            ? std::max(0.0, (sum_sq - sum * stats.mean) /
                                static_cast<double>(stats.count - 1))
            : 0.0;
    stats.stddev = std::sqrt(var);
  } else {
    stats.min = stats.max = 0.0;
  }
  return stats;
}

Status CheckSchema(const Dataset& fitted_on_like, size_t num_features,
                   const Dataset& data) {
  (void)fitted_on_like;
  if (data.NumFeatures() != num_features) {
    return Status::InvalidArgument("preprocessor: schema mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Imputation
// ---------------------------------------------------------------------------

class ImputePreprocessor : public Preprocessor {
 public:
  PreprocessOp op() const override { return PreprocessOp::kImpute; }

  Status Fit(const Dataset& train) override {
    num_features_ = train.NumFeatures();
    fill_.resize(num_features_);
    for (size_t f = 0; f < num_features_; ++f) {
      const auto& col = train.feature(f);
      if (col.is_categorical()) {
        // Mode.
        std::vector<double> counts(std::max<size_t>(col.num_categories(), 1),
                                   0.0);
        for (double v : col.values) {
          if (!IsMissing(v) && static_cast<size_t>(v) < counts.size()) {
            counts[static_cast<size_t>(v)] += 1.0;
          }
        }
        size_t best = 0;
        for (size_t c = 1; c < counts.size(); ++c) {
          if (counts[c] > counts[best]) best = c;
        }
        fill_[f] = static_cast<double>(best);
      } else {
        // Median.
        std::vector<double> present;
        present.reserve(col.values.size());
        for (double v : col.values) {
          if (!IsMissing(v)) present.push_back(v);
        }
        if (present.empty()) {
          fill_[f] = 0.0;
        } else {
          const size_t mid = present.size() / 2;
          std::nth_element(present.begin(),
                           present.begin() + static_cast<ptrdiff_t>(mid),
                           present.end());
          fill_[f] = present[mid];
        }
      }
    }
    return Status::OK();
  }

  StatusOr<Dataset> Transform(const Dataset& data) const override {
    SMARTML_RETURN_NOT_OK(CheckSchema(data, num_features_, data));
    Dataset out = data;
    for (size_t f = 0; f < num_features_; ++f) {
      for (double& v : out.mutable_feature(f).values) {
        if (IsMissing(v)) v = fill_[f];
      }
    }
    return out;
  }

 private:
  size_t num_features_ = 0;
  std::vector<double> fill_;
};

// ---------------------------------------------------------------------------
// Moment-based column transforms: center / scale / range
// ---------------------------------------------------------------------------

class MomentPreprocessor : public Preprocessor {
 public:
  explicit MomentPreprocessor(PreprocessOp op) : op_(op) {}
  PreprocessOp op() const override { return op_; }

  Status Fit(const Dataset& train) override {
    num_features_ = train.NumFeatures();
    stats_.clear();
    stats_.reserve(num_features_);
    for (size_t f = 0; f < num_features_; ++f) {
      const auto& col = train.feature(f);
      stats_.push_back(col.is_categorical() ? ColumnStats{}
                                            : ComputeStats(col.values));
    }
    return Status::OK();
  }

  StatusOr<Dataset> Transform(const Dataset& data) const override {
    SMARTML_RETURN_NOT_OK(CheckSchema(data, num_features_, data));
    Dataset out = data;
    for (size_t f = 0; f < num_features_; ++f) {
      if (out.feature(f).is_categorical()) continue;
      const ColumnStats& stats = stats_[f];
      for (double& v : out.mutable_feature(f).values) {
        if (IsMissing(v)) continue;
        switch (op_) {
          case PreprocessOp::kCenter:
            v -= stats.mean;
            break;
          case PreprocessOp::kScale:
            if (stats.stddev > 1e-12) v /= stats.stddev;
            break;
          case PreprocessOp::kRange: {
            const double span = stats.max - stats.min;
            v = span > 1e-12 ? (v - stats.min) / span : 0.0;
            break;
          }
          default:
            break;
        }
      }
    }
    return out;
  }

 private:
  PreprocessOp op_;
  size_t num_features_ = 0;
  std::vector<ColumnStats> stats_;
};

// ---------------------------------------------------------------------------
// Zero variance removal
// ---------------------------------------------------------------------------

class ZeroVariancePreprocessor : public Preprocessor {
 public:
  PreprocessOp op() const override { return PreprocessOp::kZeroVariance; }

  Status Fit(const Dataset& train) override {
    num_features_ = train.NumFeatures();
    keep_.assign(num_features_, true);
    size_t kept = 0;
    for (size_t f = 0; f < num_features_; ++f) {
      const auto& col = train.feature(f);
      double first = std::numeric_limits<double>::quiet_NaN();
      bool varies = false;
      for (double v : col.values) {
        if (IsMissing(v)) continue;
        if (IsMissing(first)) {
          first = v;
        } else if (v != first) {
          varies = true;
          break;
        }
      }
      keep_[f] = varies;
      if (varies) ++kept;
    }
    if (kept == 0 && num_features_ > 0) keep_[0] = true;  // Never drop all.
    return Status::OK();
  }

  StatusOr<Dataset> Transform(const Dataset& data) const override {
    SMARTML_RETURN_NOT_OK(CheckSchema(data, num_features_, data));
    Dataset out(data.name());
    for (size_t f = 0; f < num_features_; ++f) {
      if (!keep_[f]) continue;
      const auto& col = data.feature(f);
      if (col.is_categorical()) {
        out.AddCategoricalFeature(col.name, col.values, col.categories);
      } else {
        out.AddNumericFeature(col.name, col.values);
      }
    }
    out.SetLabels(data.labels(), data.class_names());
    return out;
  }

 private:
  size_t num_features_ = 0;
  std::vector<bool> keep_;
};

// ---------------------------------------------------------------------------
// Power transforms: Box-Cox and Yeo-Johnson
// ---------------------------------------------------------------------------

double BoxCoxTransform(double x, double lambda) {
  if (std::fabs(lambda) < 1e-9) return std::log(x);
  return (std::pow(x, lambda) - 1.0) / lambda;
}

double YeoJohnsonTransform(double x, double lambda) {
  if (x >= 0) {
    if (std::fabs(lambda) < 1e-9) return std::log1p(x);
    return (std::pow(x + 1.0, lambda) - 1.0) / lambda;
  }
  if (std::fabs(lambda - 2.0) < 1e-9) return -std::log1p(-x);
  return -(std::pow(1.0 - x, 2.0 - lambda) - 1.0) / (2.0 - lambda);
}

class PowerPreprocessor : public Preprocessor {
 public:
  explicit PowerPreprocessor(PreprocessOp op) : op_(op) {}
  PreprocessOp op() const override { return op_; }

  Status Fit(const Dataset& train) override {
    num_features_ = train.NumFeatures();
    lambdas_.assign(num_features_,
                    std::numeric_limits<double>::quiet_NaN());
    for (size_t f = 0; f < num_features_; ++f) {
      const auto& col = train.feature(f);
      if (col.is_categorical()) continue;
      std::vector<double> present;
      present.reserve(col.values.size());
      bool all_positive = true;
      for (double v : col.values) {
        if (IsMissing(v)) continue;
        if (v <= 0) all_positive = false;
        present.push_back(v);
      }
      if (present.size() < 3) continue;
      if (op_ == PreprocessOp::kBoxCox && !all_positive) {
        continue;  // Box-Cox only applies to strictly positive columns.
      }
      lambdas_[f] = FindBestLambda(present);
    }
    return Status::OK();
  }

  StatusOr<Dataset> Transform(const Dataset& data) const override {
    SMARTML_RETURN_NOT_OK(CheckSchema(data, num_features_, data));
    Dataset out = data;
    for (size_t f = 0; f < num_features_; ++f) {
      if (IsMissing(lambdas_[f]) || out.feature(f).is_categorical()) continue;
      const double lambda = lambdas_[f];
      for (double& v : out.mutable_feature(f).values) {
        if (IsMissing(v)) continue;
        if (op_ == PreprocessOp::kBoxCox) {
          v = v > 0 ? BoxCoxTransform(v, lambda) : v;
        } else {
          v = YeoJohnsonTransform(v, lambda);
        }
      }
    }
    return out;
  }

 private:
  /// Profile-likelihood grid search for the power parameter.
  double FindBestLambda(const std::vector<double>& values) const {
    double best_lambda = 1.0;
    double best_ll = -std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(values.size());
    for (double lambda = -2.0; lambda <= 2.0 + 1e-9; lambda += 0.1) {
      double sum = 0.0, sum_sq = 0.0, jacobian = 0.0;
      bool valid = true;
      for (double x : values) {
        const double t = op_ == PreprocessOp::kBoxCox
                             ? BoxCoxTransform(x, lambda)
                             : YeoJohnsonTransform(x, lambda);
        if (!std::isfinite(t)) {
          valid = false;
          break;
        }
        sum += t;
        sum_sq += t * t;
        if (op_ == PreprocessOp::kBoxCox) {
          jacobian += (lambda - 1.0) * std::log(x);
        } else {
          jacobian += (lambda - 1.0) * std::copysign(1.0, x) *
                      std::log1p(std::fabs(x));
        }
      }
      if (!valid) continue;
      const double mean = sum / n;
      const double var = std::max(sum_sq / n - mean * mean, 1e-12);
      const double ll = -0.5 * n * std::log(var) + jacobian;
      if (ll > best_ll) {
        best_ll = ll;
        best_lambda = lambda;
      }
    }
    return best_lambda;
  }

  PreprocessOp op_;
  size_t num_features_ = 0;
  std::vector<double> lambdas_;
};

// ---------------------------------------------------------------------------
// PCA / ICA: shared projection machinery over the numeric block
// ---------------------------------------------------------------------------

class ProjectionPreprocessor : public Preprocessor {
 public:
  ProjectionPreprocessor(PreprocessOp op, uint64_t seed)
      : op_(op), seed_(seed) {}
  PreprocessOp op() const override { return op_; }

  Status Fit(const Dataset& train) override {
    num_features_ = train.NumFeatures();
    numeric_cols_.clear();
    for (size_t f = 0; f < num_features_; ++f) {
      if (!train.feature(f).is_categorical()) numeric_cols_.push_back(f);
    }
    const size_t d = numeric_cols_.size();
    if (d < 2) {
      components_ = Matrix();  // Identity behaviour.
      return Status::OK();
    }
    const size_t n = train.NumRows();
    // Numeric block, mean-imputed and centered.
    Matrix x(n, d);
    means_.assign(d, 0.0);
    for (size_t j = 0; j < d; ++j) {
      const auto& col = train.feature(numeric_cols_[j]);
      const ColumnStats stats = ComputeStats(col.values);
      means_[j] = stats.mean;
      for (size_t r = 0; r < n; ++r) {
        const double v = col.values[r];
        x(r, j) = (IsMissing(v) ? stats.mean : v) - stats.mean;
      }
    }

    const Matrix cov = Covariance(x);
    SMARTML_ASSIGN_OR_RETURN(SymmetricEigen eigen, EigenSymmetric(cov));

    // PCA retains components covering 95% of the variance. ICA keeps the
    // full (numerically non-degenerate) rank: independent sources can hide
    // in low-variance directions, so a variance cut would destroy them.
    double total_var = 0.0;
    for (double v : eigen.values) total_var += std::max(v, 0.0);
    size_t keep = 0;
    if (op_ == PreprocessOp::kPca) {
      double acc = 0.0;
      for (size_t j = 0; j < eigen.values.size(); ++j) {
        acc += std::max(eigen.values[j], 0.0);
        ++keep;
        if (total_var > 0 && acc >= 0.95 * total_var) break;
      }
    } else {
      const double floor = 1e-9 * std::max(total_var, 1e-30);
      for (double v : eigen.values) {
        if (v > floor) ++keep;
      }
    }
    keep = std::max<size_t>(keep, 1);

    if (op_ == PreprocessOp::kPca) {
      // Rows of components_ are the retained eigenvectors.
      components_ = Matrix(keep, d);
      for (size_t c = 0; c < keep; ++c) {
        for (size_t j = 0; j < d; ++j) {
          components_(c, j) = eigen.vectors(j, c);
        }
      }
      return Status::OK();
    }

    // FastICA on the whitened data (keep components of the PCA whitening).
    // Whitening matrix: diag(1/sqrt(eig)) * E^T, shape keep x d.
    Matrix whitening(keep, d);
    for (size_t c = 0; c < keep; ++c) {
      const double scale =
          1.0 / std::sqrt(std::max(eigen.values[c], 1e-10));
      for (size_t j = 0; j < d; ++j) {
        whitening(c, j) = scale * eigen.vectors(j, c);
      }
    }
    // Whitened data Z = X W^T (n x keep).
    Matrix z = x.Multiply(whitening.Transpose());

    // Symmetric FastICA with tanh nonlinearity.
    Rng rng(seed_);
    Matrix w(keep, keep);
    for (size_t i = 0; i < keep; ++i) {
      for (size_t j = 0; j < keep; ++j) w(i, j) = rng.Normal();
    }
    auto orthonormalize = [&](Matrix* m) -> Status {
      // Symmetric decorrelation: W <- (W W^T)^{-1/2} W.
      Matrix wwt = m->Multiply(m->Transpose());
      SMARTML_ASSIGN_OR_RETURN(SymmetricEigen e, EigenSymmetric(wwt));
      Matrix inv_sqrt(keep, keep);
      for (size_t a = 0; a < keep; ++a) {
        const double scale = 1.0 / std::sqrt(std::max(e.values[a], 1e-12));
        for (size_t i = 0; i < keep; ++i) {
          for (size_t j2 = 0; j2 < keep; ++j2) {
            inv_sqrt(i, j2) += scale * e.vectors(i, a) * e.vectors(j2, a);
          }
        }
      }
      *m = inv_sqrt.Multiply(*m);
      return Status::OK();
    };
    SMARTML_RETURN_NOT_OK(orthonormalize(&w));
    const double inv_n = 1.0 / static_cast<double>(n);
    for (int iter = 0; iter < 60; ++iter) {
      // W_new rows: E[z g(w z)] - E[g'(w z)] w.
      Matrix w_new(keep, keep);
      for (size_t c = 0; c < keep; ++c) {
        std::vector<double> row_acc(keep, 0.0);
        double gprime_acc = 0.0;
        for (size_t r = 0; r < n; ++r) {
          const double* zr = z.RowPtr(r);
          double proj = 0.0;
          for (size_t j = 0; j < keep; ++j) proj += w(c, j) * zr[j];
          const double g = std::tanh(proj);
          const double gp = 1.0 - g * g;
          for (size_t j = 0; j < keep; ++j) row_acc[j] += zr[j] * g;
          gprime_acc += gp;
        }
        for (size_t j = 0; j < keep; ++j) {
          w_new(c, j) = row_acc[j] * inv_n - gprime_acc * inv_n * w(c, j);
        }
      }
      SMARTML_RETURN_NOT_OK(orthonormalize(&w_new));
      // Convergence: |diag(W_new W^T)| near 1.
      Matrix prod = w_new.Multiply(w.Transpose());
      double min_diag = 1.0;
      for (size_t c = 0; c < keep; ++c) {
        min_diag = std::min(min_diag, std::fabs(prod(c, c)));
      }
      w = std::move(w_new);
      if (min_diag > 1.0 - 1e-6) break;
    }
    // Full unmixing: components_ = W * whitening (keep x d).
    components_ = w.Multiply(whitening);
    return Status::OK();
  }

  StatusOr<Dataset> Transform(const Dataset& data) const override {
    SMARTML_RETURN_NOT_OK(CheckSchema(data, num_features_, data));
    if (components_.empty()) return data;  // Too few numeric columns.
    const size_t n = data.NumRows();
    const size_t d = numeric_cols_.size();
    const size_t keep = components_.rows();

    Dataset out(data.name());
    // Projected numeric block.
    std::vector<std::vector<double>> projected(
        keep, std::vector<double>(n, 0.0));
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < d; ++j) {
        const double raw = data.feature(numeric_cols_[j]).values[r];
        const double v = (IsMissing(raw) ? means_[j] : raw) - means_[j];
        if (v == 0.0) continue;
        for (size_t c = 0; c < keep; ++c) {
          projected[c][r] += components_(c, j) * v;
        }
      }
    }
    const char* prefix = op_ == PreprocessOp::kPca ? "PC" : "IC";
    for (size_t c = 0; c < keep; ++c) {
      out.AddNumericFeature(StrFormat("%s%zu", prefix, c + 1),
                            std::move(projected[c]));
    }
    // Categorical passthrough.
    for (size_t f = 0; f < num_features_; ++f) {
      const auto& col = data.feature(f);
      if (col.is_categorical()) {
        out.AddCategoricalFeature(col.name, col.values, col.categories);
      }
    }
    out.SetLabels(data.labels(), data.class_names());
    return out;
  }

 private:
  PreprocessOp op_;
  uint64_t seed_;
  size_t num_features_ = 0;
  std::vector<size_t> numeric_cols_;
  std::vector<double> means_;
  Matrix components_;  // keep x d over the numeric block.
};

}  // namespace

const char* PreprocessOpName(PreprocessOp op) {
  switch (op) {
    case PreprocessOp::kImpute:
      return "impute";
    case PreprocessOp::kCenter:
      return "center";
    case PreprocessOp::kScale:
      return "scale";
    case PreprocessOp::kRange:
      return "range";
    case PreprocessOp::kZeroVariance:
      return "zv";
    case PreprocessOp::kBoxCox:
      return "boxcox";
    case PreprocessOp::kYeoJohnson:
      return "yeojohnson";
    case PreprocessOp::kPca:
      return "pca";
    case PreprocessOp::kIca:
      return "ica";
  }
  return "unknown";
}

StatusOr<PreprocessOp> ParsePreprocessOp(const std::string& name) {
  const std::string lower = AsciiToLower(name);
  for (PreprocessOp op :
       {PreprocessOp::kImpute, PreprocessOp::kCenter, PreprocessOp::kScale,
        PreprocessOp::kRange, PreprocessOp::kZeroVariance,
        PreprocessOp::kBoxCox, PreprocessOp::kYeoJohnson, PreprocessOp::kPca,
        PreprocessOp::kIca}) {
    if (lower == PreprocessOpName(op)) return op;
  }
  return Status::NotFound("unknown preprocessing operator '" + name + "'");
}

std::vector<PreprocessOp> AllPreprocessOps() {
  return {PreprocessOp::kCenter,     PreprocessOp::kScale,
          PreprocessOp::kRange,      PreprocessOp::kZeroVariance,
          PreprocessOp::kBoxCox,     PreprocessOp::kYeoJohnson,
          PreprocessOp::kPca,        PreprocessOp::kIca};
}

std::unique_ptr<Preprocessor> CreatePreprocessor(PreprocessOp op,
                                                 uint64_t seed) {
  switch (op) {
    case PreprocessOp::kImpute:
      return std::make_unique<ImputePreprocessor>();
    case PreprocessOp::kCenter:
    case PreprocessOp::kScale:
    case PreprocessOp::kRange:
      return std::make_unique<MomentPreprocessor>(op);
    case PreprocessOp::kZeroVariance:
      return std::make_unique<ZeroVariancePreprocessor>();
    case PreprocessOp::kBoxCox:
    case PreprocessOp::kYeoJohnson:
      return std::make_unique<PowerPreprocessor>(op);
    case PreprocessOp::kPca:
    case PreprocessOp::kIca:
      return std::make_unique<ProjectionPreprocessor>(op, seed);
  }
  return nullptr;
}

PreprocessPipeline::PreprocessPipeline(std::vector<PreprocessOp> ops,
                                       uint64_t seed) {
  for (PreprocessOp op : ops) {
    steps_.push_back(CreatePreprocessor(op, seed++));
  }
}

Status PreprocessPipeline::Fit(const Dataset& train) {
  return FitTransform(train).status();
}

StatusOr<Dataset> PreprocessPipeline::Transform(const Dataset& data) const {
  if (!fitted_ && !steps_.empty()) {
    return Status::FailedPrecondition("pipeline: not fitted");
  }
  Dataset current = data;
  for (const auto& step : steps_) {
    SMARTML_ASSIGN_OR_RETURN(current, step->Transform(current));
  }
  return current;
}

StatusOr<Dataset> PreprocessPipeline::FitTransform(const Dataset& train) {
  // Each step is fitted on, then applied to, the previous step's output, so
  // the chain's final output is the transformed training set.
  Dataset current = train;
  for (auto& step : steps_) {
    SMARTML_RETURN_NOT_OK(step->Fit(current));
    SMARTML_ASSIGN_OR_RETURN(current, step->Transform(current));
  }
  fitted_ = true;
  return current;
}

}  // namespace smartml
