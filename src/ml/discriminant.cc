#include "src/ml/discriminant.h"

#include <algorithm>
#include <cmath>

namespace smartml {

namespace {

// Class means and priors over an encoded matrix.
struct ClassMoments {
  std::vector<std::vector<double>> means;
  std::vector<double> counts;
  std::vector<double> log_prior;
};

ClassMoments ComputeClassMoments(const Matrix& x, const std::vector<int>& y,
                                 int num_classes) {
  const size_t d = x.cols();
  ClassMoments m;
  m.means.assign(static_cast<size_t>(num_classes), std::vector<double>(d, 0.0));
  m.counts.assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto k = static_cast<size_t>(y[r]);
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) m.means[k][c] += row[c];
    m.counts[k] += 1.0;
  }
  const double n = static_cast<double>(x.rows());
  m.log_prior.resize(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    const auto uk = static_cast<size_t>(k);
    if (m.counts[uk] > 0) {
      for (double& v : m.means[uk]) v /= m.counts[uk];
    }
    m.log_prior[uk] =
        std::log((m.counts[uk] + 1.0) / (n + static_cast<double>(num_classes)));
  }
  return m;
}

// Pooled within-class covariance.
Matrix PooledCovariance(const Matrix& x, const std::vector<int>& y,
                        const ClassMoments& moments, int num_classes) {
  const size_t d = x.cols();
  Matrix cov(d, d);
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto k = static_cast<size_t>(y[r]);
    const double* row = x.RowPtr(r);
    for (size_t i = 0; i < d; ++i) {
      const double di = row[i] - moments.means[k][i];
      for (size_t j = i; j < d; ++j) {
        cov(i, j) += di * (row[j] - moments.means[k][j]);
      }
    }
  }
  const double denom = std::max(
      1.0, static_cast<double>(x.rows()) - static_cast<double>(num_classes));
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

// Inverts `a + ridge*I`, escalating the ridge until it succeeds.
StatusOr<Matrix> RobustInverse(Matrix a, double ridge) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    Matrix work = a;
    for (size_t i = 0; i < work.rows(); ++i) work(i, i) += ridge;
    auto inv = Inverse(work);
    if (inv.ok()) return inv;
    ridge = std::max(ridge * 10.0, 1e-8);
  }
  return Status::Internal("RobustInverse: matrix remained singular");
}

}  // namespace

// ---------------------------------------------------------------------------
// LDA
// ---------------------------------------------------------------------------

ParamSpace LdaClassifier::Space() {
  ParamSpace space;
  space.AddCategorical("method", {"moment", "mle"}, "moment");
  space.AddDouble("tol", 1e-8, 1e-2, 1e-4, /*log_scale=*/true);
  return space;
}

Status LdaClassifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  if (train.NumRows() < 2) {
    return Status::InvalidArgument("lda: need at least 2 rows");
  }
  const double tol =
      std::clamp(config.GetDouble("tol", 1e-4), 1e-12, 1.0);
  const bool mle = config.GetChoice("method", "moment") == "mle";

  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/false));
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(train));
  const int num_classes = static_cast<int>(train.NumClasses());
  const ClassMoments moments =
      ComputeClassMoments(x, train.labels(), num_classes);
  Matrix cov = PooledCovariance(x, train.labels(), moments, num_classes);
  if (mle) {
    // MLE divides by n rather than n - K.
    const double scale =
        (static_cast<double>(x.rows()) -
         static_cast<double>(num_classes)) /
        std::max(1.0, static_cast<double>(x.rows()));
    cov = cov.Scale(scale);
  }
  SMARTML_ASSIGN_OR_RETURN(sigma_inverse_, RobustInverse(std::move(cov), tol));
  means_ = moments.means;
  log_prior_ = moments.log_prior;
  return Status::OK();
}

StatusOr<ProbaMatrix> LdaClassifier::PredictProbaImpl(
    const Dataset& data) const {
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  const size_t d = x.cols();
  // Precompute Σ⁻¹ μ_k and μ_k^T Σ⁻¹ μ_k.
  std::vector<std::vector<double>> sigma_mu(
      static_cast<size_t>(num_classes()));
  std::vector<double> quad(static_cast<size_t>(num_classes()));
  for (int k = 0; k < num_classes(); ++k) {
    const auto uk = static_cast<size_t>(k);
    sigma_mu[uk] = sigma_inverse_.Multiply(means_[uk]);
    quad[uk] = Dot(means_[uk], sigma_mu[uk]);
  }
  std::vector<std::vector<double>> out(
      x.rows(), std::vector<double>(static_cast<size_t>(num_classes())));
  std::vector<double> score(static_cast<size_t>(num_classes()));
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    for (int k = 0; k < num_classes(); ++k) {
      const auto uk = static_cast<size_t>(k);
      double lin = 0.0;
      for (size_t c = 0; c < d; ++c) lin += row[c] * sigma_mu[uk][c];
      score[uk] = lin - 0.5 * quad[uk] + log_prior_[uk];
    }
    const double max_score = *std::max_element(score.begin(), score.end());
    double total = 0.0;
    for (int k = 0; k < num_classes(); ++k) {
      const auto uk = static_cast<size_t>(k);
      out[r][uk] = std::exp(score[uk] - max_score);
      total += out[r][uk];
    }
    for (double& p : out[r]) p /= total;
  }
  return out;
}

// ---------------------------------------------------------------------------
// RDA
// ---------------------------------------------------------------------------

ParamSpace RdaClassifier::Space() {
  ParamSpace space;
  space.AddDouble("gamma", 0.0, 1.0, 0.1);
  space.AddDouble("lambda", 0.0, 1.0, 0.5);
  return space;
}

Status RdaClassifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  if (train.NumRows() < 2) {
    return Status::InvalidArgument("rda: need at least 2 rows");
  }
  const double gamma = std::clamp(config.GetDouble("gamma", 0.1), 0.0, 1.0);
  const double lambda = std::clamp(config.GetDouble("lambda", 0.5), 0.0, 1.0);

  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/false));
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(train));
  const int num_classes = static_cast<int>(train.NumClasses());
  const size_t d = x.cols();
  const ClassMoments moments =
      ComputeClassMoments(x, train.labels(), num_classes);
  const Matrix pooled =
      PooledCovariance(x, train.labels(), moments, num_classes);

  sigma_inverse_.clear();
  log_det_.clear();
  sigma_inverse_.reserve(static_cast<size_t>(num_classes));
  log_det_.reserve(static_cast<size_t>(num_classes));

  for (int k = 0; k < num_classes; ++k) {
    const auto uk = static_cast<size_t>(k);
    // Per-class covariance.
    Matrix cov_k(d, d);
    double count = 0.0;
    for (size_t r = 0; r < x.rows(); ++r) {
      if (train.label(r) != k) continue;
      const double* row = x.RowPtr(r);
      for (size_t i = 0; i < d; ++i) {
        const double di = row[i] - moments.means[uk][i];
        for (size_t j = i; j < d; ++j) {
          cov_k(i, j) += di * (row[j] - moments.means[uk][j]);
        }
      }
      count += 1.0;
    }
    const double denom = std::max(1.0, count - 1.0);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i; j < d; ++j) {
        cov_k(i, j) /= denom;
        cov_k(j, i) = cov_k(i, j);
      }
    }
    // Friedman shrinkage: toward pooled (lambda), then toward scaled
    // identity (gamma).
    Matrix reg = cov_k.Scale(1.0 - lambda).Add(pooled.Scale(lambda));
    double trace = 0.0;
    for (size_t i = 0; i < d; ++i) trace += reg(i, i);
    const double iso = trace / static_cast<double>(d);
    reg = reg.Scale(1.0 - gamma);
    for (size_t i = 0; i < d; ++i) reg(i, i) += gamma * iso;

    auto logdet = LogDetSpd(reg, 1e-8);
    double ridge = 1e-8;
    while (!logdet.ok() && ridge < 1.0) {
      ridge *= 100.0;
      logdet = LogDetSpd(reg, ridge);
    }
    if (!logdet.ok()) return logdet.status();
    SMARTML_ASSIGN_OR_RETURN(Matrix inv, RobustInverse(reg, ridge));
    sigma_inverse_.push_back(std::move(inv));
    log_det_.push_back(*logdet);
  }
  means_ = moments.means;
  log_prior_ = moments.log_prior;
  return Status::OK();
}

StatusOr<ProbaMatrix> RdaClassifier::PredictProbaImpl(
    const Dataset& data) const {
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  const size_t d = x.cols();
  std::vector<std::vector<double>> out(
      x.rows(), std::vector<double>(static_cast<size_t>(num_classes())));
  std::vector<double> score(static_cast<size_t>(num_classes()));
  std::vector<double> diff(d);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    for (int k = 0; k < num_classes(); ++k) {
      const auto uk = static_cast<size_t>(k);
      for (size_t c = 0; c < d; ++c) diff[c] = row[c] - means_[uk][c];
      const std::vector<double> tmp = sigma_inverse_[uk].Multiply(diff);
      score[uk] = -0.5 * Dot(diff, tmp) - 0.5 * log_det_[uk] + log_prior_[uk];
    }
    const double max_score = *std::max_element(score.begin(), score.end());
    double total = 0.0;
    for (int k = 0; k < num_classes(); ++k) {
      const auto uk = static_cast<size_t>(k);
      out[r][uk] = std::exp(score[uk] - max_score);
      total += out[r][uk];
    }
    for (double& p : out[r]) p /= total;
  }
  return out;
}

}  // namespace smartml
