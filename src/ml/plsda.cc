#include "src/ml/plsda.h"

#include <algorithm>
#include <cmath>

namespace smartml {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;
}

ParamSpace PlsdaClassifier::Space() {
  ParamSpace space;
  space.AddCategorical("probMethod", {"softmax", "bayes"}, "softmax");
  space.AddInt("ncomp", 1, 12, 2);
  return space;
}

Status PlsdaClassifier::FitImpl(const Dataset& train,
                                const ParamConfig& config) {
  if (train.NumRows() < 3) {
    return Status::InvalidArgument("plsda: need at least 3 rows");
  }
  bayes_ = config.GetChoice("probMethod", "softmax") == "bayes";

  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/true));
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(train));
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t k_classes = train.NumClasses();
  ncomp_ = static_cast<int>(std::clamp<int64_t>(
      config.GetInt("ncomp", 2), 1,
      static_cast<int64_t>(std::min(d, n - 1))));

  // Centered X and one-hot-centered Y.
  x_mean_ = ColumnMeans(x);
  for (size_t r = 0; r < n; ++r) {
    double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) row[c] -= x_mean_[c];
  }
  Matrix y(n, k_classes);
  for (size_t r = 0; r < n; ++r) {
    y(r, static_cast<size_t>(train.label(r))) = 1.0;
  }
  y_mean_ = ColumnMeans(y);
  for (size_t r = 0; r < n; ++r) {
    double* row = y.RowPtr(r);
    for (size_t c = 0; c < k_classes; ++c) row[c] -= y_mean_[c];
  }

  const auto h_max = static_cast<size_t>(ncomp_);
  Matrix w_all(d, h_max);
  Matrix p_all(d, h_max);
  Matrix q_all(k_classes, h_max);
  Matrix t_all(n, h_max);

  for (size_t h = 0; h < h_max; ++h) {
    // Start u from the Y column with the largest variance.
    size_t best_col = 0;
    double best_var = -1.0;
    for (size_t c = 0; c < k_classes; ++c) {
      double var = 0.0;
      for (size_t r = 0; r < n; ++r) var += y(r, c) * y(r, c);
      if (var > best_var) {
        best_var = var;
        best_col = c;
      }
    }
    std::vector<double> u = y.Col(best_col);
    std::vector<double> w(d), t(n), q(k_classes);
    std::vector<double> t_old(n, 0.0);
    for (int iter = 0; iter < 100; ++iter) {
      // w = X^T u, normalized.
      std::fill(w.begin(), w.end(), 0.0);
      for (size_t r = 0; r < n; ++r) {
        const double* row = x.RowPtr(r);
        const double ur = u[r];
        if (ur == 0.0) continue;
        for (size_t c = 0; c < d; ++c) w[c] += row[c] * ur;
      }
      const double w_norm = Norm2(w);
      if (w_norm < 1e-12) break;
      for (double& v : w) v /= w_norm;
      // t = X w.
      for (size_t r = 0; r < n; ++r) {
        const double* row = x.RowPtr(r);
        double acc = 0.0;
        for (size_t c = 0; c < d; ++c) acc += row[c] * w[c];
        t[r] = acc;
      }
      const double tt = Dot(t, t);
      if (tt < 1e-12) break;
      // q = Y^T t / (t^T t).
      std::fill(q.begin(), q.end(), 0.0);
      for (size_t r = 0; r < n; ++r) {
        const double* row = y.RowPtr(r);
        const double tr = t[r];
        for (size_t c = 0; c < k_classes; ++c) q[c] += row[c] * tr;
      }
      for (double& v : q) v /= tt;
      // u = Y q / (q^T q).
      const double qq = std::max(Dot(q, q), 1e-12);
      for (size_t r = 0; r < n; ++r) {
        const double* row = y.RowPtr(r);
        double acc = 0.0;
        for (size_t c = 0; c < k_classes; ++c) acc += row[c] * q[c];
        u[r] = acc / qq;
      }
      // Convergence on t.
      double delta = 0.0;
      for (size_t r = 0; r < n; ++r) {
        delta += (t[r] - t_old[r]) * (t[r] - t_old[r]);
      }
      t_old = t;
      if (delta < 1e-12) break;
    }
    const double tt = std::max(Dot(t, t), 1e-12);
    // p = X^T t / (t^T t).
    std::vector<double> p(d, 0.0);
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.RowPtr(r);
      const double tr = t[r];
      for (size_t c = 0; c < d; ++c) p[c] += row[c] * tr;
    }
    for (double& v : p) v /= tt;
    // Deflate X and Y.
    for (size_t r = 0; r < n; ++r) {
      double* xrow = x.RowPtr(r);
      double* yrow = y.RowPtr(r);
      const double tr = t[r];
      for (size_t c = 0; c < d; ++c) xrow[c] -= tr * p[c];
      for (size_t c = 0; c < k_classes; ++c) yrow[c] -= tr * q[c];
    }
    for (size_t c = 0; c < d; ++c) {
      w_all(c, h) = w[c];
      p_all(c, h) = p[c];
    }
    for (size_t c = 0; c < k_classes; ++c) q_all(c, h) = q[c];
    for (size_t r = 0; r < n; ++r) t_all(r, h) = t[r];
  }

  // W* = W (P^T W)^{-1} gives direct projection of centered X onto scores.
  Matrix ptw = p_all.Transpose().Multiply(w_all);
  auto ptw_inv = Inverse(ptw);
  if (!ptw_inv.ok()) {
    // Fall back to ridge-stabilized inversion.
    for (size_t i = 0; i < ptw.rows(); ++i) ptw(i, i) += 1e-8;
    SMARTML_ASSIGN_OR_RETURN(Matrix inv2, Inverse(ptw));
    weights_ = w_all.Multiply(inv2);
  } else {
    weights_ = w_all.Multiply(*ptw_inv);
  }
  loadings_q_ = q_all;

  // Bayes mode statistics over the training latent scores.
  if (bayes_) {
    score_mean_.assign(k_classes, std::vector<double>(h_max, 0.0));
    score_stddev_.assign(k_classes, std::vector<double>(h_max, 1.0));
    std::vector<double> counts(k_classes, 0.0);
    std::vector<std::vector<double>> sum_sq(
        k_classes, std::vector<double>(h_max, 0.0));
    for (size_t r = 0; r < n; ++r) {
      const auto k = static_cast<size_t>(train.label(r));
      counts[k] += 1.0;
      for (size_t h = 0; h < h_max; ++h) {
        score_mean_[k][h] += t_all(r, h);
        sum_sq[k][h] += t_all(r, h) * t_all(r, h);
      }
    }
    for (size_t k = 0; k < k_classes; ++k) {
      for (size_t h = 0; h < h_max; ++h) {
        if (counts[k] > 0) score_mean_[k][h] /= counts[k];
        double var = counts[k] > 1
                         ? sum_sq[k][h] / counts[k] -
                               score_mean_[k][h] * score_mean_[k][h]
                         : 1.0;
        score_stddev_[k][h] = std::sqrt(std::max(var, 1e-6));
      }
    }
    log_prior_.resize(k_classes);
    const double total = static_cast<double>(n);
    for (size_t k = 0; k < k_classes; ++k) {
      log_prior_[k] =
          std::log((counts[k] + 1.0) / (total + static_cast<double>(k_classes)));
    }
  }
  return Status::OK();
}

std::vector<double> PlsdaClassifier::LatentScores(const double* row) const {
  const size_t d = weights_.rows();
  const auto h_max = static_cast<size_t>(ncomp_);
  std::vector<double> scores(h_max, 0.0);
  for (size_t c = 0; c < d; ++c) {
    const double xc = row[c] - x_mean_[c];
    if (xc == 0.0) continue;
    for (size_t h = 0; h < h_max; ++h) scores[h] += xc * weights_(c, h);
  }
  return scores;
}

StatusOr<ProbaMatrix> PlsdaClassifier::PredictProbaImpl(
    const Dataset& data) const {
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  const auto k_classes = static_cast<size_t>(num_classes());
  const auto h_max = static_cast<size_t>(ncomp_);
  std::vector<std::vector<double>> out(
      x.rows(), std::vector<double>(k_classes, 0.0));
  for (size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> scores = LatentScores(x.RowPtr(r));
    if (!bayes_) {
      // Regression estimate of the class indicators, then softmax.
      std::vector<double> yhat(k_classes);
      for (size_t k = 0; k < k_classes; ++k) {
        double acc = y_mean_[k];
        for (size_t h = 0; h < h_max; ++h) {
          acc += loadings_q_(k, h) * scores[h];
        }
        yhat[k] = acc;
      }
      const double max_y = *std::max_element(yhat.begin(), yhat.end());
      double total = 0.0;
      for (size_t k = 0; k < k_classes; ++k) {
        out[r][k] = std::exp(3.0 * (yhat[k] - max_y));
        total += out[r][k];
      }
      for (double& p : out[r]) p /= total;
    } else {
      // Gaussian class models over the latent space.
      std::vector<double> log_post(k_classes);
      for (size_t k = 0; k < k_classes; ++k) {
        double lp = log_prior_[k];
        for (size_t h = 0; h < h_max; ++h) {
          const double sd = score_stddev_[k][h];
          const double z = (scores[h] - score_mean_[k][h]) / sd;
          lp += -0.5 * (z * z + kLog2Pi) - std::log(sd);
        }
        log_post[k] = lp;
      }
      const double max_lp =
          *std::max_element(log_post.begin(), log_post.end());
      double total = 0.0;
      for (size_t k = 0; k < k_classes; ++k) {
        out[r][k] = std::exp(log_post[k] - max_lp);
        total += out[r][k];
      }
      for (double& p : out[r]) p /= total;
    }
  }
  return out;
}

}  // namespace smartml
