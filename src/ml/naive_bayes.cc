#include "src/ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

namespace smartml {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;
}

ParamSpace NaiveBayesClassifier::Space() {
  ParamSpace space;
  space.AddDouble("laplace", 0.0, 10.0, 1.0);
  space.AddDouble("adjust", 0.25, 4.0, 1.0, /*log_scale=*/true);
  return space;
}

Status NaiveBayesClassifier::FitImpl(const Dataset& train,
                                     const ParamConfig& config) {
  const double laplace = std::max(0.0, config.GetDouble("laplace", 1.0));
  const double adjust =
      std::clamp(config.GetDouble("adjust", 1.0), 0.05, 100.0);

  const int num_classes = static_cast<int>(train.NumClasses());
  const size_t num_features = train.NumFeatures();
  is_categorical_.assign(num_features, false);
  numeric_.assign(num_features, {});
  categorical_.assign(num_features, {});

  const auto counts = train.ClassCounts();
  const double n = static_cast<double>(train.NumRows());
  log_prior_.resize(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    log_prior_[static_cast<size_t>(k)] =
        std::log((static_cast<double>(counts[static_cast<size_t>(k)]) + 1.0) /
                 (n + num_classes));
  }

  for (size_t f = 0; f < num_features; ++f) {
    const auto& col = train.feature(f);
    is_categorical_[f] = col.is_categorical();
    if (!col.is_categorical()) {
      auto& stats = numeric_[f];
      stats.mean.assign(static_cast<size_t>(num_classes), 0.0);
      stats.stddev.assign(static_cast<size_t>(num_classes), 1.0);
      std::vector<double> sum(static_cast<size_t>(num_classes), 0.0);
      std::vector<double> sum_sq(static_cast<size_t>(num_classes), 0.0);
      std::vector<double> cnt(static_cast<size_t>(num_classes), 0.0);
      for (size_t r = 0; r < train.NumRows(); ++r) {
        const double v = col.values[r];
        if (IsMissing(v)) continue;
        const auto k = static_cast<size_t>(train.label(r));
        sum[k] += v;
        sum_sq[k] += v * v;
        cnt[k] += 1.0;
      }
      // Global variance as a smoothing floor for sparse classes.
      double gsum = 0.0, gsq = 0.0, gcnt = 0.0;
      for (int k = 0; k < num_classes; ++k) {
        gsum += sum[static_cast<size_t>(k)];
        gsq += sum_sq[static_cast<size_t>(k)];
        gcnt += cnt[static_cast<size_t>(k)];
      }
      const double gmean = gcnt > 0 ? gsum / gcnt : 0.0;
      const double gvar =
          gcnt > 1 ? std::max(1e-9, gsq / gcnt - gmean * gmean) : 1.0;
      for (int k = 0; k < num_classes; ++k) {
        const auto uk = static_cast<size_t>(k);
        if (cnt[uk] >= 2) {
          const double mean = sum[uk] / cnt[uk];
          double var = sum_sq[uk] / cnt[uk] - mean * mean;
          var = std::max(var, 1e-6 * gvar + 1e-12);
          stats.mean[uk] = mean;
          stats.stddev[uk] = std::sqrt(var) * adjust;
        } else {
          stats.mean[uk] = cnt[uk] > 0 ? sum[uk] / cnt[uk] : gmean;
          stats.stddev[uk] = std::sqrt(gvar) * adjust;
        }
      }
    } else {
      auto& stats = categorical_[f];
      const size_t cards = std::max<size_t>(col.num_categories(), 1);
      stats.log_prob.assign(
          static_cast<size_t>(num_classes),
          std::vector<double>(cards + 1, 0.0));
      std::vector<std::vector<double>> freq(
          static_cast<size_t>(num_classes), std::vector<double>(cards, 0.0));
      for (size_t r = 0; r < train.NumRows(); ++r) {
        const double v = col.values[r];
        if (IsMissing(v)) continue;
        const auto code = static_cast<size_t>(v);
        if (code >= cards) continue;
        freq[static_cast<size_t>(train.label(r))][code] += 1.0;
      }
      const double alpha = std::max(laplace, 1e-3);
      for (int k = 0; k < num_classes; ++k) {
        const auto uk = static_cast<size_t>(k);
        double total = 0.0;
        for (double c : freq[uk]) total += c;
        const double denom = total + alpha * static_cast<double>(cards + 1);
        for (size_t c = 0; c < cards; ++c) {
          stats.log_prob[uk][c] = std::log((freq[uk][c] + alpha) / denom);
        }
        stats.log_prob[uk][cards] = std::log(alpha / denom);  // Unseen.
      }
    }
  }
  return Status::OK();
}

StatusOr<ProbaMatrix> NaiveBayesClassifier::PredictProbaImpl(
    const Dataset& data) const {
  const size_t n = data.NumRows();
  std::vector<std::vector<double>> out(
      n, std::vector<double>(static_cast<size_t>(num_classes()), 0.0));
  std::vector<double> log_post(static_cast<size_t>(num_classes()));
  for (size_t r = 0; r < n; ++r) {
    log_post = log_prior_;
    for (size_t f = 0; f < num_features(); ++f) {
      const double v = data.feature(f).values[r];
      if (IsMissing(v)) continue;  // Marginalize missing features away.
      if (!is_categorical_[f]) {
        const auto& stats = numeric_[f];
        for (int k = 0; k < num_classes(); ++k) {
          const auto uk = static_cast<size_t>(k);
          const double sd = stats.stddev[uk];
          const double z = (v - stats.mean[uk]) / sd;
          log_post[uk] += -0.5 * (z * z + kLog2Pi) - std::log(sd);
        }
      } else {
        const auto& stats = categorical_[f];
        const size_t cards = stats.log_prob[0].size() - 1;
        const auto code = static_cast<size_t>(v);
        const size_t slot = code < cards ? code : cards;
        for (int k = 0; k < num_classes(); ++k) {
          log_post[static_cast<size_t>(k)] +=
              stats.log_prob[static_cast<size_t>(k)][slot];
        }
      }
    }
    // Softmax in log space.
    const double max_log =
        *std::max_element(log_post.begin(), log_post.end());
    double total = 0.0;
    for (int k = 0; k < num_classes(); ++k) {
      const auto uk = static_cast<size_t>(k);
      out[r][uk] = std::exp(log_post[uk] - max_log);
      total += out[r][uk];
    }
    for (double& p : out[r]) p /= total;
  }
  return out;
}

}  // namespace smartml
