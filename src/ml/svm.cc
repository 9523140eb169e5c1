#include "src/ml/svm.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace smartml {

ParamSpace SvmClassifier::Space() {
  ParamSpace space;
  space.AddCategorical("kernel", {"linear", "rbf", "poly", "sigmoid"}, "rbf");
  space.AddDouble("C", 0.01, 100.0, 1.0, /*log_scale=*/true);
  space.AddDouble("gamma", 1e-4, 10.0, 0.1, /*log_scale=*/true);
  space.AddInt("degree", 2, 5, 3);
  space.AddDouble("coef0", 0.0, 2.0, 0.0);
  space.Condition("gamma", "kernel", {"rbf", "poly", "sigmoid"});
  space.Condition("degree", "kernel", {"poly"});
  space.Condition("coef0", "kernel", {"poly", "sigmoid"});
  return space;
}

double SvmClassifier::KernelValue(const double* a, const double* b,
                                  size_t d) const {
  double dot = 0.0;
  switch (kernel_) {
    case Kernel::kLinear:
      for (size_t i = 0; i < d; ++i) dot += a[i] * b[i];
      return dot;
    case Kernel::kRbf: {
      double dist = 0.0;
      for (size_t i = 0; i < d; ++i) {
        const double diff = a[i] - b[i];
        dist += diff * diff;
      }
      return std::exp(-gamma_ * dist);
    }
    case Kernel::kPoly:
      for (size_t i = 0; i < d; ++i) dot += a[i] * b[i];
      return std::pow(gamma_ * dot + coef0_, degree_);
    case Kernel::kSigmoid:
      for (size_t i = 0; i < d; ++i) dot += a[i] * b[i];
      return std::tanh(gamma_ * dot + coef0_);
  }
  return 0.0;
}

SvmClassifier::BinaryMachine SvmClassifier::TrainBinary(
    const std::vector<size_t>& rows, const std::vector<int>& signs, int pos,
    int neg, uint64_t seed) const {
  const size_t n = rows.size();
  const size_t d = train_x_.cols();

  // Dense kernel matrix of the subproblem (subproblems are small by
  // construction: at most the two largest classes).
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double* xi = train_x_.RowPtr(rows[i]);
    for (size_t j = i; j < n; ++j) {
      const double v = KernelValue(xi, train_x_.RowPtr(rows[j]), d);
      k(i, j) = v;
      k(j, i) = v;
    }
  }

  std::vector<double> alpha(n, 0.0);
  std::vector<double> error(n);  // f(x_i) - y_i with f from current alphas.
  for (size_t i = 0; i < n; ++i) error[i] = -static_cast<double>(signs[i]);
  double bias = 0.0;
  const double tol = 1e-3;
  const double eps = 1e-8;
  Rng rng(seed);

  // Simplified Platt SMO with randomized second-choice heuristic.
  const int max_passes = 8;
  const int max_total_iters = static_cast<int>(80 * n) + 2000;
  int passes = 0;
  int iters = 0;
  while (passes < max_passes && iters < max_total_iters) {
    size_t changed = 0;
    for (size_t i = 0; i < n && iters < max_total_iters; ++i, ++iters) {
      const double yi = signs[i];
      const double ei = error[i];
      const bool violates = (yi * ei < -tol && alpha[i] < c_ - eps) ||
                            (yi * ei > tol && alpha[i] > eps);
      if (!violates) continue;

      // Second index: prefer max |E_i - E_j|, fall back to random.
      size_t j = i;
      double best_gap = -1.0;
      for (size_t cand = 0; cand < n; ++cand) {
        if (cand == i) continue;
        const double gap = std::fabs(ei - error[cand]);
        if (gap > best_gap) {
          best_gap = gap;
          j = cand;
        }
      }
      if (j == i) j = (i + 1 + rng.UniformInt(n - 1)) % n;

      const double yj = signs[j];
      const double ai_old = alpha[i];
      const double aj_old = alpha[j];
      double lo, hi;
      if (yi != yj) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c_, c_ + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c_);
        hi = std::min(c_, ai_old + aj_old);
      }
      if (hi - lo < eps) continue;
      const double eta = 2.0 * k(i, j) - k(i, i) - k(j, j);
      if (eta >= -eps) continue;

      double aj = aj_old - yj * (ei - error[j]) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::fabs(aj - aj_old) < eps * (aj + aj_old + eps)) continue;
      const double ai = ai_old + yi * yj * (aj_old - aj);

      const double b1 = bias - ei - yi * (ai - ai_old) * k(i, i) -
                        yj * (aj - aj_old) * k(i, j);
      const double b2 = bias - error[j] - yi * (ai - ai_old) * k(i, j) -
                        yj * (aj - aj_old) * k(j, j);
      double new_bias;
      if (ai > eps && ai < c_ - eps) {
        new_bias = b1;
      } else if (aj > eps && aj < c_ - eps) {
        new_bias = b2;
      } else {
        new_bias = 0.5 * (b1 + b2);
      }

      const double di = yi * (ai - ai_old);
      const double dj = yj * (aj - aj_old);
      const double db = new_bias - bias;
      for (size_t t = 0; t < n; ++t) {
        error[t] += di * k(i, t) + dj * k(j, t) + db;
      }
      alpha[i] = ai;
      alpha[j] = aj;
      bias = new_bias;
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  BinaryMachine machine;
  machine.positive_class = pos;
  machine.negative_class = neg;
  machine.bias = bias;
  for (size_t i = 0; i < n; ++i) {
    if (alpha[i] > eps) {
      machine.support_rows.push_back(rows[i]);
      machine.alpha_y.push_back(alpha[i] * signs[i]);
    }
  }
  return machine;
}

Status SvmClassifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  if (train.NumRows() < 2) {
    return Status::InvalidArgument("svm: need at least 2 rows");
  }
  const std::string kernel = config.GetChoice("kernel", "rbf");
  if (kernel == "linear") {
    kernel_ = Kernel::kLinear;
  } else if (kernel == "rbf") {
    kernel_ = Kernel::kRbf;
  } else if (kernel == "poly") {
    kernel_ = Kernel::kPoly;
  } else if (kernel == "sigmoid") {
    kernel_ = Kernel::kSigmoid;
  } else {
    return Status::InvalidArgument("svm: unknown kernel '" + kernel + "'");
  }
  c_ = std::clamp(config.GetDouble("C", 1.0), 1e-4, 1e6);
  gamma_ = std::clamp(config.GetDouble("gamma", 0.1), 1e-6, 1e3);
  degree_ = static_cast<int>(std::clamp<int64_t>(config.GetInt("degree", 3),
                                                 1, 10));
  coef0_ = config.GetDouble("coef0", 0.0);

  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/true));
  SMARTML_ASSIGN_OR_RETURN(train_x_, encoder_.Transform(train));
  const int num_classes = static_cast<int>(train.NumClasses());

  std::vector<std::vector<size_t>> by_class(static_cast<size_t>(num_classes));
  for (size_t r = 0; r < train.NumRows(); ++r) {
    by_class[static_cast<size_t>(train.label(r))].push_back(r);
  }

  machines_.clear();
  uint64_t seed = config.GetInt("seed", 17);
  for (int a = 0; a < num_classes; ++a) {
    for (int b = a + 1; b < num_classes; ++b) {
      const auto& rows_a = by_class[static_cast<size_t>(a)];
      const auto& rows_b = by_class[static_cast<size_t>(b)];
      if (rows_a.empty() || rows_b.empty()) continue;
      std::vector<size_t> rows;
      std::vector<int> signs;
      rows.reserve(rows_a.size() + rows_b.size());
      for (size_t r : rows_a) {
        rows.push_back(r);
        signs.push_back(+1);
      }
      for (size_t r : rows_b) {
        rows.push_back(r);
        signs.push_back(-1);
      }
      machines_.push_back(TrainBinary(rows, signs, a, b, seed++));
    }
  }
  return Status::OK();
}

StatusOr<ProbaMatrix> SvmClassifier::PredictProbaImpl(
    const Dataset& data) const {
  // A training set whose rows all hold one of several classes trains no
  // one-vs-one machine.
  if (machines_.empty() && num_classes() > 1) {
    return Status::FailedPrecondition("svm: trained on a single class");
  }
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  const size_t n = x.rows();
  const size_t d = x.cols();
  ProbaMatrix out(
      n, std::vector<double>(static_cast<size_t>(std::max(num_classes(), 1)),
                             0.0));
  for (size_t r = 0; r < n; ++r) {
    const double* q = x.RowPtr(r);
    for (const auto& machine : machines_) {
      double f = machine.bias;
      for (size_t s = 0; s < machine.support_rows.size(); ++s) {
        f += machine.alpha_y[s] *
             KernelValue(q, train_x_.RowPtr(machine.support_rows[s]), d);
      }
      // Soft vote: logistic squash of the margin spreads probability mass.
      const double p_pos = 1.0 / (1.0 + std::exp(-2.0 * f));
      out[r][static_cast<size_t>(machine.positive_class)] += p_pos;
      out[r][static_cast<size_t>(machine.negative_class)] += 1.0 - p_pos;
    }
    NormalizeProba(&out[r]);
  }
  return out;
}

}  // namespace smartml
