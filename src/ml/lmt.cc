#include "src/ml/lmt.h"

#include <algorithm>

namespace smartml {

ParamSpace LmtClassifier::Space() {
  ParamSpace space;
  space.AddInt("M", 5, 120, 15, /*log_scale=*/true);
  return space;
}

Status LmtClassifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  if (train.NumRows() < 4) {
    return Status::InvalidArgument("lmt: need at least 4 rows");
  }
  const int num_classes = static_cast<int>(train.NumClasses());
  const auto min_instances = static_cast<size_t>(
      std::max<int64_t>(2, config.GetInt("M", 15)));

  // A shallow structural tree; the statistical power lives in the leaves.
  TreeOptions options;
  options.criterion = TreeCriterion::kGainRatio;
  options.multiway_categorical = true;
  options.min_leaf = min_instances;
  options.min_split = 2 * min_instances;
  options.max_depth = 5;
  options.confidence_factor = 0.25;
  options.seed = static_cast<uint64_t>(config.GetInt("seed", 37));

  const Matrix raw = train.ToRawMatrix();
  SMARTML_RETURN_NOT_OK(tree_.Fit(raw, TreeSchema::FromDataset(train),
                                  train.labels(),
                                  num_classes, {}, options));

  SMARTML_RETURN_NOT_OK(encoder_.Fit(train, /*standardize=*/true));
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(train));

  LogisticModel::Options lr_options;
  lr_options.l2 = 1e-2;
  lr_options.max_iters = 150;

  // Root model: trained on everything; used as leaf fallback.
  SMARTML_RETURN_NOT_OK(
      root_model_.Fit(x, train.labels(), num_classes, {}, lr_options));

  // Group training rows by leaf.
  std::unordered_map<int, std::vector<size_t>> rows_by_leaf;
  for (size_t r = 0; r < train.NumRows(); ++r) {
    rows_by_leaf[tree_.LeafIndexForRow(raw.RowPtr(r))].push_back(r);
  }
  leaf_models_.clear();
  for (const auto& [leaf, rows] : rows_by_leaf) {
    if (rows.size() < std::max<size_t>(min_instances, 8)) continue;
    // Per-leaf model via sample weights (1 inside the leaf, 0 outside), so
    // the design matrix is shared.
    std::vector<double> weights(train.NumRows(), 0.0);
    bool multi_class_leaf = false;
    int first_label = train.label(rows[0]);
    for (size_t r : rows) {
      weights[r] = 1.0;
      if (train.label(r) != first_label) multi_class_leaf = true;
    }
    if (!multi_class_leaf) continue;  // Pure leaf: tree posterior suffices.
    LogisticModel model;
    SMARTML_RETURN_NOT_OK(
        model.Fit(x, train.labels(), num_classes, weights, lr_options));
    leaf_models_.emplace(leaf, std::move(model));
  }
  return Status::OK();
}

StatusOr<ProbaMatrix> LmtClassifier::PredictProbaImpl(
    const Dataset& data) const {
  const Matrix raw = data.ToRawMatrix();
  SMARTML_ASSIGN_OR_RETURN(Matrix x, encoder_.Transform(data));
  std::vector<std::vector<double>> out(data.NumRows());
  std::vector<double> tp(static_cast<size_t>(num_classes()));
  for (size_t r = 0; r < data.NumRows(); ++r) {
    const int leaf = tree_.LeafIndexForRow(raw.RowPtr(r));
    std::fill(tp.begin(), tp.end(), 0.0);
    tree_.AddLeafProba(leaf, 1.0, tp.data());
    const auto it = leaf_models_.find(leaf);
    if (it != leaf_models_.end()) {
      // Blend the leaf's logistic posterior with the tree posterior —
      // LMT's SimpleLogistic leaves behave similarly via boosted priors.
      std::vector<double> lr = it->second.PredictProbaRow(x.RowPtr(r));
      for (size_t k = 0; k < lr.size(); ++k) {
        lr[k] = 0.8 * lr[k] + 0.2 * tp[k];
      }
      out[r] = std::move(lr);
    } else if (root_model_.fitted()) {
      std::vector<double> lr = root_model_.PredictProbaRow(x.RowPtr(r));
      for (size_t k = 0; k < lr.size(); ++k) {
        lr[k] = 0.5 * lr[k] + 0.5 * tp[k];
      }
      out[r] = std::move(lr);
    } else {
      out[r] = tp;
    }
  }
  return out;
}

}  // namespace smartml
