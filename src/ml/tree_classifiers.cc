#include "src/ml/tree_classifiers.h"

#include <algorithm>
#include <cmath>

namespace smartml {

namespace {

ProbaMatrix TreePredictProba(const DecisionTree& tree, const Dataset& data) {
  const Matrix x = data.ToRawMatrix();
  ProbaMatrix out(
      x.rows(), std::vector<double>(static_cast<size_t>(tree.num_classes())));
  for (size_t r = 0; r < x.rows(); ++r) {
    tree.AddLeafProba(tree.LeafIndexForRow(x.RowPtr(r)), 1.0, out[r].data());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// J48
// ---------------------------------------------------------------------------

ParamSpace J48Classifier::Space() {
  ParamSpace space;
  space.AddCategorical("unpruned", {"no", "yes"}, "no");
  space.AddDouble("C", 0.05, 0.5, 0.25);
  space.AddInt("M", 1, 60, 2, /*log_scale=*/true);
  space.Condition("C", "unpruned", {"no"});
  return space;
}

Status J48Classifier::FitImpl(const Dataset& train, const ParamConfig& config) {
  TreeOptions options;
  options.criterion = TreeCriterion::kGainRatio;
  options.multiway_categorical = true;
  options.min_leaf = static_cast<size_t>(
      std::max<int64_t>(1, config.GetInt("M", 2)));
  options.min_split = 2 * options.min_leaf;
  options.max_depth = 40;
  const bool unpruned = config.GetChoice("unpruned", "no") == "yes";
  options.confidence_factor =
      unpruned ? 0.0 : std::clamp(config.GetDouble("C", 0.25), 0.001, 0.5);
  options.seed = static_cast<uint64_t>(config.GetInt("seed", 3));

  return tree_.Fit(train.ToRawMatrix(), TreeSchema::FromDataset(train),
                   train.labels(), static_cast<int>(train.NumClasses()), {},
                   options, train.Binned());
}

StatusOr<ProbaMatrix> J48Classifier::PredictProbaImpl(
    const Dataset& data) const {
  return TreePredictProba(tree_, data);
}

// ---------------------------------------------------------------------------
// rpart
// ---------------------------------------------------------------------------

ParamSpace RpartClassifier::Space() {
  ParamSpace space;
  space.AddDouble("cp", 1e-4, 0.2, 0.01, /*log_scale=*/true);
  space.AddInt("minsplit", 2, 60, 20, /*log_scale=*/true);
  space.AddInt("minbucket", 1, 30, 7, /*log_scale=*/true);
  space.AddInt("maxdepth", 2, 30, 30);
  return space;
}

Status RpartClassifier::FitImpl(const Dataset& train,
                                const ParamConfig& config) {
  TreeOptions options;
  options.criterion = TreeCriterion::kGini;
  options.multiway_categorical = false;
  options.min_impurity_decrease =
      std::clamp(config.GetDouble("cp", 0.01), 0.0, 1.0);
  options.min_split = static_cast<size_t>(
      std::max<int64_t>(2, config.GetInt("minsplit", 20)));
  options.min_leaf = static_cast<size_t>(
      std::max<int64_t>(1, config.GetInt("minbucket", 7)));
  options.max_depth =
      static_cast<int>(std::clamp<int64_t>(config.GetInt("maxdepth", 30), 1,
                                           60));
  options.seed = static_cast<uint64_t>(config.GetInt("seed", 3));

  return tree_.Fit(train.ToRawMatrix(), TreeSchema::FromDataset(train),
                   train.labels(), static_cast<int>(train.NumClasses()), {},
                   options, train.Binned());
}

StatusOr<ProbaMatrix> RpartClassifier::PredictProbaImpl(
    const Dataset& data) const {
  return TreePredictProba(tree_, data);
}

// ---------------------------------------------------------------------------
// PART
// ---------------------------------------------------------------------------

ParamSpace PartClassifier::Space() {
  ParamSpace space;
  space.AddCategorical("pruned", {"yes", "no"}, "yes");
  space.AddDouble("C", 0.05, 0.5, 0.25);
  space.AddInt("M", 1, 30, 2, /*log_scale=*/true);
  space.Condition("C", "pruned", {"yes"});
  return space;
}

bool PartClassifier::Matches(const Rule& rule, const double* row) {
  for (const auto& cond : rule.conditions) {
    const double v = row[cond.feature];
    if (IsMissing(v)) return false;
    switch (cond.op) {
      case TreeCondition::Op::kLessEq:
        if (!(v <= cond.value)) return false;
        break;
      case TreeCondition::Op::kGreater:
        if (!(v > cond.value)) return false;
        break;
      case TreeCondition::Op::kEquals:
        if (static_cast<int>(v) != static_cast<int>(cond.value)) return false;
        break;
      case TreeCondition::Op::kNotEquals:
        if (static_cast<int>(v) == static_cast<int>(cond.value)) return false;
        break;
    }
  }
  return true;
}

Status PartClassifier::FitImpl(const Dataset& train,
                               const ParamConfig& config) {
  const int num_classes = static_cast<int>(train.NumClasses());
  rules_.clear();

  TreeOptions options;
  options.criterion = TreeCriterion::kGainRatio;
  options.multiway_categorical = true;
  options.min_leaf = static_cast<size_t>(
      std::max<int64_t>(1, config.GetInt("M", 2)));
  options.min_split = 2 * options.min_leaf;
  options.max_depth = 12;
  const bool pruned = config.GetChoice("pruned", "yes") == "yes";
  options.confidence_factor =
      pruned ? std::clamp(config.GetDouble("C", 0.25), 0.001, 0.5) : 0.0;
  options.seed = static_cast<uint64_t>(config.GetInt("seed", 3));

  const TreeSchema schema = TreeSchema::FromDataset(train);
  std::vector<size_t> remaining(train.NumRows());
  for (size_t r = 0; r < remaining.size(); ++r) remaining[r] = r;

  const size_t max_rules = 64;
  const Matrix full_x = train.ToRawMatrix();
  // Rule extraction no longer copies the uncovered rows into a fresh
  // Dataset each iteration: covered rows are masked out with zero weight
  // (Fit drops them before growth), so every tree trains against the same
  // matrix and the same shared binned view.
  const std::shared_ptr<const BinnedColumns> binned = train.Binned();
  while (!remaining.empty() && rules_.size() < max_rules) {
    std::vector<double> weights(train.NumRows(), 0.0);
    for (size_t r : remaining) weights[r] = 1.0;
    DecisionTree tree;
    SMARTML_RETURN_NOT_OK(tree.Fit(full_x, schema, train.labels(),
                                   num_classes, weights, options, binned));
    auto leaves = tree.ExtractLeafRules();
    if (leaves.empty()) break;
    // Highest-coverage leaf becomes the next rule.
    const auto& best = leaves.front();
    Rule rule;
    rule.conditions = best.conditions;
    rule.proba = best.class_counts;
    for (double& p : rule.proba) p += 1.0;  // Laplace.
    NormalizeProba(&rule.proba);
    rule.majority = best.majority;
    const bool is_default = rule.conditions.empty();
    rules_.push_back(rule);
    if (is_default) break;

    // Remove instances the new rule covers.
    std::vector<size_t> next;
    next.reserve(remaining.size());
    for (size_t r : remaining) {
      if (!Matches(rule, full_x.RowPtr(r))) next.push_back(r);
    }
    if (next.size() == remaining.size()) break;  // No progress: stop.
    remaining = std::move(next);
  }

  // Default rule from whatever remains (or global majority).
  Rule fallback;
  fallback.proba.assign(static_cast<size_t>(num_classes), 0.0);
  if (!remaining.empty()) {
    for (size_t r : remaining) {
      fallback.proba[static_cast<size_t>(train.label(r))] += 1.0;
    }
  } else {
    for (int y : train.labels()) fallback.proba[static_cast<size_t>(y)] += 1.0;
  }
  for (double& p : fallback.proba) p += 1.0;
  NormalizeProba(&fallback.proba);
  fallback.majority = ArgMax(fallback.proba);
  rules_.push_back(std::move(fallback));
  return Status::OK();
}

StatusOr<ProbaMatrix> PartClassifier::PredictProbaImpl(
    const Dataset& data) const {
  const Matrix x = data.ToRawMatrix();
  std::vector<std::vector<double>> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    out[r] = rules_.back().proba;  // Default rule.
    for (const auto& rule : rules_) {
      if (Matches(rule, row)) {
        out[r] = rule.proba;
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> PartClassifier::RuleStrings(
    const Dataset& schema_source) const {
  std::vector<std::string> out;
  for (const auto& rule : rules_) {
    std::string text;
    if (rule.conditions.empty()) {
      text = "OTHERWISE";
    } else {
      for (size_t i = 0; i < rule.conditions.size(); ++i) {
        if (i > 0) text += " AND ";
        text += rule.conditions[i].ToString(schema_source);
      }
    }
    text += " => class ";
    text += schema_source.class_names().empty()
                ? std::to_string(rule.majority)
                : schema_source.class_names()[static_cast<size_t>(
                      rule.majority)];
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace smartml
