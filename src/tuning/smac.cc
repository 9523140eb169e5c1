#include "src/tuning/smac.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "src/common/distributions.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/data/binned_columns.h"
#include "src/obs/metrics.h"
#include "src/obs/run_events.h"
#include "src/tuning/checkpoint_codec.h"
#include "src/tuning/parallel_eval.h"

namespace smartml {

// ---------------------------------------------------------------------------
// RegressionForest
// ---------------------------------------------------------------------------

int RegressionForest::BuildNode(Tree* tree, const Matrix& x,
                                const std::vector<double>& y,
                                const std::vector<size_t>& rows, int depth,
                                Rng* rng) const {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  double sum = 0.0;
  for (size_t r : rows) sum += y[r];
  const double mean = sum / static_cast<double>(rows.size());
  tree->nodes.back().value = mean;

  if (depth >= options_.max_depth || rows.size() < 2 * options_.min_leaf) {
    return index;
  }
  double sse = 0.0;
  for (size_t r : rows) sse += (y[r] - mean) * (y[r] - mean);
  if (sse < 1e-14) return index;

  // Random feature subset.
  const size_t d = x.cols();
  std::vector<size_t> features(d);
  std::iota(features.begin(), features.end(), size_t{0});
  rng->Shuffle(&features);
  const size_t take = std::max<size_t>(
      1, static_cast<size_t>(options_.feature_fraction *
                             static_cast<double>(d)));
  features.resize(take);

  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<std::pair<double, double>> vals(rows.size());  // (x, y)
  for (size_t f : features) {
    for (size_t i = 0; i < rows.size(); ++i) {
      vals[i] = {x(rows[i], f), y[rows[i]]};
    }
    std::sort(vals.begin(), vals.end());
    double left_sum = 0.0, left_sq = 0.0;
    double right_sum = 0.0, right_sq = 0.0;
    for (const auto& [xv, yv] : vals) {
      right_sum += yv;
      right_sq += yv * yv;
    }
    const size_t n = vals.size();
    for (size_t i = 0; i + 1 < n; ++i) {
      const double yv = vals[i].second;
      left_sum += yv;
      left_sq += yv * yv;
      right_sum -= yv;
      right_sq -= yv * yv;
      // Only boundaries between distinct values are candidates (exact
      // equality; SplitMidpoint below guarantees a threshold exists for any
      // two distinct doubles).
      if (vals[i].first == vals[i + 1].first) continue;
      const size_t nl = i + 1, nr = n - nl;
      if (nl < options_.min_leaf || nr < options_.min_leaf) continue;
      const double sse_l = left_sq - left_sum * left_sum /
                                         static_cast<double>(nl);
      const double sse_r = right_sq - right_sum * right_sum /
                                          static_cast<double>(nr);
      const double gain = sse - sse_l - sse_r;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        // Clamped so the threshold never rounds up onto the right child's
        // value (which would misroute those rows at predict time).
        best_threshold = SplitMidpoint(vals[i].first, vals[i + 1].first);
      }
    }
  }
  if (best_feature < 0) return index;

  std::vector<size_t> left_rows, right_rows;
  for (size_t r : rows) {
    if (x(r, static_cast<size_t>(best_feature)) <= best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return index;

  tree->nodes[static_cast<size_t>(index)].leaf = false;
  tree->nodes[static_cast<size_t>(index)].feature = best_feature;
  tree->nodes[static_cast<size_t>(index)].threshold = best_threshold;
  const int left = BuildNode(tree, x, y, left_rows, depth + 1, rng);
  tree->nodes[static_cast<size_t>(index)].left = left;
  const int right = BuildNode(tree, x, y, right_rows, depth + 1, rng);
  tree->nodes[static_cast<size_t>(index)].right = right;
  return index;
}

Status RegressionForest::Fit(const Matrix& x, const std::vector<double>& y,
                             const Options& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("RegressionForest: bad training shape");
  }
  options_ = options;
  dim_ = x.cols();
  trees_.clear();
  trees_.resize(static_cast<size_t>(std::max(1, options.num_trees)));
  Rng rng(options.seed);
  for (auto& tree : trees_) {
    // Bootstrap sample.
    std::vector<size_t> rows(x.rows());
    for (size_t& r : rows) r = rng.UniformInt(x.rows());
    BuildNode(&tree, x, y, rows, 0, &rng);
  }
  return Status::OK();
}

double RegressionForest::PredictTree(const Tree& tree, const double* row) {
  int index = 0;
  while (!tree.nodes[static_cast<size_t>(index)].leaf) {
    const Node& node = tree.nodes[static_cast<size_t>(index)];
    index = row[node.feature] <= node.threshold ? node.left : node.right;
  }
  return tree.nodes[static_cast<size_t>(index)].value;
}

RegressionForest::Prediction RegressionForest::Predict(
    const std::vector<double>& row) const {
  Prediction out;
  if (trees_.empty() || row.size() != dim_) return out;
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& tree : trees_) {
    const double v = PredictTree(tree, row.data());
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(trees_.size());
  out.mean = sum / n;
  out.variance = std::max(0.0, sum_sq / n - out.mean * out.mean);
  return out;
}

// ---------------------------------------------------------------------------
// SMAC
// ---------------------------------------------------------------------------

namespace {

/// Random candidates scored by EI per iteration.
constexpr int kEiCandidates = 400;
/// Local-search neighbours explored around the top EI points.
constexpr int kLocalSearchSteps = 8;
/// Challengers raced against the incumbent per iteration.
constexpr int kChallengersPerIter = 3;
/// Every kRandomInterleave-th challenger is drawn uniformly (SMAC's
/// round-robin random interleaving for worst-case coverage).
constexpr int kRandomInterleave = 2;

// Resolved once against the global registry (stable pointers, atomic
// updates), so concurrent SMAC runs in the job-manager pool never contend.
struct SmacMetrics {
  Counter* incumbent_improvements = nullptr;
  Histogram* surrogate_fit_seconds = nullptr;

  static const SmacMetrics& Get() {
    static const SmacMetrics metrics = [] {
      MetricsRegistry& registry = GlobalMetrics();
      SmacMetrics m;
      m.incumbent_improvements = registry.GetCounter(
          "smartml_tuner_incumbent_improvements_total",
          "Times a challenger displaced the incumbent.", {{"tuner", "smac"}});
      m.surrogate_fit_seconds = registry.GetHistogram(
          "smartml_smac_surrogate_fit_seconds",
          "Latency of random-forest surrogate fits.", LatencyBuckets());
      return m;
    }();
    return metrics;
  }
};

/// Expected improvement for minimization.
double ExpectedImprovement(double mean, double variance, double f_best) {
  const double sigma = std::sqrt(variance);
  if (sigma < 1e-12) return std::max(0.0, f_best - mean);
  const double u = (f_best - mean) / sigma;
  return sigma * (u * NormalCdf(u) + NormalPdf(u));
}

/// Bookkeeping for one configuration's fold evaluations.
struct ConfigRecord {
  ParamConfig config;
  std::vector<double> fold_costs;  // Indexed by fold; NaN = unevaluated.
  double cost_sum = 0.0;
  size_t folds_evaluated = 0;

  double MeanCost() const {
    return folds_evaluated > 0
               ? cost_sum / static_cast<double>(folds_evaluated)
               : 1.0;
  }
};

class SmacRun {
 public:
  SmacRun(const ParamSpace& space, TuningObjective* objective,
          const SmacOptions& options)
      : space_(space),
        objective_(objective),
        options_(options),
        rng_(options.seed),
        evaluations_left_(options.max_evaluations) {}

  StatusOr<TunedResult> Run() {
    // Resume from a checkpoint when one exists; otherwise run the seed
    // phase. A restored run continues bit-identically to an uninterrupted
    // one: the objective is deterministic per (config, fold), and the
    // snapshot carries the RNG stream, every evaluated config with its fold
    // costs, the incumbent, and the trajectory with exact doubles.
    const bool resumed = TryRestoreCheckpoint();
    if (!resumed) {
      // Seed configs: KB warm starts, then the default.
      std::vector<ParamConfig> seeds;
      for (const ParamConfig& c : options_.initial_configs) {
        seeds.push_back(space_.Repair(c));
      }
      seeds.push_back(space_.DefaultConfig());

      for (const ParamConfig& config : seeds) {
        if (Exhausted()) break;
        const size_t id = GetOrAddRecord(config);
        // Initial configs get one fold; the incumbent race extends them.
        SMARTML_RETURN_NOT_OK(EvaluateNextFold(id));
        UpdateIncumbent(id);
      }
      if (incumbent_ == kNone && !records_.empty()) incumbent_ = 0;
    }

    // Main loop. The snapshot at the loop top means a crash mid-iteration
    // redoes at most one iteration on resume.
    while (!Exhausted()) {
      CkptPut("smac", options_, [this] { return SerializeState(); });
      // Deepen the incumbent by one fold when possible (intensification).
      if (incumbent_ != kNone &&
          records_[incumbent_].folds_evaluated < objective_->NumFolds()) {
        SMARTML_RETURN_NOT_OK(EvaluateNextFold(incumbent_));
        if (Exhausted()) break;
      }

      const std::vector<ParamConfig> challengers = SelectChallengers();
      for (const ParamConfig& challenger : challengers) {
        if (Exhausted()) break;
        SMARTML_RETURN_NOT_OK(Race(challenger));
      }
    }

    TunedResult result;
    if (incumbent_ != kNone) {
      result.best_config = records_[incumbent_].config;
      result.best_cost = records_[incumbent_].MeanCost();
    } else {
      result.best_config = space_.DefaultConfig();
    }
    result.num_evaluations = static_cast<size_t>(options_.max_evaluations -
                                                 evaluations_left_);
    result.trajectory = std::move(trajectory_);
    result.resumed = resumed;
    return FinishTuning("smac", std::move(result));
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  bool Exhausted() const {
    return evaluations_left_ <= 0 || options_.deadline.Expired();
  }

  static constexpr char kHeader[] = "smac-ckpt 1";

  std::string SerializeState() const {
    std::ostringstream out;
    CkptAppendHeader(kHeader, rng_, evaluations_left_, &out);
    out << "incumbent "
        << (incumbent_ == kNone ? -1 : static_cast<long long>(incumbent_))
        << '\n';
    CkptAppendTrajectory(trajectory_, &out);
    out << "records " << records_.size() << '\n';
    for (const ConfigRecord& record : records_) {
      out << "rec " << record.folds_evaluated;
      for (size_t f = 0; f < record.folds_evaluated; ++f) {
        out << ' ' << CkptDouble(record.fold_costs[f]);
      }
      out << '\n';
      CkptAppendConfig(record.config, &out);
    }
    out << "end\n";
    return out.str();
  }

  /// Restores the run from an existing checkpoint. Any parse failure (or a
  /// corrupt blob caught by the store's crc) leaves the run untouched and
  /// returns false — a fresh start is always safe, resuming from a
  /// half-read state never is, so nothing is committed until the whole blob
  /// parsed.
  bool TryRestoreCheckpoint() {
    const std::optional<std::string> blob = CkptGet("smac", options_);
    if (!blob) return false;
    std::istringstream in(*blob);
    std::array<uint64_t, 4> rng_state{};
    int left = 0;
    long long incumbent = -1;
    std::vector<double> trajectory;
    size_t n_records = 0;
    if (!CkptReadHeader(&in, kHeader, &rng_state, &left) ||
        !CkptExpect(&in, "incumbent") || !(in >> incumbent) ||
        !CkptReadTrajectory(&in, &trajectory) || !CkptExpect(&in, "records") ||
        !(in >> n_records) || n_records > 10000000) {
      return false;
    }
    const size_t num_folds = objective_->NumFolds();
    std::vector<ConfigRecord> records(n_records);
    std::string token;
    for (ConfigRecord& record : records) {
      size_t folds = 0;
      if (!CkptExpect(&in, "rec") || !(in >> folds) || folds > num_folds) {
        return false;
      }
      record.fold_costs.assign(num_folds,
                               std::numeric_limits<double>::quiet_NaN());
      for (size_t f = 0; f < folds; ++f) {
        double& cost = record.fold_costs[f];
        if (!(in >> token) || !CkptParseDouble(token, &cost)) return false;
        record.cost_sum += cost;  // Same accumulation order as the live run.
      }
      record.folds_evaluated = folds;
      if (!CkptReadConfig(&in, &record.config)) return false;
    }
    if (!CkptExpect(&in, "end")) return false;
    if (incumbent >= 0 && static_cast<size_t>(incumbent) >= records.size()) {
      return false;
    }

    rng_.SetState(rng_state);
    evaluations_left_ = left;
    incumbent_ = incumbent < 0 ? kNone : static_cast<size_t>(incumbent);
    trajectory_ = std::move(trajectory);
    records_ = std::move(records);
    index_.clear();
    for (size_t i = 0; i < records_.size(); ++i) {
      index_.emplace(records_[i].config.ToString(), i);
    }
    SMARTML_LOG_INFO << "smac: resumed from checkpoint ("
                     << records_.size() << " configs, "
                     << (options_.max_evaluations - evaluations_left_)
                     << " evaluations done)";
    return true;
  }

  size_t GetOrAddRecord(const ParamConfig& config) {
    const std::string key = config.ToString();
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    ConfigRecord record;
    record.config = config;
    record.fold_costs.assign(objective_->NumFolds(),
                             std::numeric_limits<double>::quiet_NaN());
    records_.push_back(std::move(record));
    index_.emplace(key, records_.size() - 1);
    return records_.size() - 1;
  }

  // Evaluates record `id` on its next unevaluated fold.
  Status EvaluateNextFold(size_t id) {
    if (CancellationRequested()) {
      return Status::Cancelled("smac: run cancelled");
    }
    ConfigRecord& record = records_[id];
    if (record.folds_evaluated >= objective_->NumFolds()) return Status::OK();
    const size_t fold = record.folds_evaluated;
    SMARTML_ASSIGN_OR_RETURN(double cost,
                             objective_->EvaluateFold(record.config, fold));
    record.fold_costs[fold] = cost;
    record.cost_sum += cost;
    ++record.folds_evaluated;
    --evaluations_left_;
    trajectory_.push_back(incumbent_ == kNone
                              ? 1.0
                              : records_[incumbent_].MeanCost());
    return Status::OK();
  }

  void UpdateIncumbent(size_t id) {
    if (incumbent_ == kNone) {
      incumbent_ = id;
      // First establishment counts as an improvement for live streams, so
      // every completed tuning run yields at least one incumbent event.
      EmitIncumbentEvent(records_[id].MeanCost());
    } else if (id != incumbent_ &&
               records_[id].folds_evaluated >=
                   records_[incumbent_].folds_evaluated &&
               records_[id].MeanCost() < records_[incumbent_].MeanCost()) {
      incumbent_ = id;
      SmacMetrics::Get().incumbent_improvements->Increment();
      EmitIncumbentEvent(records_[id].MeanCost());
    }
    if (!trajectory_.empty()) {
      trajectory_.back() = records_[incumbent_].MeanCost();
    }
  }

  // Intensification race of one challenger against the incumbent: evaluate
  // fold by fold; drop the challenger as soon as its mean over the shared
  // folds is worse than the incumbent's mean over the same folds.
  Status Race(const ParamConfig& challenger) {
    const size_t id = GetOrAddRecord(challenger);
    if (incumbent_ == kNone) {
      SMARTML_RETURN_NOT_OK(EvaluateNextFold(id));
      UpdateIncumbent(id);
      return Status::OK();
    }
    if (id == incumbent_) return Status::OK();
    while (!Exhausted()) {
      ConfigRecord& record = records_[id];
      const ConfigRecord& champion = records_[incumbent_];
      if (record.folds_evaluated >= champion.folds_evaluated ||
          record.folds_evaluated >= objective_->NumFolds()) {
        break;
      }
      SMARTML_RETURN_NOT_OK(EvaluateNextFold(id));
      // Compare means over the challenger's evaluated folds.
      double champ_sum = 0.0;
      for (size_t f = 0; f < records_[id].folds_evaluated; ++f) {
        champ_sum += champion.fold_costs[f];
      }
      const double champ_mean =
          champ_sum / static_cast<double>(records_[id].folds_evaluated);
      if (records_[id].MeanCost() > champ_mean + 1e-12) {
        return Status::OK();  // Challenger rejected early.
      }
    }
    UpdateIncumbent(id);
    return Status::OK();
  }

  // Scores every candidate's expected improvement across the run's thread
  // pool. Predict is const and deterministic per candidate, so execution
  // order cannot change any score.
  std::vector<double> ScoreEi(const RegressionForest& forest,
                              const std::vector<ParamConfig>& candidates,
                              double f_best) const {
    std::vector<double> ei(candidates.size(), 0.0);
    (void)ParallelFor(candidates.size(), [&](size_t i) -> Status {
      const RegressionForest::Prediction p =
          forest.Predict(space_.Encode(candidates[i]));
      ei[i] = ExpectedImprovement(p.mean, p.variance, f_best);
      return Status::OK();
    });
    return ei;
  }

  // Builds the surrogate and proposes challengers by EI; interleaves uniform
  // random configs.
  std::vector<ParamConfig> SelectChallengers() {
    std::vector<ParamConfig> out;

    // Fit the surrogate on all evaluated configs.
    std::vector<size_t> evaluated;
    for (size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].folds_evaluated > 0) evaluated.push_back(i);
    }
    RegressionForest forest;
    bool have_model = false;
    if (evaluated.size() >= 4) {
      Matrix x(evaluated.size(), space_.NumParams());
      std::vector<double> y(evaluated.size());
      for (size_t i = 0; i < evaluated.size(); ++i) {
        const std::vector<double> enc =
            space_.Encode(records_[evaluated[i]].config);
        for (size_t j = 0; j < enc.size(); ++j) x(i, j) = enc[j];
        y[i] = records_[evaluated[i]].MeanCost();
      }
      RegressionForest::Options fo;
      fo.seed = rng_.NextU64();
      ScopedTimer fit_timer(SmacMetrics::Get().surrogate_fit_seconds);
      have_model = forest.Fit(x, y, fo).ok();
    }

    const double f_best =
        incumbent_ == kNone ? 1.0 : records_[incumbent_].MeanCost();

    for (int c = 0; c < kChallengersPerIter; ++c) {
      const bool random_pick =
          !have_model || c % kRandomInterleave == kRandomInterleave - 1;
      if (random_pick) {
        out.push_back(space_.Sample(&rng_));
        continue;
      }
      // EI maximization: random candidates + local search around the best.
      // Candidate generation keeps the historical RNG call order (one
      // sample, kEiCandidates samples, the incumbent's neighbor chain —
      // the chain's cursor never depends on scores); scoring runs in
      // parallel and a sequential argmax replays the original strict-`>`
      // tie-breaking, so challengers are identical at any thread count.
      ParamConfig best_candidate = space_.Sample(&rng_);
      double best_ei = -1.0;
      auto argmax = [&](const std::vector<ParamConfig>& candidates,
                        const std::vector<double>& scores) {
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (scores[i] > best_ei) {
            best_ei = scores[i];
            best_candidate = candidates[i];
          }
        }
      };
      std::vector<ParamConfig> candidates;
      for (int i = 0; i < kEiCandidates; ++i) {
        candidates.push_back(space_.Sample(&rng_));
      }
      if (incumbent_ != kNone) {
        ParamConfig cursor = records_[incumbent_].config;
        for (int s = 0; s < kLocalSearchSteps; ++s) {
          cursor = space_.Neighbor(cursor, &rng_);
          candidates.push_back(cursor);
        }
      }
      argmax(candidates, ScoreEi(forest, candidates, f_best));
      // The second local-search chain starts at the EI maximizer found so
      // far, so it is generated (and scored) after the first argmax pass.
      std::vector<ParamConfig> chain;
      ParamConfig cursor = best_candidate;
      for (int s = 0; s < kLocalSearchSteps; ++s) {
        cursor = space_.Neighbor(cursor, &rng_);
        chain.push_back(cursor);
      }
      argmax(chain, ScoreEi(forest, chain, f_best));
      out.push_back(best_candidate);
    }
    return out;
  }

  const ParamSpace& space_;
  TuningObjective* objective_;
  SmacOptions options_;
  Rng rng_;
  int evaluations_left_;
  std::vector<ConfigRecord> records_;
  std::map<std::string, size_t> index_;
  size_t incumbent_ = kNone;
  std::vector<double> trajectory_;
};

}  // namespace

StatusOr<TunedResult> Smac(const ParamSpace& space, TuningObjective* objective,
                           const SmacOptions& options) {
  SMARTML_RETURN_NOT_OK(CheckObjective("smac", objective));
  SmacRun run(space, objective, options);
  return run.Run();
}

}  // namespace smartml
