#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <set>

#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/data/csv.h"
#include "src/data/split.h"
#include "src/interpret/interpret.h"
#include "src/kb/knowledge_base.h"
#include "src/metafeatures/metafeatures.h"
#include "src/ml/registry.h"
#include "src/persist/journal.h"
#include "src/preprocess/preprocess.h"
#include "src/tuning/smac.h"

namespace perfbench {
namespace {

using smartml::Dataset;
using smartml::JsonValue;
using smartml::ParamConfig;

// Algorithms the workloads tune; each gets a fit and a predict metric.
const char* const kAlgorithms[] = {"c50", "j48", "knn", "lda", "naive_bayes",
                                   "random_forest", "rpart"};

// Replay sample sizes: enough calls for microsecond layers to average out,
// few enough that the traced run stays well inside its time limit.
constexpr size_t kMaxParsedUploads = 128;
constexpr size_t kApiCalls = 2000;
constexpr size_t kKbCalls = 1000;
constexpr size_t kKbRecordsAdded = 256;
constexpr size_t kJournalRuns = 64;

// The tuner probe: what a cheap-tuning server runs on each probe upload
// (empty KB, this cold-start roster, no ensemble or importance).
const char* const kProbeRoster[] = {"knn", "naive_bayes", "lda"};
constexpr double kProbeEvals = 600;
constexpr double kProbeBudgetSeconds = 3;

double QueryNumber(const std::string& query, const std::string& key,
                   double fallback) {
  const std::string needle = key + "=";
  for (size_t pos = 0; pos < query.size();) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    if (query.compare(pos, needle.size(), needle) == 0) {
      return std::atof(query.c_str() + pos + needle.size());
    }
    pos = end + 1;
  }
  return fallback;
}

double Delta(const LayerContext& c, const std::string& name) {
  auto after = c.metrics_after.find(name);
  auto before = c.metrics_before.find(name);
  return (after == c.metrics_after.end() ? 0.0 : after->second) -
         (before == c.metrics_before.end() ? 0.0 : before->second);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// The server's preprocessing of an upload: the stratified split, plus
// imputation when cells are missing (SmartML::Run phase 2).
struct Prepared {
  Dataset train;
  Dataset validation;
};

smartml::StatusOr<Prepared> Prepare(const std::string& csv,
                                    const smartml::SmartMlOptions& options) {
  SMARTML_ASSIGN_OR_RETURN(Dataset dataset, smartml::ReadCsvString(csv));
  SMARTML_ASSIGN_OR_RETURN(
      smartml::TrainValidationSplit split,
      smartml::StratifiedSplit(dataset, options.validation_fraction,
                               options.seed));
  Prepared out{std::move(split.train), std::move(split.validation)};
  if (options.auto_impute && dataset.HasMissing()) {
    smartml::PreprocessPipeline pipeline({smartml::PreprocessOp::kImpute},
                                         options.seed);
    SMARTML_RETURN_NOT_OK(pipeline.Fit(out.train));
    SMARTML_ASSIGN_OR_RETURN(out.train, pipeline.Transform(out.train));
    SMARTML_ASSIGN_OR_RETURN(out.validation,
                             pipeline.Transform(out.validation));
  }
  return out;
}

ParamConfig ConfigFromJson(const smartml::ParamSpace& space,
                           const JsonValue& json) {
  ParamConfig config;
  for (const auto& [key, value] : json.object) {
    const smartml::ParamSpec* spec = space.Find(key);
    if (value.is_string()) {
      config.SetChoice(key, value.string);
    } else if (spec != nullptr && spec->type == smartml::ParamType::kInt) {
      config.SetInt(key, std::llround(value.number));
    } else {
      config.SetDouble(key, value.number);
    }
  }
  return config;
}

smartml::NominationOptions ServerNominationOptions(
    const smartml::SmartMlOptions& options) {
  smartml::NominationOptions nomination = options.nomination;
  nomination.max_algorithms = options.max_nominations;
  nomination.max_neighbors = options.kb_neighbors;
  return nomination;
}

// Forwards to the classifier objective inside a span, so a tuner span's
// self time is the tuner's own work.
class TimedObjective : public smartml::TuningObjective {
 public:
  TimedObjective(smartml::TuningObjective* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  size_t NumFolds() const override { return inner_->NumFolds(); }
  smartml::StatusOr<double> EvaluateFold(const ParamConfig& config,
                                         size_t fold) override {
    ScopedSpan span(spans_, "tuning.objective");
    return inner_->EvaluateFold(config, fold);
  }

 private:
  smartml::TuningObjective* inner_;
  SpanRecorder* spans_;
};

// One upload of each distinct input the runs used, with the run that used it
// first (fixed lists: the first pass; the mix: the first kMaxParsedUploads).
std::vector<const RunRecord*> DistinctRuns(const Measurement& m) {
  std::vector<const RunRecord*> out;
  std::set<std::pair<size_t, uint64_t>> seen;
  for (const RunRecord& r : m.runs) {
    if (!r.fetched) continue;
    const auto key = std::make_pair(r.input + (r.fresh ? 1000000 : 0),
                                    r.fresh_key);
    if (!seen.insert(key).second) continue;
    out.push_back(&r);
    if (out.size() == kMaxParsedUploads) break;
  }
  return out;
}

// ml.* and interpret.* replays: refit every candidate's tuned
// configuration and score the winner's permutation importance.
void ReplayLearners(const LayerContext& c,
                    const smartml::SmartMlOptions& options,
                    const std::vector<const RunRecord*>& runs) {
  const bool interpretability =
      QueryNumber(c.spec->run_query, "interpretability", 1.0) != 0.0;
  for (const RunRecord* run : runs) {
    if (run->candidates.empty()) continue;
    auto prepared = Prepare(CsvFor(*c.inputs, *run), options);
    if (!prepared.ok()) {
      c.failures->push_back(run->name + ": replay preprocessing failed: " +
                            prepared.status().ToString());
      continue;
    }
    for (const Candidate& candidate : run->candidates) {
      auto prototype = smartml::CreateClassifier(candidate.algorithm);
      auto space = smartml::SpaceFor(candidate.algorithm);
      if (!prototype.ok() || !space.ok()) continue;
      const ParamConfig config = ConfigFromJson(*space, candidate.config);
      auto model = (*prototype)->Clone();
      smartml::Status fit_status;
      {
        ScopedSpan span(c.spans, "ml.fit/" + candidate.algorithm);
        fit_status = model->Fit(prepared->train, config);
      }
      if (!fit_status.ok()) {
        c.failures->push_back(run->name + ": replay fit of " +
                              candidate.algorithm + " failed");
        continue;
      }
      {
        ScopedSpan span(c.spans, "ml.predict/" + candidate.algorithm);
        (void)model->PredictProba(prepared->validation);
      }
      if (interpretability && candidate.algorithm == run->best_algorithm) {
        ScopedSpan span(c.spans, "interpret.importance");
        (void)smartml::PermutationImportance(*model, prepared->validation,
                                             /*repeats=*/2, options.seed);
      }

    }
  }
}

// tuning.* replays: SMAC per candidate of the cold-start roster, exactly as
// TuneAlgorithm configures it (its share of the evaluation cap and time
// budget, its seed), with the learner timed separately. Learners are cheap
// on these uploads, so the tuner's own work shows, and so does the spin: knn's
// finite space runs out before its cap and SMAC keeps refitting its surrogate
// until knn's time share expires. Each candidate must spend its whole cap
// (knn: at most its cap).
void ReplayTunerProbe(const LayerContext& c,
                      const smartml::SmartMlOptions& options) {
  const uint64_t run_seed = options.seed * 2654435761ULL + 17;
  size_t param_total = 0;
  for (const char* algorithm : kProbeRoster) {
    auto space = smartml::SpaceFor(algorithm);
    param_total += space.ok() ? std::max<size_t>(space->NumParams(), 1) : 1;
  }
  for (const Upload& upload : TunerProbeUploads()) {
    auto prepared = Prepare(upload.csv, options);
    if (!prepared.ok()) {
      c.failures->push_back(upload.name + ": probe preprocessing failed: " +
                            prepared.status().ToString());
      continue;
    }
    for (size_t i = 0; i < std::size(kProbeRoster); ++i) {
      const std::string algorithm = kProbeRoster[i];
      auto prototype = smartml::CreateClassifier(algorithm);
      auto space = smartml::SpaceFor(algorithm);
      if (!prototype.ok() || !space.ok()) continue;
      const double share =
          static_cast<double>(std::max<size_t>(space->NumParams(), 1)) /
          static_cast<double>(param_total);
      const uint64_t seed = run_seed + i * 7919;
      auto objective = smartml::ClassifierObjective::Create(
          **prototype, prepared->train, options.cv_folds, seed,
          options.metric);
      if (!objective.ok()) continue;
      TimedObjective timed(objective->get(), c.spans);
      smartml::SmacOptions smac;
      smac.deadline = smartml::Deadline::After(kProbeBudgetSeconds * share);
      smac.max_evaluations =
          std::max(1, static_cast<int>(std::lround(kProbeEvals * share)));
      smac.seed = seed;
      smartml::StatusOr<smartml::TunedResult> tuned =
          smartml::Status::Internal("not run");
      {
        ScopedSpan span(c.spans, "tuning.smac");
        tuned = smartml::Smac(*space, &timed, smac);
      }
      const size_t cap = static_cast<size_t>(smac.max_evaluations);
      const bool ok = tuned.ok() && (algorithm == "knn"
                                         ? tuned->num_evaluations >= 1 &&
                                               tuned->num_evaluations <= cap
                                         : tuned->num_evaluations == cap);
      if (!ok) {
        c.failures->push_back(
            upload.name + ": probe " + algorithm + " spent " +
            (tuned.ok() ? std::to_string(tuned->num_evaluations) : "no") +
            " fold evaluations, cap " + std::to_string(cap));
      }
    }
  }
}

// pool.tune_speedup_4t: the fixed list once more at four threads (output
// extras off; the tune phase is what is compared). Results must match the
// one-thread runs: evaluation-capped runs are bit-identical at any thread
// count.
double TuneSpeedup4t(const LayerContext& c) {
  const Measurement& m = *c.measurement;
  const size_t n = c.inputs->uploads.size();
  if (m.runs.size() < n) return 0.0;
  WorkloadSpec four = *c.spec;
  four.run_query += "&ensemble=0&interpretability=0";
  const std::string one_thread = "threads=1";
  four.run_query.replace(four.run_query.find(one_thread), one_thread.size(),
                         "threads=4");
  HttpConnection connection(c.port);
  double tune_1t = 0.0, tune_4t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const RunRecord& base = m.runs[i];
    RunRecord run;
    {
      ScopedSpan span(c.spans, "pool.run_4t");
      run = RunOnce(&connection, c.port, four, base.name,
                    c.inputs->uploads[base.input].csv, nullptr);
    }
    bool same = run.fetched && run.candidates.size() == base.candidates.size();
    for (size_t k = 0; same && k < run.candidates.size(); ++k) {
      same = run.candidates[k].algorithm == base.candidates[k].algorithm &&
             run.candidates[k].evaluations == base.candidates[k].evaluations &&
             run.candidates[k].validation_accuracy ==
                 base.candidates[k].validation_accuracy;
    }
    if (!same) {
      c.failures->push_back(base.name +
                            ": four-thread run differs from the one-thread "
                            "run");
    }
    tune_1t += base.tune_s;
    tune_4t += run.tune_s;
  }
  return Ratio(tune_1t, tune_4t);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const char* a : kAlgorithms) {
      out.emplace_back(std::string("ml.fit_ms.") + a, "ms");
    }
    for (const char* a : kAlgorithms) {
      out.emplace_back(std::string("ml.predict_ms.") + a, "ms");
    }
    const std::pair<const char*, const char*> rest[] = {
        {"core.preprocess_s", "s"},
        {"core.select_s", "s"},
        {"core.tune_s", "s"},
        {"core.output_s", "s"},
        {"core.unattributed_s", "s"},
        {"interpret.importance_ms", "ms"},
        {"tuning.overhead_us_per_eval", "us"},
        {"tuning.learner_share", "fraction"},
        {"tuning.surrogate_fit_ms", "ms"},
        {"tuning.evals_per_surrogate_fit", "count"},
        {"api.select_p50_ms", "ms"},
        {"api.parse_us", "us"},
        {"api.handle_select_us", "us"},
        {"api.serialize_us", "us"},
        {"api.queue_wait_ms", "ms"},
        {"api.retained_jobs", "count"},
        {"persist.append_ms", "ms"},
        {"persist.appends_per_run", "count"},
        {"persist.compact_ms", "ms"},
        {"persist.journal_bytes_per_run", "bytes"},
        {"persist.journal_mb", "MB"},
        {"data.csv_parse_ms", "ms"},
        {"metafeatures.extract_ms", "ms"},
        {"metafeatures.cache_hit_ratio", "fraction"},
        {"kb.nominate_us", "us"},
        {"kb.add_record_us", "us"},
        {"pool.tune_speedup_4t", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.runs_per_min", "runs/min"},
        {"trace.run_p50_ms", "ms"},
        {"trace.run_p90_ms", "ms"},
        {"trace.cpu_ms_per_run", "ms"},
        {"host.reference_ms", "ms"},
    };
    for (const auto& [name, unit] : rest) out.emplace_back(name, unit);
    return out;
  }();
  return units;
}

std::map<std::string, double> PerLayerMetrics(const LayerContext& c) {
  const Measurement& m = *c.measurement;
  const smartml::SmartMlOptions options = BaseOptions();
  std::map<std::string, double> out;
  for (const auto& [name, unit] : PerLayerMetricUnits()) out[name] = 0.0;

  // From the timed runs themselves.
  size_t done = 0;
  double phases[4] = {0, 0, 0, 0};
  double unattributed = 0.0;
  for (const RunRecord& r : m.runs) {
    if (!r.fetched) continue;
    ++done;
    phases[0] += r.preprocess_s;
    phases[1] += r.select_s;
    phases[2] += r.tune_s;
    phases[3] += r.output_s;
    unattributed += r.latency_s -
                    (r.preprocess_s + r.select_s + r.tune_s + r.output_s);
  }
  out["core.preprocess_s"] = Ratio(phases[0], done);
  out["core.select_s"] = Ratio(phases[1], done);
  out["core.tune_s"] = Ratio(phases[2], done);
  out["core.output_s"] = Ratio(phases[3], done);
  out["core.unattributed_s"] = Ratio(unattributed, done);
  const Timing timing = WindowTiming(m);
  out["trace.runs_per_min"] = timing.runs_per_min;
  out["trace.run_p50_ms"] = timing.run_p50_ms;
  out["trace.run_p90_ms"] = timing.run_p90_ms;
  out["trace.cpu_ms_per_run"] = c.cpu_ms_per_run;
  out["host.reference_ms"] = c.reference_ms;
  out["api.select_p50_ms"] = timing.select_p50_ms;
  out["trace.overhead_pct"] = Ratio(100.0 * c.loop_trace_overhead_s,
                                    m.elapsed_s);

  // From the server's counters over the timed window.
  out["api.queue_wait_ms"] =
      1000.0 * Ratio(Delta(c, "smartml_job_queue_wait_seconds_sum"),
                     Delta(c, "smartml_job_queue_wait_seconds_count"));
  out["api.retained_jobs"] = c.retained_jobs;
  out["persist.appends_per_run"] =
      Ratio(Delta(c, "smartml_journal_appends_total"), done);
  out["persist.journal_bytes_per_run"] =
      Ratio(Delta(c, "smartml_journal_bytes_written_total"), done);
  out["persist.journal_mb"] = c.journal_bytes / 1e6;
  const double hits = Delta(c, "smartml_metafeature_cache_hits_total");
  out["metafeatures.cache_hit_ratio"] =
      Ratio(hits, hits + Delta(c, "smartml_metafeature_cache_misses_total"));

  // Replays. The KB copies come from the seed KB file, as the server's.
  auto seed_kb = smartml::KnowledgeBase::LoadFromFile(c.kb_path);
  if (!seed_kb.ok()) {
    c.failures->push_back("seed KB: " + seed_kb.status().ToString());
    return out;
  }
  const std::vector<const RunRecord*> runs = DistinctRuns(m);
  for (const RunRecord* run : runs) {
    const std::string csv = CsvFor(*c.inputs, *run);
    {
      ScopedSpan span(c.spans, "data.csv_parse");
      (void)smartml::ReadCsvString(csv);
    }
    auto prepared = Prepare(csv, options);
    if (!prepared.ok()) continue;
    ScopedSpan span(c.spans, "metafeatures.extract");
    (void)smartml::ExtractMetaFeatures(prepared->train);
  }

  std::vector<const RunRecord*> with_mf;
  for (const RunRecord& r : m.runs) {
    if (r.fetched && r.has_meta_features) with_mf.push_back(&r);
  }
  if (!with_mf.empty()) {
    const smartml::NominationOptions nomination =
        ServerNominationOptions(options);
    for (size_t i = 0; i < kKbCalls; ++i) {
      ScopedSpan span(c.spans, "kb.nominate");
      (void)seed_kb->Nominate(with_mf[i % with_mf.size()]->meta_features,
                              nomination);
    }
    smartml::KnowledgeBase grown = *seed_kb;
    for (size_t i = 0; i < kKbRecordsAdded; ++i) {
      const RunRecord& r = *with_mf[i % with_mf.size()];
      smartml::KbRecord record;
      record.dataset_name = "replay-" + std::to_string(i);
      record.meta_features = r.meta_features;
      for (const Candidate& candidate : r.candidates) {
        smartml::KbAlgorithmResult result;
        result.algorithm = candidate.algorithm;
        result.accuracy = candidate.validation_accuracy;
        auto space = smartml::SpaceFor(candidate.algorithm);
        if (space.ok()) {
          result.best_config = ConfigFromJson(*space, candidate.config);
        }
        record.results.push_back(std::move(result));
      }
      ScopedSpan span(c.spans, "kb.add_record");
      grown.AddRecord(record);
    }
  }

  // The API layer on the recorded /v1/select requests, against a service
  // with the server's options and KB (no sockets, no job manager).
  std::vector<const std::string*> requests;
  for (const RunRecord* r : with_mf) {
    if (!r->select_request.empty()) requests.push_back(&r->select_request);
  }
  if (!requests.empty()) {
    smartml::SmartML framework(options);
    if (c.spec->seed_kb) framework.mutable_kb() = *seed_kb;
    smartml::RestService service(&framework);
    for (size_t i = 0; i < kApiCalls; ++i) {
      smartml::StatusOr<smartml::HttpRequest> request =
          smartml::Status::Internal("unparsed");
      {
        ScopedSpan span(c.spans, "api.parse");
        request = smartml::ParseHttpRequest(*requests[i % requests.size()]);
      }
      if (!request.ok()) continue;
      smartml::HttpResponse response;
      {
        ScopedSpan span(c.spans, "api.handle_select");
        response = service.Handle(*request);
      }
      ScopedSpan span(c.spans, "api.serialize");
      (void)smartml::SerializeHttpResponse(response, /*keep_alive=*/true);
    }
  }

  // The journal layer on a scratch journal, with the record sizes the runs
  // produced: admit (the upload plus options), dispatch, terminal (result).
  {
    const std::string dir = c.work_dir + "/replay-journal";
    std::filesystem::remove_all(dir);
    auto journal = smartml::JobJournal::Open(dir);
    if (journal.ok()) {
      size_t n = 0;
      for (const RunRecord& r : m.runs) {
        if (!r.fetched || n++ == kJournalRuns) break;
        const std::string key = "replay-" + std::to_string(n);
        const smartml::JournalRecord records[] = {
            {1, key, std::string(CsvFor(*c.inputs, r).size() + 200, 'a')},
            {2, key, ""},
            {4, key, std::string(r.result_bytes, 't')}};
        for (const smartml::JournalRecord& record : records) {
          ScopedSpan span(c.spans, "persist.append");
          (void)(*journal)->Append(record);
        }
      }
      ScopedSpan span(c.spans, "persist.compact");
      (void)(*journal)->Compact([](smartml::JournalRecord* record) {
        if (record->type == 2) return false;
        if (record->type == 1) record->payload.resize(200);
        return true;
      });
    } else {
      c.failures->push_back("replay journal: " + journal.status().ToString());
    }
    std::filesystem::remove_all(dir);
  }

  ReplayLearners(c, options, runs);
  if (c.spec->tunes) {
    // The metrics registry is process-wide, so the server's counters also
    // count the probe's in-process Smac() calls.
    LayerContext probe = c;
    probe.metrics_before = ScrapeMetrics(c.port);
    ReplayTunerProbe(c, options);
    probe.metrics_after = ScrapeMetrics(c.port);
    out["tuning.surrogate_fit_ms"] =
        1000.0 *
        Ratio(Delta(probe, "smartml_smac_surrogate_fit_seconds_sum"),
              Delta(probe, "smartml_smac_surrogate_fit_seconds_count"));
    out["tuning.evals_per_surrogate_fit"] =
        Ratio(Delta(probe, "smartml_tuner_evaluations_total"),
              Delta(probe, "smartml_smac_surrogate_fit_seconds_count"));
  }
  if (c.spec->name == "table4") out["pool.tune_speedup_4t"] = TuneSpeedup4t(c);

  // Self times and counts from the replay spans.
  const std::map<std::string, SpanStats> stats = c.spans->Stats();
  auto mean_self = [&stats](const std::string& name, double scale) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0
                             : scale * Ratio(it->second.self_seconds,
                                             it->second.count);
  };
  for (const char* a : kAlgorithms) {
    out[std::string("ml.fit_ms.") + a] =
        mean_self(std::string("ml.fit/") + a, 1e3);
    out[std::string("ml.predict_ms.") + a] =
        mean_self(std::string("ml.predict/") + a, 1e3);
  }
  out["interpret.importance_ms"] = mean_self("interpret.importance", 1e3);
  out["data.csv_parse_ms"] = mean_self("data.csv_parse", 1e3);
  out["metafeatures.extract_ms"] = mean_self("metafeatures.extract", 1e3);
  out["kb.nominate_us"] = mean_self("kb.nominate", 1e6);
  out["kb.add_record_us"] = mean_self("kb.add_record", 1e6);
  out["api.parse_us"] = mean_self("api.parse", 1e6);
  out["api.handle_select_us"] = mean_self("api.handle_select", 1e6);
  out["api.serialize_us"] = mean_self("api.serialize", 1e6);
  out["persist.append_ms"] = mean_self("persist.append", 1e3);
  out["persist.compact_ms"] = mean_self("persist.compact", 1e3);
  auto smac = stats.find("tuning.smac");
  auto objective = stats.find("tuning.objective");
  if (smac != stats.end() && objective != stats.end()) {
    out["tuning.overhead_us_per_eval"] =
        1e6 * Ratio(smac->second.self_seconds, objective->second.count);
    out["tuning.learner_share"] = Ratio(objective->second.total_seconds,
                                        smac->second.total_seconds);
  }
  return out;
}

}  // namespace perfbench
