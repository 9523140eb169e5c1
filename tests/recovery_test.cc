// Crash-recovery tests: a JobManager pointed at a journal directory must
// survive being torn down and rebuilt — terminal jobs stay pollable,
// never-started jobs re-queue in submission order, cancellations land
// terminal, idempotency keys keep working — and the tuners must resume from
// their checkpoints bit-identically (SMAC, random search, genetic).
//
// ThreadSanitizer-friendly: one worker at most, and every cross-restart
// assertion waits on JobManager::Wait (or polls NumRunning) rather than
// sleeping for a fixed time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/common/cancellation.h"
#include "src/common/crc32.h"
#include "src/common/strings.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/metafeature_cache.h"
#include "src/obs/metrics.h"
#include "src/persist/checkpoint.h"
#include "src/persist/journal.h"
#include "src/persist/snapshot_io.h"
#include "src/tuning/genetic.h"
#include "src/tuning/random_search.h"
#include "src/tuning/smac.h"

namespace smartml {
namespace {

// --------------------------------------------------------------------------
// Shared fixtures
// --------------------------------------------------------------------------

std::string JournalDir(const std::string& stem) {
  static int counter = 0;
  const std::string dir = testing::TempDir() + "/" + stem + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  // A dead process with the same pid may have left this directory behind.
  std::filesystem::remove_all(dir);
  return dir;
}

Dataset SmallDataset(uint64_t seed = 59) {
  SyntheticSpec spec;
  spec.num_instances = 80;
  spec.class_sep = 2.5;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

JobRequest FastRequest() {
  JobRequest request;
  request.dataset = SmallDataset();
  request.run_options.max_evaluations = 6;
  request.run_options.cv_folds = 2;
  request.run_options.cold_start_algorithms = {"knn"};
  request.run_options.selection_only = true;
  return request;
}

JobManagerOptions Durable(const std::string& dir, int workers) {
  JobManagerOptions options;
  options.num_workers = workers;
  options.journal_dir = dir;
  return options;
}

// A time-boxed tuning run that pins the (single) worker while the test
// submits more jobs: with one worker and FIFO dispatch within a tenant,
// everything submitted after the blocker stays queued until the manager is
// destroyed — which is how this file simulates "crashed with a full queue"
// (the destructor waits for the blocker but leaves queued jobs queued).
JobRequest BlockerRequest(double budget_seconds = 1.5) {
  JobRequest request = FastRequest();
  request.run_options.selection_only = false;
  request.run_options.time_budget_seconds = budget_seconds;
  request.run_options.max_evaluations = 0;
  return request;
}

// Submits the blocker and waits until the worker has dispatched it. Until
// then a manager torn down at the end of its scope would leave the blocker
// queued, and the restart would re-queue it next to the jobs under test.
void StartBlocker(JobManager& jobs) {
  ASSERT_TRUE(jobs.Submit(BlockerRequest()).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (jobs.NumRunning() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the blocker was never dispatched";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The bowl objective from tuning_test: deterministic per (config, fold), so
// checkpoint/resume must reproduce an uninterrupted run exactly.
class BowlObjective : public TuningObjective {
 public:
  explicit BowlObjective(size_t folds = 2) : folds_(folds) {}
  size_t NumFolds() const override { return folds_; }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override {
    const double dx = config.GetDouble("x", 0.0) - 0.3;
    const double dy = config.GetDouble("y", 0.0) - 0.7;
    return dx * dx + dy * dy + 0.001 * static_cast<double>(fold);
  }

 private:
  size_t folds_;
};

// Wraps an objective and flips a CancelToken after `limit` fold
// evaluations, simulating a crash partway through a tuning run.
class CancelAfter : public TuningObjective {
 public:
  CancelAfter(TuningObjective* inner, size_t limit,
              std::shared_ptr<CancelToken> token)
      : inner_(inner), limit_(limit), token_(std::move(token)) {}
  size_t NumFolds() const override { return inner_->NumFolds(); }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override {
    if (count_.fetch_add(1, std::memory_order_relaxed) + 1 >= limit_) {
      token_->Cancel();
    }
    return inner_->EvaluateFold(config, fold);
  }

 private:
  TuningObjective* inner_;
  size_t limit_;
  std::shared_ptr<CancelToken> token_;
  std::atomic<size_t> count_{0};
};

ParamSpace BowlSpace() {
  ParamSpace space;
  space.AddDouble("x", 0.0, 1.0, 0.0);
  space.AddDouble("y", 0.0, 1.0, 0.0);
  return space;
}

// --------------------------------------------------------------------------
// JobManager restart recovery
// --------------------------------------------------------------------------

TEST(RecoveryTest, TerminalJobStaysPollableAfterRestart) {
  const std::string dir = JournalDir("recover_terminal");
  std::string id;
  JobSnapshot before;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    auto submitted = jobs.Submit(FastRequest());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    id = *submitted;
    auto finished = jobs.Wait(id, 60.0);
    ASSERT_TRUE(finished.ok());
    ASSERT_EQ(finished->state, JobState::kDone);
    before = *finished;
  }
  // A fresh manager on the same directory reconstructs the terminal job
  // from the journal without re-running anything.
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  auto after = restarted.Get(id);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->state, JobState::kDone);
  EXPECT_TRUE(after->recovered);
  EXPECT_EQ(after->best_algorithm, before.best_algorithm);
  // The journal stores this through %.12g JSON, so allow last-ulp drift.
  EXPECT_NEAR(after->best_validation_accuracy, before.best_validation_accuracy,
              1e-9);
  EXPECT_EQ(after->result_json, before.result_json);
  EXPECT_EQ(after->dataset_name, before.dataset_name);
  // Every other JobSnapshot field survives too, except the queue and run
  // spans (a replayed job reports zero for both).
  EXPECT_FALSE(before.recovered);
  EXPECT_EQ(after->id, before.id);
  EXPECT_EQ(after->tenant, before.tenant);
  EXPECT_EQ(after->priority, before.priority);
  EXPECT_EQ(after->batch_id, before.batch_id);
  EXPECT_EQ(after->dispatch_sequence, before.dispatch_sequence);
  EXPECT_EQ(after->error.code(), before.error.code());
  EXPECT_EQ(after->error.message(), before.error.message());
  EXPECT_NEAR(after->preprocessing_seconds, before.preprocessing_seconds,
              1e-9);
  EXPECT_NEAR(after->selection_seconds, before.selection_seconds, 1e-9);
  EXPECT_NEAR(after->tuning_seconds, before.tuning_seconds, 1e-9);
  EXPECT_NEAR(after->output_seconds, before.output_seconds, 1e-9);
  EXPECT_NEAR(after->total_seconds, before.total_seconds, 1e-9);
  EXPECT_EQ(after->degraded, before.degraded);
  EXPECT_EQ(after->failed_candidates, before.failed_candidates);
  EXPECT_EQ(after->resumed_from_checkpoint, before.resumed_from_checkpoint);
  // Reconstructed terminal jobs must not be re-executed.
  EXPECT_EQ(restarted.NumQueued(), 0u);
}

TEST(RecoveryTest, QueuedJobsReRunInSubmissionOrderAfterRestart) {
  const std::string dir = JournalDir("recover_queued");
  std::vector<std::string> ids;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));
    for (int i = 0; i < 3; ++i) {
      auto submitted = jobs.Submit(FastRequest());
      ASSERT_TRUE(submitted.ok());
      ids.push_back(*submitted);
    }
    EXPECT_EQ(jobs.NumQueued(), 3u);
  }
  const double recovered_before =
      GlobalMetrics().Value("smartml_runs_recovered_total");
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  for (const std::string& id : ids) {
    auto finished = restarted.Wait(id, 60.0);
    ASSERT_TRUE(finished.ok()) << id << ": " << finished.status().ToString();
    EXPECT_EQ(finished->state, JobState::kDone) << id;
    EXPECT_TRUE(finished->recovered) << id;
  }
  // Re-admission preserved submission order: dispatch sequences ascend
  // with the original ids.
  uint64_t last = 0;
  for (const std::string& id : ids) {
    const auto snapshot = restarted.Get(id);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_GT(snapshot->dispatch_sequence, last) << id;
    last = snapshot->dispatch_sequence;
  }
  // The blocker reached terminal before the "crash", so only the three
  // re-queued jobs count as recovered runs.
  EXPECT_EQ(GlobalMetrics().Value("smartml_runs_recovered_total") -
                recovered_before,
            3.0);
}

TEST(RecoveryTest, CancelledQueuedJobStaysCancelledAfterRestart) {
  const std::string dir = JournalDir("recover_cancelled");
  std::string id;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));
    auto submitted = jobs.Submit(FastRequest());
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
    auto cancelled = jobs.Cancel(id);
    ASSERT_TRUE(cancelled.ok());
    EXPECT_EQ(cancelled->state, JobState::kCancelled);
  }
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  auto after = restarted.Get(id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->state, JobState::kCancelled);
  EXPECT_TRUE(after->recovered);
  EXPECT_EQ(restarted.NumQueued(), 0u);
}

TEST(RecoveryTest, CancelRequestWithoutTerminalLandsCancelled) {
  const std::string dir = JournalDir("recover_cancel_mid");
  std::string id;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));
    auto submitted = jobs.Submit(FastRequest());
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
  }
  // Simulate a crash after the job was dispatched and its cancellation
  // requested, but before the experiment thread reached the terminal
  // transition: append the two lifecycle records by hand.
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        (*journal)
            ->Append({static_cast<uint8_t>(JobJournalRecordType::kDispatch),
                      id, ""})
            .ok());
    ASSERT_TRUE(
        (*journal)
            ->Append(
                {static_cast<uint8_t>(JobJournalRecordType::kCancelRequest),
                 id, ""})
            .ok());
  }
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  auto after = restarted.Get(id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->state, JobState::kCancelled)
      << "a cancel requested before the crash must not resurrect the run";
  EXPECT_TRUE(after->recovered);
  EXPECT_EQ(restarted.NumQueued(), 0u);
}

TEST(RecoveryTest, DispatchedJobReQueuesAndCompletesAfterRestart) {
  const std::string dir = JournalDir("recover_midflight");
  std::string id;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));
    auto submitted = jobs.Submit(FastRequest());
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
  }
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        (*journal)
            ->Append({static_cast<uint8_t>(JobJournalRecordType::kDispatch),
                      id, ""})
            .ok());
  }
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  auto finished = restarted.Wait(id, 60.0);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_EQ(finished->state, JobState::kDone);
  EXPECT_TRUE(finished->recovered);
}

TEST(RecoveryTest, IdempotencyKeySurvivesRestart) {
  const std::string dir = JournalDir("recover_idem");
  std::string id;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    JobRequest request = FastRequest();
    request.idempotency_key = "client-retry-1";
    auto submitted = jobs.Submit(request);
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
    // Same key, same manager: no duplicate.
    JobRequest retry = FastRequest();
    retry.idempotency_key = "client-retry-1";
    auto duplicate = jobs.Submit(std::move(retry));
    ASSERT_TRUE(duplicate.ok());
    EXPECT_EQ(*duplicate, id);
    ASSERT_TRUE(jobs.Wait(id, 60.0).ok());
  }
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  JobRequest retry = FastRequest();
  retry.idempotency_key = "client-retry-1";
  auto duplicate = restarted.Submit(std::move(retry));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(*duplicate, id)
      << "an idempotent retry after restart must return the original id";
  EXPECT_EQ(restarted.List({}).size(), 1u);
}

TEST(RecoveryTest, IdempotencyKeysAreTenantScoped) {
  SmartML framework;
  JobManager jobs(&framework, Durable(JournalDir("recover_idem_tenant"), 0));
  JobRequest a = FastRequest();
  a.tenant = "team-a";
  a.idempotency_key = "same-key";
  JobRequest b = FastRequest();
  b.tenant = "team-b";
  b.idempotency_key = "same-key";
  auto first = jobs.Submit(std::move(a));
  auto second = jobs.Submit(std::move(b));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second)
      << "the same key from different tenants must admit distinct jobs";
}

TEST(RecoveryTest, BatchIdempotencySurvivesRestart) {
  const std::string dir = JournalDir("recover_batch_idem");
  std::string batch_id;
  std::vector<std::string> job_ids;
  // Each batch item also carries its own idempotency key.
  auto batch_requests = [] {
    std::vector<JobRequest> requests;
    for (int i = 0; i < 2; ++i) {
      requests.push_back(FastRequest());
      requests.back().idempotency_key = "nightly-item-" + std::to_string(i);
    }
    return requests;
  };
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    // The blocker holds the one worker: the batch is still queued at the
    // simulated restart, and its jobs re-run only after it.
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));
    auto batch = jobs.SubmitBatch(batch_requests(), "nightly-batch");
    ASSERT_TRUE(batch.ok());
    batch_id = batch->batch_id;
    for (const auto& item : batch->items) {
      ASSERT_TRUE(item.ok());
      job_ids.push_back(*item);
    }
    EXPECT_EQ(jobs.NumQueued(), 2u);
  }
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  auto batch = restarted.SubmitBatch(batch_requests(), "nightly-batch");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->batch_id, batch_id);
  ASSERT_EQ(batch->items.size(), job_ids.size());
  for (size_t i = 0; i < job_ids.size(); ++i) {
    ASSERT_TRUE(batch->items[i].ok());
    EXPECT_EQ(*batch->items[i], job_ids[i]);
  }
  for (size_t i = 0; i < job_ids.size(); ++i) {
    auto finished = restarted.Wait(job_ids[i], 60.0);
    ASSERT_TRUE(finished.ok()) << job_ids[i] << ": "
                               << finished.status().ToString();
    EXPECT_EQ(finished->state, JobState::kDone) << job_ids[i];
    EXPECT_TRUE(finished->recovered) << job_ids[i];
    EXPECT_EQ(finished->batch_id, batch_id) << job_ids[i];
    // The re-queued job kept its own key: a retry gets the original id.
    JobRequest retry = FastRequest();
    retry.idempotency_key = "nightly-item-" + std::to_string(i);
    auto duplicate = restarted.Submit(std::move(retry));
    ASSERT_TRUE(duplicate.ok());
    EXPECT_EQ(*duplicate, job_ids[i]);
  }
  // The blocker and the two recovered jobs, not four.
  EXPECT_EQ(restarted.List({}).size(), 3u);
}

// An upload as a client may send it: values a re-print would change
// ("0.1", "1.50", "-0.250"), CRLF line ends and padded cells.
std::string ClientUpload(int salt) {
  std::string text = "x1, x2 ,colour,label\r\n";
  for (int i = 0; i < 40; ++i) {
    const bool yes = (i + salt) % 3 != 0;
    text += StrFormat("%s0.1,%d.50, %s ,%s\r\n", yes ? "" : "-", i % 7 + salt,
                      i % 4 == 0 ? "red" : "blue", yes ? " yes" : "no ");
    if (i % 5 == 0) text += StrFormat("-0.250,  %d ,red,yes\r\n", i);
  }
  return text;
}

TEST(RecoveryTest, AdmitRecordJournalsTheUploadAsReceived) {
  const std::string dir = JournalDir("admit_upload");
  const std::vector<std::string> uploads = {ClientUpload(0), ClientUpload(1),
                                            ClientUpload(2)};
  std::vector<std::string> ids;
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    // The blocker holds the one worker: the uploads stay queued until the
    // manager is torn down, and re-run only after the restart.
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));
    RestService service(&framework, &jobs);
    HttpRequest run;
    run.method = "POST";
    run.path = "/v1/runs";
    run.query["selection_only"] = "1";
    run.body = uploads[0];
    HttpResponse response = service.Handle(run);
    ASSERT_EQ(response.status, 202) << response.body;
    auto parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok());
    ids.push_back(parsed->Find("id")->string);

    HttpRequest batch = run;
    batch.path = "/v1/batch";
    batch.body = "{\"items\":[{\"csv\":\"" + JsonWriter::Escape(uploads[1]) +
                 "\"},{\"csv\":\"" + JsonWriter::Escape(uploads[2]) + "\"}]}";
    response = service.Handle(batch);
    ASSERT_EQ(response.status, 202) << response.body;
    parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok());
    for (const JsonValue& item : parsed->Find("items")->array) {
      ASSERT_NE(item.Find("id"), nullptr) << response.body;
      ids.push_back(item.Find("id")->string);
    }
    for (const std::string& id : ids) {
      EXPECT_EQ(jobs.Get(id)->state, JobState::kQueued) << id;
    }
  }
  ASSERT_EQ(ids.size(), uploads.size());

  // The kAdmit "csv" member is the body the client sent, byte for byte.
  std::map<std::string, std::string> admits;
  {
    auto journal = JobJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)
                    ->Replay([&](const JournalRecord& record) {
                      if (record.type == static_cast<uint8_t>(
                                             JobJournalRecordType::kAdmit)) {
                        admits[record.key] = record.payload;
                      }
                    })
                    .ok());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(ids[i]);
    const std::string& payload = admits[ids[i]];
    const std::string tail =
        ",\"csv\":\"" + JsonWriter::Escape(uploads[i]) + "\"}";
    ASSERT_GE(payload.size(), tail.size());
    EXPECT_EQ(payload.substr(payload.size() - tail.size()), tail);
    auto admit = ParseJson(payload);
    ASSERT_TRUE(admit.ok());
    EXPECT_EQ(admit->Find("csv")->string, uploads[i]);
  }

  // After a restart every job re-runs on ReadCsvString(body), bit for bit:
  // the meta-feature cache is keyed by a hash over every cell's bits, so a
  // reference run on ReadCsvString(body) must hit what the recovered job
  // stored and miss nothing.
  MetaFeatureCache::Global().Clear();
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  for (const std::string& id : ids) {
    auto finished = restarted.Wait(id, 60.0);
    ASSERT_TRUE(finished.ok()) << finished.status().ToString();
    EXPECT_EQ(finished->state, JobState::kDone) << id;
    EXPECT_TRUE(finished->recovered);
  }
  SmartMlOptions options = framework.options();
  options.selection_only = true;
  for (const std::string& upload : uploads) {
    auto dataset = ReadCsvString(upload);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    const double misses =
        GlobalMetrics().Value("smartml_metafeature_cache_misses_total");
    const double hits =
        GlobalMetrics().Value("smartml_metafeature_cache_hits_total");
    ASSERT_TRUE(framework.Run(*dataset, options).ok());
    EXPECT_EQ(GlobalMetrics().Value("smartml_metafeature_cache_misses_total"),
              misses);
    EXPECT_GT(GlobalMetrics().Value("smartml_metafeature_cache_hits_total"),
              hits);
  }
}

TEST(RecoveryTest, RestartWithoutJournalDirStartsEmpty) {
  SmartML framework;
  JobManager jobs(&framework, JobManagerOptions{});
  EXPECT_EQ(jobs.journal(), nullptr);
  EXPECT_EQ(jobs.checkpoints(), nullptr);
  EXPECT_TRUE(jobs.List({}).empty());
}

// --------------------------------------------------------------------------
// Journal format parity
// --------------------------------------------------------------------------

struct FixtureRecord {
  JobJournalRecordType type;
  const char* key;
  const char* payload;
};

// Payloads copied byte for byte from the (compacted) journal of a server
// built before the job record, its terminal transition and the run-option
// codec were each written once. run-000001 finished, run-000002 failed,
// run-000003 is batch-000001's admitted item whose dataset is gone (an admit
// record without "csv" and no terminal record), run-000004 had a cancel
// requested mid-run and no terminal record, and run-000005 was cancelled
// while queued. batch-000001's second item was rejected at admission.
const FixtureRecord kParentJournal[] = {
    {JobJournalRecordType::kAdmit, "run-000001",
     R"json({"tenant":"default","priority":"normal","batch_id":"","dataset)json"
     R"json(_name":"done_job","idempotency_key":"key-1","options":{"budget)json"
     R"json(":10,"evals":4,"deadline":0,"cv_folds":2,"nominations":3,"sele)json"
     R"json(ction_only":false,"ensemble":false,"interpretability":false,"t)json"
     R"json(hreads":4,"seed":42,"update_kb":true}})json"},
    {JobJournalRecordType::kTerminal, "run-000001",
     R"json({"state":"done","error_code":0,"error":"","best_algorithm":"ra)json"
     R"json(ndom_forest","best_validation_accuracy":1,"preprocessing_secon)json"
     R"json(ds":0.000105711,"selection_seconds":8.4259e-05,"tuning_seconds)json"
     R"json(":0.00117283,"output_seconds":2.8967e-05,"total_seconds":0.001)json"
     R"json(42477,"degraded":false,"failed_candidates":0,"resumed_from_che)json"
     R"json(ckpoint":false,"dispatch_sequence":1,"result_json":"{\"dataset)json"
     R"json(\":\"done_job\",\"used_meta_learning\":false,\"selected_featur)json"
     R"json(es\":[\"f1\",\"f2\",\"f3\"],\"meta_features\":{\"num_instances)json"
     R"json(\":30,\"log_num_instances\":3.40119738166,\"num_features\":3,\)json"
     R"json("log_num_features\":1.09861228867,\"num_classes\":2,\"num_nume)json"
     R"json(ric\":3,\"num_categorical\":0,\"ratio_numeric\":1,\"ratio_cate)json"
     R"json(gorical\":0,\"dimensionality\":0.1,\"missing_ratio\":0,\"class)json"
     R"json(_entropy\":1,\"class_imbalance\":1,\"majority_ratio\":0.5,\"mi)json"
     R"json(nority_ratio\":0.5,\"skewness_mean\":0.0165687806057,\"skewnes)json"
     R"json(s_min\":-0.0510222061261,\"skewness_max\":0.100728547943,\"kur)json"
     R"json(tosis_mean\":-1.4709981135,\"kurtosis_min\":-2,\"kurtosis_max\)json"
     R"json(":-1.12815456754,\"symbols_mean\":0,\"symbols_min\":0,\"symbol)json"
     R"json(s_max\":0,\"symbols_sum\":0},\"nominations\":[],\"algorithms\")json"
     R"json(:[{\"algorithm\":\"random_forest\",\"validation_accuracy\":1,\)json"
     R"json("cv_error\":0,\"evaluations\":1,\"seconds\":0.000920839,\"best)json"
     R"json(_config\":{\"mtry_frac\":0.3,\"nodesize\":1,\"ntree\":100}},{\)json"
     R"json("algorithm\":\"svm\",\"validation_accuracy\":1,\"cv_error\":0,)json"
     R"json(\"evaluations\":2,\"seconds\":0.000942834,\"best_config\":{\"C)json"
     R"json(\":1,\"coef0\":0,\"degree\":3,\"gamma\":0.1,\"kernel\":\"rbf\")json"
     R"json(}},{\"algorithm\":\"naive_bayes\",\"validation_accuracy\":1,\")json"
     R"json(cv_error\":0,\"evaluations\":1,\"seconds\":0.000122522,\"best_)json"
     R"json(config\":{\"adjust\":1,\"laplace\":1}}],\"degraded\":false,\"f)json"
     R"json(ailed_candidates\":[],\"best_algorithm\":\"random_forest\",\"b)json"
     R"json(est_config\":{\"mtry_frac\":0.3,\"nodesize\":1,\"ntree\":100},)json"
     R"json(\"best_validation_accuracy\":1,\"ensemble\":null,\"importances)json"
     R"json(\":[],\"trace\":[{\"name\":\"request/req-000000000001\",\"star)json"
     R"json(t_seconds\":4.453e-06,\"duration_seconds\":9.4e-07,\"children\)json"
     R"json(":[]},{\"name\":\"preprocess\",\"start_seconds\":1.6717e-05,\")json"
     R"json(duration_seconds\":9.6412e-05,\"children\":[{\"name\":\"metafe)json"
     R"json(atures\",\"start_seconds\":5.1549e-05,\"duration_seconds\":6.1)json"
     R"json(27e-05,\"children\":[]}]},{\"name\":\"select\",\"start_seconds)json"
     R"json(\":0.000140058,\"duration_seconds\":8.2566e-05,\"children\":[])json"
     R"json(},{\"name\":\"tune\",\"start_seconds\":0.000257018,\"duration_)json"
     R"json(seconds\":0.001138668,\"children\":[{\"name\":\"tune/random_fo)json"
     R"json(rest\",\"start_seconds\":0.000272207,\"duration_seconds\":0.00)json"
     R"json(0928377,\"children\":[{\"name\":\"tune/smac\",\"start_seconds\)json"
     R"json(":0.000300992,\"duration_seconds\":0.000473311,\"children\":[])json"
     R"json(},{\"name\":\"tune/refit\",\"start_seconds\":0.000775258,\"dur)json"
     R"json(ation_seconds\":0.000418157,\"children\":[]}]},{\"name\":\"tun)json"
     R"json(e/svm\",\"start_seconds\":0.000289017,\"duration_seconds\":0.0)json"
     R"json(00951166,\"children\":[{\"name\":\"tune/smac\",\"start_seconds)json"
     R"json(\":0.000328343,\"duration_seconds\":0.000865283,\"children\":[)json"
     R"json(]},{\"name\":\"tune/refit\",\"start_seconds\":0.00119516,\"dur)json"
     R"json(ation_seconds\":3.7707e-05,\"children\":[]}]},{\"name\":\"tune)json"
     R"json(/naive_bayes\",\"start_seconds\":0.000293067,\"duration_second)json"
     R"json(s\":0.000128057,\"children\":[{\"name\":\"tune/smac\",\"start_)json"
     R"json(seconds\":0.000318023,\"duration_seconds\":9.0242e-05,\"childr)json"
     R"json(en\":[]},{\"name\":\"tune/refit\",\"start_seconds\":0.00040944)json"
     R"json(,\"duration_seconds\":6.725e-06,\"children\":[]}]}]},{\"name\")json"
     R"json(:\"output\",\"start_seconds\":0.001398154,\"duration_seconds\")json"
     R"json(:2.7006e-05,\"children\":[{\"name\":\"kb_update\",\"start_seco)json"
     R"json(nds\":0.001412465,\"duration_seconds\":1.2602e-05,\"children\")json"
     R"json(:[]}]}],\"total_seconds\":0.00142477}"})json"},
    {JobJournalRecordType::kAdmit, "run-000002",
     R"json({"tenant":"default","priority":"normal","batch_id":"","dataset)json"
     R"json(_name":"failed_job","idempotency_key":"","options":{"budget":1)json"
     R"json(0,"evals":4,"deadline":0,"cv_folds":2,"nominations":3,"selecti)json"
     R"json(on_only":false,"ensemble":true,"interpretability":true,"thread)json"
     R"json(s":4,"seed":42,"update_kb":true}})json"},
    {JobJournalRecordType::kTerminal, "run-000002",
     R"json({"state":"failed","error_code":1,"error":"SmartML: need at lea)json"
     R"json(st 10 rows","best_algorithm":"","best_validation_accuracy":0,")json"
     R"json(preprocessing_seconds":0,"selection_seconds":0,"tuning_seconds)json"
     R"json(":0,"output_seconds":0,"total_seconds":0,"degraded":false,"fai)json"
     R"json(led_candidates":0,"resumed_from_checkpoint":false,"dispatch_se)json"
     R"json(quence":2,"result_json":""})json"},
    {JobJournalRecordType::kAdmit, "run-000003",
     R"json({"tenant":"batcher","priority":"batch","batch_id":"batch-00000)json"
     R"json(1","dataset_name":"b0","idempotency_key":"","options":{"budget)json"
     R"json(":10,"evals":4,"deadline":0,"cv_folds":2,"nominations":3,"sele)json"
     R"json(ction_only":true,"ensemble":true,"interpretability":true,"thre)json"
     R"json(ads":4,"seed":42,"update_kb":true}})json"},
    {JobJournalRecordType::kBatch, "batch-000001",
     R"json({"tenant":"batcher","idempotency_key":"","items":[{"job_id":"r)json"
     R"json(un-000003","error":""},{"job_id":"","error":"ResourceExhausted)json"
     R"json(: tenant 'batcher' at quota (1 pending, quota 1)"}]})json"},
    {JobJournalRecordType::kAdmit, "run-000004",
     R"json({"tenant":"default","priority":"normal","batch_id":"","dataset)json"
     R"json(_name":"blocker","idempotency_key":"","options":{"budget":30,")json"
     R"json(evals":0,"deadline":0,"cv_folds":2,"nominations":3,"selection_)json"
     R"json(only":false,"ensemble":true,"interpretability":true,"threads":)json"
     R"json(4,"seed":42,"update_kb":true}})json"},
    {JobJournalRecordType::kDispatch, "run-000004", ""},
    {JobJournalRecordType::kAdmit, "run-000005",
     R"json({"tenant":"q","priority":"interactive","batch_id":"","dataset_)json"
     R"json(name":"queued_job","idempotency_key":"","options":{"budget":10)json"
     R"json(,"evals":4,"deadline":0,"cv_folds":2,"nominations":3,"selectio)json"
     R"json(n_only":false,"ensemble":true,"interpretability":true,"threads)json"
     R"json(":4,"seed":42,"update_kb":true}})json"},
    {JobJournalRecordType::kTerminal, "run-000005",
     R"json({"state":"cancelled","error_code":9,"error":"run cancelled","b)json"
     R"json(est_algorithm":"","best_validation_accuracy":0,"preprocessing_)json"
     R"json(seconds":0,"selection_seconds":0,"tuning_seconds":0,"output_se)json"
     R"json(conds":0,"total_seconds":0,"degraded":false,"failed_candidates)json"
     R"json(":0,"resumed_from_checkpoint":false,"dispatch_sequence":0,"res)json"
     R"json(ult_json":""})json"},
    {JobJournalRecordType::kCancelRequest, "run-000004", ""},
};

std::string WriteParentJournal() {
  const std::string dir = JournalDir("parent_journal");
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/journal-000001.wal", std::ios::binary);
  for (const FixtureRecord& record : kParentJournal) {
    out << EncodeJournalFrame(
        {static_cast<uint8_t>(record.type), record.key, record.payload});
  }
  return dir;
}

// A JSON value with object members sorted by key, so two documents that
// differ only in member order compare equal.
std::string Canonical(const JsonValue& value) {
  JsonWriter w;
  std::function<void(const JsonValue&)> write = [&](const JsonValue& v) {
    switch (v.kind) {
      case JsonValue::Kind::kNull:
        w.Null();
        break;
      case JsonValue::Kind::kBool:
        w.Bool(v.boolean);
        break;
      case JsonValue::Kind::kNumber:
        w.Number(v.number);
        break;
      case JsonValue::Kind::kString:
        w.String(v.string);
        break;
      case JsonValue::Kind::kArray:
        w.BeginArray();
        for (const JsonValue& item : v.array) write(item);
        w.EndArray();
        break;
      case JsonValue::Kind::kObject: {
        std::map<std::string, const JsonValue*> sorted;
        for (const auto& [key, member] : v.object) sorted[key] = &member;
        w.BeginObject();
        for (const auto& [key, member] : sorted) {
          w.Key(key);
          write(*member);
        }
        w.EndObject();
        break;
      }
    }
  };
  write(value);
  return std::move(w).Take();
}

TEST(RecoveryTest, ParentJournalReplaysToRecordedBodies) {
  const std::string dir = WriteParentJournal();
  SmartML framework;
  JobManager jobs(&framework, Durable(dir, 1));
  RestService service(&framework, &jobs);
  auto get = [&](const std::string& path) {
    HttpRequest request;
    request.method = "GET";
    request.path = path;
    const HttpResponse response = service.Handle(request);
    EXPECT_EQ(response.status, 200) << path << ": " << response.body;
    return response.body;
  };
  // Every replayed job is terminal: nothing re-runs.
  EXPECT_EQ(jobs.NumQueued(), 0u);

  // Replayed jobs report zero queue and run time, so every body below is
  // deterministic. Each was recorded from the same fixture at the same
  // parent build.
  auto terminal = ParseJson(kParentJournal[1].payload);
  ASSERT_TRUE(terminal.ok());
  const std::string done_head =
    R"json({"id":"run-000001","state":"done","dataset":"done_job","tena)json"
    R"json(nt":"default","priority":"normal","dispatch_sequence":1,"rec)json"
    R"json(overed":true,"events":"/v1/runs/run-000001/events","queue_se)json"
    R"json(conds":0,"run_seconds":0,"best_algorithm":"random_forest","b)json"
    R"json(est_validation_accuracy":1,"degraded":false,"failed_candidat)json"
    R"json(es":0,"phase_seconds":{"preprocessing":0.000105711,"selectio)json"
    R"json(n":8.4259e-05,"tuning":0.00117283,"output":2.8967e-05,"total)json"
    R"json(":0.00142477},"result":)json";
  EXPECT_EQ(get("/v1/runs/run-000001"),
            done_head + terminal->Find("result_json")->string + "}");
  const std::pair<const char*, const char*> kBodies[] = {
      {"/v1/runs/run-000002",
      R"json({"id":"run-000002","state":"failed","dataset":"failed_job",")json"
      R"json(tenant":"default","priority":"normal","dispatch_sequence":2,)json"
      R"json("recovered":true,"events":"/v1/runs/run-000002/events","queu)json"
      R"json(e_seconds":0,"run_seconds":0,"error":{"code":"invalid_argume)json"
      R"json(nt","message":"SmartML: need at least 10 rows"}})json"},
      {"/v1/runs/run-000003",
      R"json({"id":"run-000003","state":"failed","dataset":"b0","tenant":)json"
      R"json("batcher","priority":"batch","batch_id":"batch-000001","reco)json"
      R"json(vered":true,"events":"/v1/runs/run-000003/events","queue_sec)json"
      R"json(onds":0,"run_seconds":0,"error":{"code":"internal","message")json"
      R"json(:"dataset lost from journal: NotFound: admit record has no d)json"
      R"json(ataset"}})json"},
      {"/v1/runs/run-000004",
      R"json({"id":"run-000004","state":"cancelled","dataset":"blocker",")json"
      R"json(tenant":"default","priority":"normal","recovered":true,"even)json"
      R"json(ts":"/v1/runs/run-000004/events","queue_seconds":0,"run_seco)json"
      R"json(nds":0,"error":{"code":"cancelled","message":"cancelled befo)json"
      R"json(re restart"}})json"},
      {"/v1/runs/run-000005",
      R"json({"id":"run-000005","state":"cancelled","dataset":"queued_job)json"
      R"json(","tenant":"q","priority":"interactive","recovered":true,"ev)json"
      R"json(ents":"/v1/runs/run-000005/events","queue_seconds":0,"run_se)json"
      R"json(conds":0,"error":{"code":"cancelled","message":"run cancelle)json"
      R"json(d"}})json"},
      {"/v1/batches/batch-000001",
      R"json({"id":"batch-000001","tenant":"batcher","items":[{"index":0,)json"
      R"json("id":"run-000003","state":"failed"},{"index":1,"error":"Reso)json"
      R"json(urceExhausted: tenant 'batcher' at quota (1 pending, quota 1)json"
      R"json()"}]})json"},
  };
  for (const auto& [path, body] : kBodies) EXPECT_EQ(get(path), body);

  // GET /v1/runs entries keep their members and values; their member order
  // follows GET /v1/runs/{id}.
  auto listed = ParseJson(get("/v1/runs"));
  auto recorded = ParseJson(
      R"json({"runs":[{"id":"run-000001","state":"done","tenant":"default)json"
      R"json(","priority":"normal","dataset":"done_job","dispatch_sequenc)json"
      R"json(e":1,"queue_seconds":0,"run_seconds":0,"best_algorithm":"ran)json"
      R"json(dom_forest","best_validation_accuracy":1},{"id":"run-000002")json"
      R"json(,"state":"failed","tenant":"default","priority":"normal","da)json"
      R"json(taset":"failed_job","dispatch_sequence":2,"queue_seconds":0,)json"
      R"json("run_seconds":0},{"id":"run-000003","state":"failed","tenant)json"
      R"json(":"batcher","priority":"batch","dataset":"b0","batch_id":"ba)json"
      R"json(tch-000001","queue_seconds":0,"run_seconds":0},{"id":"run-00)json"
      R"json(0004","state":"cancelled","tenant":"default","priority":"nor)json"
      R"json(mal","dataset":"blocker","queue_seconds":0,"run_seconds":0},)json"
      R"json({"id":"run-000005","state":"cancelled","tenant":"q","priorit)json"
      R"json(y":"interactive","dataset":"queued_job","queue_seconds":0,"r)json"
      R"json(un_seconds":0}]})json");
  ASSERT_TRUE(listed.ok());
  ASSERT_TRUE(recorded.ok());
  EXPECT_EQ(Canonical(*listed), Canonical(*recorded));
}

// The member order of the kAdmit, kTerminal and kBatch payloads a live job
// writes, as recorded before the one-field-list codec.
// The size and CRC-32 of a byte string, which pin it without spelling it.
std::pair<size_t, uint32_t> Fingerprint(std::string_view bytes) {
  return {bytes.size(), Crc32(bytes)};
}

// Journal bytes as the build before frames were assembled in one buffer
// wrote them: the kAdmit frame of a fixed upload, and the fixture segment
// that ParentJournalReplaysToRecordedBodies replays.
TEST(RecoveryTest, JournalFrameBytesAreUnchanged) {
  const std::string dir = JournalDir("admit_frame");
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    ASSERT_NO_FATAL_FAILURE(StartBlocker(jobs));  // run-000001
    RestService service(&framework, &jobs);
    HttpRequest run;
    run.method = "POST";
    run.path = "/v1/runs";
    run.query["selection_only"] = "1";
    run.body = ClientUpload(0);
    const HttpResponse response = service.Handle(run);
    ASSERT_EQ(response.status, 202) << response.body;
  }
  std::string admit_frame;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".wal") continue;
    auto bytes = ReadFileBytes(entry.path().string());
    ASSERT_TRUE(bytes.ok());
    ByteReader frames(*bytes);
    uint32_t body_len = 0;
    uint32_t crc = 0;
    std::string_view body;
    for (size_t start = 0; frames.ReadU32(&body_len) &&
                           frames.ReadU32(&crc) &&
                           frames.ReadBytes(body_len, &body);
         start = frames.position()) {
      ByteReader fields(body);
      uint8_t type = 0;
      std::string_view key;
      ASSERT_TRUE(fields.ReadU8(&type) && fields.ReadLengthPrefixed(&key));
      if (type == static_cast<uint8_t>(JobJournalRecordType::kAdmit) &&
          key == "run-000002") {
        admit_frame = bytes->substr(start, frames.position() - start);
      }
    }
  }
  EXPECT_EQ(Fingerprint(admit_frame),
            std::make_pair(size_t{1477}, uint32_t{0xe82bf49e}));

  auto parent = ReadFileBytes(WriteParentJournal() + "/journal-000001.wal");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(Fingerprint(*parent),
            std::make_pair(size_t{6072}, uint32_t{0xd280c1ad}));
}

TEST(RecoveryTest, JournalPayloadKeyOrderIsUnchanged) {
  const std::string dir = JournalDir("key_order");
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 1));
    std::vector<JobRequest> requests;
    requests.push_back(FastRequest());
    auto batch = jobs.SubmitBatch(std::move(requests), "batch-key");
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(batch->items[0].ok());
    ASSERT_TRUE(jobs.Wait(*batch->items[0], 60.0).ok());
  }
  auto keys = [](const JsonValue& object) {
    std::vector<std::string> out;
    for (const auto& [key, member] : object.object) out.push_back(key);
    return out;
  };
  std::map<JobJournalRecordType, JsonValue> payloads;
  auto journal = JobJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)
                  ->Replay([&](const JournalRecord& record) {
                    auto parsed = ParseJson(record.payload);
                    if (parsed.ok()) {
                      payloads[static_cast<JobJournalRecordType>(
                          record.type)] = *std::move(parsed);
                    }
                  })
                  .ok());
  const JsonValue& admit = payloads[JobJournalRecordType::kAdmit];
  EXPECT_EQ(keys(admit),
            (std::vector<std::string>{"tenant", "priority", "batch_id",
                                      "dataset_name", "idempotency_key",
                                      "options", "csv"}));
  ASSERT_NE(admit.Find("options"), nullptr);
  EXPECT_EQ(keys(*admit.Find("options")),
            (std::vector<std::string>{
                "budget", "evals", "deadline", "cv_folds", "nominations",
                "selection_only", "ensemble", "interpretability", "threads",
                "seed", "update_kb"}));
  EXPECT_EQ(keys(payloads[JobJournalRecordType::kTerminal]),
            (std::vector<std::string>{
                "state", "error_code", "error", "best_algorithm",
                "best_validation_accuracy", "preprocessing_seconds",
                "selection_seconds", "tuning_seconds", "output_seconds",
                "total_seconds", "degraded", "failed_candidates",
                "resumed_from_checkpoint", "dispatch_sequence",
                "result_json"}));
  const JsonValue& batch = payloads[JobJournalRecordType::kBatch];
  EXPECT_EQ(keys(batch), (std::vector<std::string>{"tenant", "idempotency_key",
                                                   "items"}));
  ASSERT_NE(batch.Find("items"), nullptr);
  ASSERT_EQ(batch.Find("items")->array.size(), 1u);
  EXPECT_EQ(keys(batch.Find("items")->array[0]),
            (std::vector<std::string>{"job_id", "error"}));
}

// --------------------------------------------------------------------------
// Tuner checkpoint/resume
// --------------------------------------------------------------------------

TEST(RecoveryTest, SmacResumeIsBitIdentical) {
  const ParamSpace space = BowlSpace();
  SmacOptions base;
  base.max_evaluations = 40;
  base.seed = 7;

  // Reference: one uninterrupted run.
  BowlObjective reference_objective;
  auto reference = Smac(space, &reference_objective, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Interrupted run: cancel partway through, checkpointing as we go.
  MemoryCheckpointStore store;
  {
    BowlObjective objective;
    auto cancel = std::make_shared<CancelToken>();
    CancelAfter crashing(&objective, 17, cancel);
    SmacOptions options = base;
    ScopedRunContext cancel_scope({.cancel = cancel.get()});
    options.checkpoint = &store;
    options.checkpoint_key = "run-1/smac/bowl";
    auto interrupted = Smac(space, &crashing, options);
    ASSERT_FALSE(interrupted.ok()) << "the cancel should have aborted SMAC";
    ASSERT_GT(store.Size(), 0u) << "no checkpoint was written before cancel";
  }

  // Resumed run: fresh objective and token, same store and key.
  BowlObjective objective;
  SmacOptions options = base;
  options.checkpoint = &store;
  options.checkpoint_key = "run-1/smac/bowl";
  auto resumed = Smac(space, &objective, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->best_config.ToString(), reference->best_config.ToString());
  EXPECT_EQ(resumed->best_cost, reference->best_cost);
  EXPECT_EQ(resumed->num_evaluations, reference->num_evaluations);
  ASSERT_EQ(resumed->trajectory.size(), reference->trajectory.size());
  for (size_t i = 0; i < resumed->trajectory.size(); ++i) {
    EXPECT_EQ(resumed->trajectory[i], reference->trajectory[i])
        << "trajectory diverged at evaluation " << i;
  }
}

TEST(RecoveryTest, RandomSearchResumeMatchesUninterruptedRun) {
  const ParamSpace space = BowlSpace();
  TunerOptions base;
  base.max_evaluations = 30;
  base.seed = 11;

  BowlObjective reference_objective;
  auto reference = RandomSearch(space, &reference_objective, base);
  ASSERT_TRUE(reference.ok());

  MemoryCheckpointStore store;
  {
    BowlObjective objective;
    auto cancel = std::make_shared<CancelToken>();
    CancelAfter crashing(&objective, 13, cancel);
    TunerOptions options = base;
    ScopedRunContext cancel_scope({.cancel = cancel.get()});
    options.checkpoint = &store;
    options.checkpoint_key = "run-2/random/bowl";
    auto interrupted = RandomSearch(space, &crashing, options);
    ASSERT_FALSE(interrupted.ok());
  }

  BowlObjective objective;
  TunerOptions options = base;
  options.checkpoint = &store;
  options.checkpoint_key = "run-2/random/bowl";
  auto resumed = RandomSearch(space, &objective, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->best_config.ToString(), reference->best_config.ToString());
  EXPECT_EQ(resumed->best_cost, reference->best_cost);
  EXPECT_EQ(resumed->num_evaluations, reference->num_evaluations);
  ASSERT_EQ(resumed->trajectory.size(), reference->trajectory.size());
  for (size_t i = 0; i < resumed->trajectory.size(); ++i) {
    EXPECT_EQ(resumed->trajectory[i], reference->trajectory[i])
        << "trajectory diverged at evaluation " << i;
  }
}

TEST(RecoveryTest, GeneticResumeMatchesUninterruptedRun) {
  const ParamSpace space = BowlSpace();
  GeneticOptions base;
  base.max_evaluations = 48;
  base.seed = 13;
  base.population_size = 8;

  BowlObjective reference_objective;
  auto reference = GeneticSearch(space, &reference_objective, base);
  ASSERT_TRUE(reference.ok());

  MemoryCheckpointStore store;
  {
    BowlObjective objective;
    auto cancel = std::make_shared<CancelToken>();
    CancelAfter crashing(&objective, 21, cancel);
    GeneticOptions options = base;
    ScopedRunContext cancel_scope({.cancel = cancel.get()});
    options.checkpoint = &store;
    options.checkpoint_key = "run-3/ga/bowl";
    auto interrupted = GeneticSearch(space, &crashing, options);
    ASSERT_FALSE(interrupted.ok());
  }

  BowlObjective objective;
  GeneticOptions options = base;
  options.checkpoint = &store;
  options.checkpoint_key = "run-3/ga/bowl";
  auto resumed = GeneticSearch(space, &objective, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->best_config.ToString(), reference->best_config.ToString());
  EXPECT_EQ(resumed->best_cost, reference->best_cost);
  EXPECT_EQ(resumed->num_evaluations, reference->num_evaluations);
  ASSERT_EQ(resumed->trajectory.size(), reference->trajectory.size());
  for (size_t i = 0; i < resumed->trajectory.size(); ++i) {
    EXPECT_EQ(resumed->trajectory[i], reference->trajectory[i])
        << "trajectory diverged at evaluation " << i;
  }
}

TEST(RecoveryTest, CorruptCheckpointFallsBackToFreshRun) {
  const ParamSpace space = BowlSpace();
  MemoryCheckpointStore store;
  ASSERT_TRUE(store.Put("run-4/smac/bowl", "not a checkpoint at all").ok());
  BowlObjective objective;
  SmacOptions options;
  options.max_evaluations = 20;
  options.seed = 3;
  options.checkpoint = &store;
  options.checkpoint_key = "run-4/smac/bowl";
  auto result = Smac(space, &objective, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->resumed)
      << "an unparseable checkpoint must be treated as absent";
  EXPECT_GT(result->num_evaluations, 0u);
}

// A store whose every Put and Get fails: checkpointing must degrade to an
// unsaved run, never to a failed one.
class BrokenCheckpointStore : public CheckpointSink {
 public:
  Status Put(const std::string&, const std::string&) override {
    return Status::IOError("disk full");
  }
  StatusOr<std::string> Get(const std::string&) override {
    return Status::IOError("unreadable");
  }
  Status Remove(const std::string&) override { return Status::OK(); }
  Status RemovePrefix(const std::string&) override { return Status::OK(); }
};

template <typename Options, typename Tuner>
void ExpectBrokenStoreIsHarmless(Options options, Tuner tuner) {
  BowlObjective reference_objective;
  auto reference = tuner(BowlSpace(), &reference_objective, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  BrokenCheckpointStore store;
  options.checkpoint = &store;
  options.checkpoint_key = "run-5/bowl";
  BowlObjective objective;
  auto result = tuner(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->resumed);
  EXPECT_EQ(result->best_config.ToString(), reference->best_config.ToString());
  EXPECT_EQ(result->best_cost, reference->best_cost);
  EXPECT_EQ(result->num_evaluations, reference->num_evaluations);
  EXPECT_EQ(result->trajectory, reference->trajectory);
}

TEST(RecoveryTest, FailingCheckpointStoreLeavesResultsUnchanged) {
  SmacOptions smac;
  smac.max_evaluations = 20;
  ExpectBrokenStoreIsHarmless(smac, Smac);
  TunerOptions search;
  search.max_evaluations = 20;
  ExpectBrokenStoreIsHarmless(search, RandomSearch);
  GeneticOptions genetic;
  genetic.max_evaluations = 20;
  genetic.population_size = 4;
  ExpectBrokenStoreIsHarmless(genetic, GeneticSearch);
}

TEST(RecoveryTest, SmacCheckpointFormatIsUnchanged) {
  // SMAC's blob is what production writes to disk: an in-flight durable
  // run must resume across upgrades, so the bytes at a fixed interruption
  // point are pinned (FNV-1a of the blob, recorded before the tuners shared
  // one checkpoint codec).
  MemoryCheckpointStore store;
  BowlObjective bowl(3);
  auto cancel = std::make_shared<CancelToken>();
  CancelAfter crashing(&bowl, 17, cancel);
  SmacOptions options;
  options.max_evaluations = 40;
  options.seed = 7;
  ScopedRunContext cancel_scope({.cancel = cancel.get()});
  options.checkpoint = &store;
  options.checkpoint_key = "run-6/smac/bowl";
  ASSERT_FALSE(Smac(BowlSpace(), &crashing, options).ok());
  auto blob = store.Get("run-6/smac/bowl");
  ASSERT_TRUE(blob.ok());
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : *blob) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  EXPECT_EQ(blob->size(), 1440u);
  EXPECT_EQ(hash, 0x7925e1964f27c8b9ull) << *blob;
  EXPECT_EQ(blob->rfind("smac-ckpt 1\nrng ", 0), 0u);
}

}  // namespace
}  // namespace smartml
