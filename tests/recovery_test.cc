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
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/job_manager.h"
#include "src/common/cancellation.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/persist/checkpoint.h"
#include "src/persist/journal.h"
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
  MetricsRegistry registry;
  std::string id;
  JobSnapshot before;
  {
    SmartML framework;
    auto options = Durable(dir, 1);
    options.metrics = &registry;
    JobManager jobs(&framework, options);
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
  MetricsRegistry registry2;
  auto options = Durable(dir, 1);
  options.metrics = &registry2;
  JobManager restarted(&framework, options);
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
  MetricsRegistry registry;
  SmartML framework;
  auto options = Durable(dir, 1);
  options.metrics = &registry;
  JobManager restarted(&framework, options);
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
  const Counter* recovered_counter = registry.GetCounter(
      "smartml_runs_recovered_total", "Jobs recovered from the journal");
  EXPECT_EQ(recovered_counter->Value(), 3u);
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
  {
    SmartML framework;
    JobManager jobs(&framework, Durable(dir, 0));
    std::vector<JobRequest> requests;
    requests.push_back(FastRequest());
    requests.push_back(FastRequest());
    auto batch = jobs.SubmitBatch(std::move(requests), "nightly-batch");
    ASSERT_TRUE(batch.ok());
    batch_id = batch->batch_id;
    for (const auto& item : batch->items) {
      ASSERT_TRUE(item.ok());
      job_ids.push_back(*item);
    }
  }
  SmartML framework;
  JobManager restarted(&framework, Durable(dir, 1));
  std::vector<JobRequest> retry;
  retry.push_back(FastRequest());
  retry.push_back(FastRequest());
  auto batch = restarted.SubmitBatch(std::move(retry), "nightly-batch");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->batch_id, batch_id);
  ASSERT_EQ(batch->items.size(), job_ids.size());
  for (size_t i = 0; i < job_ids.size(); ++i) {
    ASSERT_TRUE(batch->items[i].ok());
    EXPECT_EQ(*batch->items[i], job_ids[i]);
  }
  // The two recovered jobs, not four.
  EXPECT_EQ(restarted.List({}).size(), 2u);
}

TEST(RecoveryTest, RestartWithoutJournalDirStartsEmpty) {
  SmartML framework;
  JobManager jobs(&framework, JobManagerOptions{});
  EXPECT_EQ(jobs.journal(), nullptr);
  EXPECT_EQ(jobs.checkpoints(), nullptr);
  EXPECT_TRUE(jobs.List({}).empty());
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
    options.cancel = cancel;
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
    options.cancel = cancel;
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
    options.cancel = cancel;
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
  options.cancel = cancel;
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
