// Fault-tolerance tests: cooperative cancellation of running jobs, run
// deadlines returning best-so-far, per-candidate failure isolation, and
// crash-safe knowledge-base persistence — all driven through the
// SMARTML_FAULT fault-injection points (src/common/fault_injection.h).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/api/job_manager.h"
#include "src/common/cancellation.h"
#include "src/common/fault_injection.h"
#include "src/core/smartml.h"
#include "src/data/synthetic.h"
#include "src/kb/knowledge_base.h"
#include "src/obs/metrics.h"

namespace smartml {
namespace {

// Every test disarms faults on the way out: FaultInjection is process-global
// and a leaked spec would poison later tests in this binary.
class FaultTolerance : public testing::Test {
 protected:
  void TearDown() override {
    ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());
  }

  static Dataset SmallDataset(const std::string& name = "fault_ds") {
    SyntheticSpec spec;
    spec.num_instances = 80;
    spec.class_sep = 2.5;
    spec.seed = 47;
    spec.name = name;
    return GenerateSynthetic(spec);
  }

  static SmartMlOptions FastOptions() {
    SmartMlOptions options;
    options.max_evaluations = 9;
    options.cv_folds = 2;
    options.cold_start_algorithms = {"knn", "rpart"};
    return options;
  }
};

// ---------------------------------------------------------------------------
// Fault-injection spec parsing
// ---------------------------------------------------------------------------

TEST_F(FaultTolerance, SpecParsing) {
  auto& faults = FaultInjection::Instance();
  EXPECT_TRUE(faults.SetSpec("").ok());
  EXPECT_FALSE(faults.AnyArmed());
  EXPECT_FALSE(faults.ShouldFire("kb_save_crash"));

  EXPECT_TRUE(faults.SetSpec("kb_save_crash,slow_train:50ms").ok());
  EXPECT_TRUE(faults.AnyArmed());
  EXPECT_TRUE(faults.ShouldFire("kb_save_crash"));
  EXPECT_FALSE(faults.ShouldFire("tuner_throw"));
  EXPECT_NEAR(faults.DelaySeconds("slow_train"), 0.05, 1e-9);

  EXPECT_TRUE(faults.SetSpec("tuner_throw:1.5s").ok());
  EXPECT_NEAR(faults.DelaySeconds("tuner_throw"), 1.5, 1e-9);

  // Probability 0 never fires; 1 always fires.
  EXPECT_TRUE(faults.SetSpec("tuner_throw:0").ok());
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(faults.ShouldFire("tuner_throw"));
  EXPECT_TRUE(faults.SetSpec("tuner_throw:1").ok());
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(faults.ShouldFire("tuner_throw"));

  // Count-limited: fires on exactly the first N calls.
  EXPECT_TRUE(faults.SetSpec("tuner_throw:2x").ok());
  EXPECT_TRUE(faults.ShouldFire("tuner_throw"));
  EXPECT_TRUE(faults.ShouldFire("tuner_throw"));
  EXPECT_FALSE(faults.ShouldFire("tuner_throw"));
  EXPECT_FALSE(faults.ShouldFire("tuner_throw"));

  // Malformed specs are rejected and keep the previous set armed.
  EXPECT_TRUE(faults.SetSpec("tuner_throw:1").ok());
  EXPECT_FALSE(faults.SetSpec("tuner_throw:banana").ok());
  EXPECT_TRUE(faults.ShouldFire("tuner_throw"));
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST_F(FaultTolerance, CancelTokenAbortsRunWithKCancelled) {
  RunBudget budget;
  budget.token = std::make_shared<CancelToken>();
  budget.token->Cancel();  // Cancelled before the run even starts.
  SmartML framework(FastOptions());
  auto result = framework.Run(SmallDataset(), framework.options(), budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultTolerance, CancelMidParallelTuneAbortsPromptly) {
  // Candidates tune concurrently on a 4-thread run; a cancel fired from
  // another thread mid-tune must reach every parallel strand and abort the
  // run with kCancelled well inside the latency bound.
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("slow_train:20ms").ok());

  SmartMlOptions options = FastOptions();
  options.num_threads = 4;
  options.max_evaluations = 50;
  options.cold_start_algorithms = {"knn", "rpart", "naive_bayes",
                                   "random_forest"};
  RunBudget budget;
  budget.token = std::make_shared<CancelToken>();

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    budget.token->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  SmartML framework(options);
  auto result = framework.Run(SmallDataset(), options, budget);
  canceller.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(seconds, 5.0) << "parallel run ignored the cancel for too long";
}

TEST_F(FaultTolerance, CancelRunningJobReachesTerminalStateQuickly) {
  // slow_train makes every fold evaluation sleep, so the job reliably stays
  // running long enough to observe the cancelling -> cancelled transition.
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("slow_train:100ms").ok());

  const double cancelled_before =
      GlobalMetrics().Value("smartml_runs_cancelled_total");
  SmartML framework(FastOptions());
  JobManagerOptions job_options;
  job_options.num_workers = 1;
  JobManager jobs(&framework, job_options);

  auto id = jobs.Submit(SmallDataset(), framework.options());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Wait for the worker to pick the job up.
  for (int i = 0; i < 200 && jobs.NumRunning() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(jobs.NumRunning(), 1u);

  const auto cancel_time = std::chrono::steady_clock::now();
  auto snapshot = jobs.Cancel(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->state == JobState::kCancelling ||
              snapshot->state == JobState::kCancelled);

  // Repeat cancels are idempotent while the worker winds down.
  EXPECT_TRUE(jobs.Cancel(*id).ok());

  auto final_snapshot = jobs.Wait(*id, /*timeout_seconds=*/10.0);
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(final_snapshot->state, JobState::kCancelled);
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cancel_time)
          .count();
  EXPECT_LT(latency, 2.0) << "cancellation latency exceeded the 2s bound";

  EXPECT_EQ(GlobalMetrics().Value("smartml_runs_cancelled_total") -
                cancelled_before,
            1.0);
  EXPECT_EQ(GlobalMetrics().Value("smartml_jobs_cancelling"), 0.0);
}

TEST_F(FaultTolerance, DeadlineExpiryReturnsBestSoFarNotDegraded) {
  SmartMlOptions options = FastOptions();
  // Slow folds + a deadline that expires after the first candidate: the run
  // must still return a usable best-so-far result.
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("slow_train:20ms").ok());
  options.time_budget_seconds = 30.0;
  options.max_evaluations = 0;
  options.run_deadline_seconds = 0.7;
  SmartML framework(options);
  auto result = framework.Run(SmallDataset());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->best_algorithm.empty());
  EXPECT_NE(result->best_model, nullptr);
  // Budget exhaustion is within the contract — not a degraded run.
  EXPECT_FALSE(result->degraded);
  EXPECT_TRUE(result->failed_candidates.empty());
}

TEST_F(FaultTolerance, ZeroDeadlineFailsWithDeadlineExceeded) {
  RunBudget budget;
  budget.deadline = Deadline::After(0.0);  // Already expired.
  SmartML framework(FastOptions());
  auto result = framework.Run(SmallDataset(), framework.options(), budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Per-candidate failure isolation
// ---------------------------------------------------------------------------

TEST_F(FaultTolerance, ThrowingCandidateDegradesRunToSurvivors) {
  // tuner_throw:1x fires on exactly the first candidate (knn): it throws,
  // the run completes on the surviving candidate (rpart) and reports the
  // degradation instead of failing.
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("tuner_throw:1x").ok());
  auto failed = [] {
    return GlobalMetrics().Value("smartml_candidates_failed_total");
  };
  const double failed_before = failed();

  SmartML framework(FastOptions());
  auto result = framework.Run(SmallDataset());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->failed_candidates.size(), 1u);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->best_algorithm, "rpart");
  EXPECT_EQ(result->per_algorithm.size(), 1u);
  EXPECT_EQ(result->failed_candidates[0].algorithm, "knn");
  EXPECT_NE(result->failed_candidates[0].error.find("tuner_throw"),
            std::string::npos);
  EXPECT_EQ(failed(), failed_before + 1);

  // The failure surfaces in the trace.
  bool found_failure_span = false;
  for (const auto& span : result->trace) {
    if (span.name.find("/failed") != std::string::npos) {
      found_failure_span = true;
    }
  }
  EXPECT_TRUE(found_failure_span);
}

TEST_F(FaultTolerance, AllCandidatesFailingFailsTheRun) {
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("tuner_throw").ok());
  SmartML framework(FastOptions());
  auto result = framework.Run(SmallDataset());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("all 2 candidate algorithms"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(FaultTolerance, KbLookupFailureDegradesToColdStart) {
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("kb_lookup_throw").ok());
  SmartML framework(FastOptions());
  // Seed the KB so the lookup path (not the empty-KB path) is exercised.
  KbRecord record;
  record.dataset_name = "seed";
  KbAlgorithmResult seed_result;
  seed_result.algorithm = "knn";
  seed_result.accuracy = 0.9;
  record.results.push_back(seed_result);
  framework.mutable_kb().AddRecord(record);

  auto result = framework.Run(SmallDataset());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  EXPECT_FALSE(result->used_meta_learning);
  EXPECT_FALSE(result->best_algorithm.empty());
}

// ---------------------------------------------------------------------------
// Crash-safe KB persistence
// ---------------------------------------------------------------------------

KnowledgeBase MakeKb(int num_records) {
  KnowledgeBase kb;
  for (int i = 0; i < num_records; ++i) {
    KbRecord record;
    record.dataset_name = "ds_" + std::to_string(i);
    record.meta_features[0] = 100.0 + i;
    KbAlgorithmResult result;
    result.algorithm = "svm";
    result.accuracy = 0.5 + 0.01 * i;
    result.best_config.SetDouble("C", 1.0 + i);
    record.results.push_back(result);
    kb.AddRecord(record);
  }
  return kb;
}

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST_F(FaultTolerance, SaveLoadRoundTripWithChecksum) {
  const std::string path = TempPath("kb_roundtrip");
  KnowledgeBase kb = MakeKb(3);
  ASSERT_TRUE(kb.SaveToFile(path).ok());
  // The default on-disk format is the versioned binary snapshot (magic +
  // per-section crc32); the checksum is what LoadFromFile verifies below.
  const std::string bytes = ReadAll(path);
  EXPECT_EQ(bytes.rfind("SMKBSNAP", 0), 0u);

  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), 3u);
  std::remove(path.c_str());
}

TEST_F(FaultTolerance, TextSaveStillRoundTripsWithCrcLine) {
  const std::string path = TempPath("kb_roundtrip_text");
  KnowledgeBase kb = MakeKb(3);
  ASSERT_TRUE(kb.SaveToFile(path, KbFileFormat::kText).ok());
  const std::string text = ReadAll(path);
  EXPECT_NE(text.find("\ncrc32 "), std::string::npos);

  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), 3u);
  std::remove(path.c_str());
}

TEST_F(FaultTolerance, SecondSaveKeepsBakOfLastGood) {
  const std::string path = TempPath("kb_bak");
  ASSERT_TRUE(MakeKb(2).SaveToFile(path).ok());
  ASSERT_TRUE(MakeKb(5).SaveToFile(path).ok());

  auto main_kb = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(main_kb.ok());
  EXPECT_EQ(main_kb->NumRecords(), 5u);
  auto bak_kb = KnowledgeBase::Deserialize(ReadAll(path + ".bak"));
  ASSERT_TRUE(bak_kb.ok()) << bak_kb.status().ToString();
  EXPECT_EQ(bak_kb->NumRecords(), 2u);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST_F(FaultTolerance, SimulatedCrashDuringSaveNeverCorruptsTheKb) {
  const std::string path = TempPath("kb_crash");
  ASSERT_TRUE(MakeKb(3).SaveToFile(path).ok());

  // Arm the crash: the save must fail *without* touching `path`.
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("kb_save_crash").ok());
  Status crashed = MakeKb(9).SaveToFile(path);
  EXPECT_FALSE(crashed.ok());
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());

  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), 3u);  // The pre-crash contents, intact.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".bak").c_str());
}

TEST_F(FaultTolerance, FailedFinalRenameRestoresMainFromBak) {
  // The second rename of the save (tmp -> path) happens after the old file
  // already moved to .bak. If it fails, the error path must put the
  // last-good file back so `path` never goes missing because of a failed
  // save.
  const std::string path = TempPath("kb_renamefail");
  ASSERT_TRUE(MakeKb(3).SaveToFile(path).ok());

  ASSERT_TRUE(FaultInjection::Instance().SetSpec("kb_rename_fail").ok());
  Status failed = MakeKb(7).SaveToFile(path);
  EXPECT_FALSE(failed.ok());
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("").ok());

  // The main path still loads and still holds the pre-failure contents.
  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), 3u);

  // And a later save (fault disarmed) works normally.
  ASSERT_TRUE(MakeKb(5).SaveToFile(path).ok());
  auto after = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->NumRecords(), 5u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".bak").c_str());
}

TEST_F(FaultTolerance, ChecksumCatchesBitFlips) {
  const std::string path = TempPath("kb_bitflip");
  ASSERT_TRUE(MakeKb(3).SaveToFile(path).ok());
  std::string text = ReadAll(path);
  text[text.size() / 3] ^= 0x20;  // Silent single-bit corruption.
  WriteAll(path, text);

  auto strict = KnowledgeBase::Deserialize(ReadAll(path));
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FaultTolerance, TornTailIsSalvagedWithWarning) {
  const std::string path = TempPath("kb_torn");
  ASSERT_TRUE(MakeKb(4).SaveToFile(path).ok());
  std::string text = ReadAll(path);
  // Tear the file mid-way (simulates a kill -9 between write and fsync).
  WriteAll(path, text.substr(0, text.size() * 2 / 3));

  auto recoveries = [] {
    return GlobalMetrics().Value("smartml_kb_recoveries_total");
  };
  const double recoveries_before = recoveries();
  auto salvaged = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_GE(salvaged->NumRecords(), 1u);
  EXPECT_LT(salvaged->NumRecords(), 4u);
  EXPECT_EQ(recoveries(), recoveries_before + 1);
  std::remove(path.c_str());
}

TEST_F(FaultTolerance, UnsalvageableMainFallsBackToBak) {
  const std::string path = TempPath("kb_fallback");
  ASSERT_TRUE(MakeKb(2).SaveToFile(path).ok());
  ASSERT_TRUE(MakeKb(6).SaveToFile(path).ok());  // 2-record KB now in .bak.
  WriteAll(path, "complete garbage\nnothing survives here\n");

  auto loaded = KnowledgeBase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRecords(), 2u);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST_F(FaultTolerance, InjectedLoadCorruptionIsCaughtAndRecovered) {
  const std::string path = TempPath("kb_loadfault");
  ASSERT_TRUE(MakeKb(3).SaveToFile(path).ok());
  ASSERT_TRUE(FaultInjection::Instance().SetSpec("kb_load_corrupt").ok());
  auto loaded = KnowledgeBase::LoadFromFile(path);
  // The corruption is injected into the read body; the checksum detects it
  // and salvage recovers what it can (possibly zero records -> .bak path;
  // with no .bak the load may fail, which is also acceptable — what is NOT
  // acceptable is an undetected wrong KB).
  if (loaded.ok()) {
    EXPECT_LE(loaded->NumRecords(), 3u);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: REST DELETE on a running job
// ---------------------------------------------------------------------------

TEST_F(FaultTolerance, CancelledRunIncrementsPipelineCancelCounter) {
  auto cancelled = [] {
    return GlobalMetrics().Value("smartml_runs_total",
                                 {{"outcome", "cancelled"}});
  };
  const double before = cancelled();
  RunBudget budget;
  budget.token = std::make_shared<CancelToken>();
  budget.token->Cancel();
  SmartML framework(FastOptions());
  auto result = framework.Run(SmallDataset(), framework.options(), budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(cancelled(), before + 1);
}

}  // namespace
}  // namespace smartml
