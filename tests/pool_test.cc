// Thread-pool and ParallelFor tests: full coverage of the index space at
// several pool widths, the deterministic error model (lowest index wins,
// exceptions become Status::Internal), cancellation mid-loop, nested
// ParallelFor on a starved pool (the historical deadlock shape), bounded
// queues, the run context every helper strand inherits from its caller, and
// end-to-end determinism of SmartML::Run across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/thread_pool.h"
#include "src/core/smartml.h"
#include "src/data/synthetic.h"
#include "src/obs/run_events.h"

namespace smartml {
namespace {

// ---------------------------------------------------------------------------
// ParallelFor basics
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnceAtAnyWidth) {
  for (int workers : {0, 1, 7}) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    ScopedRunContext scope({.pool = pool.get()});
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    Status status = ParallelFor(
        kN,
        [&](size_t i) -> Status {
          hits[i].fetch_add(1);
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ParallelForTest, ZeroAndOneIterationDegenerateCases) {
  ThreadPool pool(2);
  ScopedRunContext scope({.pool = &pool});
  int calls = 0;
  EXPECT_TRUE(ParallelFor(
                  0, [&](size_t) -> Status { return Status::OK(); })
                  .ok());
  Status status = ParallelFor(
      1,
      [&](size_t i) -> Status {
        EXPECT_EQ(i, 0u);
        ++calls;  // Single iteration runs on the caller; no race.
        return Status::OK();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, LowestIndexErrorWinsDeterministically) {
  ThreadPool pool(4);
  ScopedRunContext scope({.pool = &pool});
  for (int round = 0; round < 20; ++round) {
    Status status = ParallelFor(
        64,
        [&](size_t i) -> Status {
          if (i % 2 == 1) {
            return Status::Internal("boom at " + std::to_string(i));
          }
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    // All odd indices fail; index 1 is the lowest and must be reported no
    // matter which strand got there first.
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.ToString().find("boom at 1"), std::string::npos)
        << status.ToString();
  }
}

TEST(ParallelForTest, ExceptionsAreCapturedAsInternal) {
  ThreadPool pool(3);
  ScopedRunContext scope({.pool = &pool});
  Status status = ParallelFor(
      16,
      [&](size_t i) -> Status {
        if (i == 0) throw std::runtime_error("kaboom");
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("kaboom"), std::string::npos)
      << status.ToString();
}

TEST(ParallelForTest, CancellationMidLoopStopsFurtherClaims) {
  ThreadPool pool(4);
  CancelToken token;
  ScopedRunContext scope({.cancel = &token, .pool = &pool});
  std::atomic<int> started{0};
  Status status = ParallelFor(
      10000,
      [&](size_t) -> Status {
        if (started.fetch_add(1) == 8) token.Cancel();
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // The loop must stop long before exhausting the index space.
  EXPECT_LT(started.load(), 10000);
}

TEST(ParallelForTest, TaskReportedCancellationWinsOverGenericMessage) {
  ThreadPool pool(2);
  ScopedRunContext scope({.pool = &pool});
  Status status = ParallelFor(
      4,
      [&](size_t i) -> Status {
        if (i == 0) return Status::Cancelled("tuner: run cancelled");
        return Status::OK();
      });
  ASSERT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.ToString().find("tuner: run cancelled"), std::string::npos)
      << status.ToString();
}

// The historical deadlock shape: an outer ParallelFor occupies the only
// worker, and every task issues an inner ParallelFor against the same pool.
// Work-contribution means the inner caller always drains its own indices.
TEST(ParallelForTest, NestedParallelForOnStarvedPoolDoesNotDeadlock) {
  ThreadPool pool(1);
  ScopedRunContext scope({.pool = &pool});
  std::atomic<int> total{0};
  Status status = ParallelFor(
      8,
      [&](size_t) -> Status {
        return ParallelFor(
            32,
            [&](size_t) -> Status {
              total.fetch_add(1);
              return Status::OK();
            });
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(total.load(), 8 * 32);
}

TEST(ParallelForTest, TinyQueueOverflowOnlyReducesHelpers) {
  // Queue of 1 forces most TrySubmit calls to fail; correctness must not
  // depend on how many helpers were accepted.
  ThreadPool pool(4, /*max_queued_tasks=*/1);
  ScopedRunContext scope({.pool = &pool});
  std::atomic<int> total{0};
  Status status = ParallelFor(
      500,
      [&](size_t) -> Status {
        total.fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(total.load(), 500);
}

TEST(ParallelForTest, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::vector<int> sums(6, 0);
  for (size_t c = 0; c < sums.size(); ++c) {
    callers.emplace_back([&, c] {
      ScopedRunContext scope({.pool = &pool});
      std::atomic<int> sum{0};
      Status status = ParallelFor(
          200,
          [&](size_t) -> Status {
            sum.fetch_add(1);
            return Status::OK();
          });
      if (status.ok()) sums[c] = sum.load();
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < sums.size(); ++c) {
    EXPECT_EQ(sums[c], 200) << "caller " << c;
  }
}

TEST(ParallelForRangesTest, RangesTileTheIndexSpace) {
  ThreadPool pool(3);
  ScopedRunContext scope({.pool = &pool});
  constexpr size_t kN = 1003;  // Deliberately not a multiple of the grain.
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  Status status = ParallelForRanges(
      kN, /*grain=*/64,
      [&](size_t begin, size_t end) -> Status {
        EXPECT_LT(begin, end);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ScopedRunContextInstallsAndRestores) {
  EXPECT_EQ(CurrentRunContext().pool, nullptr);
  ThreadPool pool(2);
  CancelToken token;
  {
    ScopedRunContext outer({.cancel = &token, .pool = &pool});
    EXPECT_EQ(CurrentRunContext().pool, &pool);
    {
      RunContext sequential = CurrentRunContext();
      sequential.pool = nullptr;  // A sequential sub-scope.
      ScopedRunContext inner(sequential);
      EXPECT_EQ(CurrentRunContext().pool, nullptr);
      EXPECT_EQ(CurrentRunContext().cancel, &token);
    }
    EXPECT_EQ(CurrentRunContext().pool, &pool);
  }
  EXPECT_EQ(CurrentRunContext().pool, nullptr);
  EXPECT_EQ(CurrentRunContext().cancel, nullptr);
}

// A caller whose run is already cancelled gets kCancelled without a single
// index running, on the caller or on any helper strand.
TEST(RunContextTest, CancelledCallerRunsNoIndex) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  ScopedRunContext scope({.cancel = &token, .pool = &pool});
  std::atomic<int> ran{0};
  const Status status = ParallelFor(64, [&](size_t) -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(ran.load(), 0);
}

// Helper strands run under their caller's context, so a ParallelFor nested
// two deep sees the outermost caller's token, pool, sink and tag no matter
// which thread runs each level.
TEST(RunContextTest, NestedStrandsSeeTheOutermostContext) {
  ThreadPool pool(4);
  CancelToken token;
  RunEventBuffer buffer(8);
  const std::string tag = "knn";
  ScopedRunContext scope(
      {.cancel = &token, .pool = &pool, .events = &buffer, .event_tag = &tag});
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> on_strands{0};
  std::atomic<int> mismatches{0};
  const auto level = [&](const std::function<Status(size_t)>& fn) {
    return ParallelFor(4, fn);
  };
  const Status status = level([&](size_t) {
    return level([&](size_t) {
      return level([&](size_t) -> Status {
        const RunContext& seen = CurrentRunContext();
        if (seen.cancel != &token || seen.pool != &pool ||
            seen.events != &buffer || seen.event_tag != &tag) {
          mismatches.fetch_add(1);
        }
        if (std::this_thread::get_id() != caller) on_strands.fetch_add(1);
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return Status::OK();
      });
    });
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls.load(), 64);
  EXPECT_GT(on_strands.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_GE(ResolveNumThreads(0), 1);   // Auto: hardware concurrency.
  EXPECT_GE(ResolveNumThreads(-3), 1);  // Negative values are "auto" too.
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(8), 8);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the whole pipeline must be bit-identical at any
// thread count (per-task RNG streams + plan/evaluate/replay tuner batches).
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, RunIsIdenticalAtOneAndEightThreads) {
  SyntheticSpec spec;
  spec.num_instances = 120;
  spec.class_sep = 1.5;
  spec.seed = 91;
  spec.name = "determinism_ds";
  const Dataset dataset = GenerateSynthetic(spec);

  auto run = [&](int num_threads) {
    SmartMlOptions options;
    options.max_evaluations = 24;
    options.cv_folds = 2;
    options.cold_start_algorithms = {"knn", "naive_bayes", "rpart",
                                     "random_forest"};
    options.enable_ensembling = true;
    options.enable_interpretability = true;
    options.update_kb = false;
    options.num_threads = num_threads;
    SmartML framework(options);
    auto result = framework.Run(dataset, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result;
  };

  auto sequential = run(1);
  auto parallel = run(8);
  ASSERT_TRUE(sequential.ok() && parallel.ok());

  EXPECT_EQ(sequential->best_algorithm, parallel->best_algorithm);
  EXPECT_EQ(sequential->best_config.ToString(),
            parallel->best_config.ToString());
  EXPECT_DOUBLE_EQ(sequential->best_validation_accuracy,
                   parallel->best_validation_accuracy);
  ASSERT_EQ(sequential->per_algorithm.size(), parallel->per_algorithm.size());
  for (size_t i = 0; i < sequential->per_algorithm.size(); ++i) {
    const AlgorithmRunResult& a = sequential->per_algorithm[i];
    const AlgorithmRunResult& b = parallel->per_algorithm[i];
    EXPECT_EQ(a.algorithm, b.algorithm) << i;
    EXPECT_EQ(a.best_config.ToString(), b.best_config.ToString()) << i;
    EXPECT_DOUBLE_EQ(a.validation_accuracy, b.validation_accuracy) << i;
    EXPECT_DOUBLE_EQ(a.tuning_cost, b.tuning_cost) << i;
    EXPECT_EQ(a.evaluations, b.evaluations) << i;
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << i;
    for (size_t t = 0; t < a.trajectory.size(); ++t) {
      EXPECT_DOUBLE_EQ(a.trajectory[t], b.trajectory[t]) << i << ":" << t;
    }
  }
  // The output phase reuses the tune-phase models, so the ensemble and the
  // importances inherit the same thread-count independence.
  ASSERT_NE(sequential->ensemble, nullptr);
  ASSERT_NE(parallel->ensemble, nullptr);
  EXPECT_EQ(sequential->ensemble->weights(), parallel->ensemble->weights());
  EXPECT_EQ(sequential->ensemble_validation_accuracy,
            parallel->ensemble_validation_accuracy);
  ASSERT_FALSE(sequential->importances.empty());
  ASSERT_EQ(sequential->importances.size(), parallel->importances.size());
  for (size_t i = 0; i < sequential->importances.size(); ++i) {
    EXPECT_EQ(sequential->importances[i].feature,
              parallel->importances[i].feature)
        << i;
    EXPECT_EQ(sequential->importances[i].importance,
              parallel->importances[i].importance)
        << i;
  }
}

}  // namespace
}  // namespace smartml
