#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace smartml {

namespace {

/// Pool metrics (process-global; see docs/OBSERVABILITY.md). The queue-depth
/// gauge is a last-writer snapshot across every live pool.
struct PoolMetrics {
  Counter* tasks_total;
  Gauge* queue_depth;
  Histogram* task_seconds;

  static const PoolMetrics& Get() {
    static const PoolMetrics* const metrics = [] {
      MetricsRegistry& registry = GlobalMetrics();
      auto* m = new PoolMetrics();
      m->tasks_total = registry.GetCounter(
          "smartml_pool_tasks_total",
          "Tasks executed by intra-run thread-pool workers.");
      m->queue_depth = registry.GetGauge(
          "smartml_pool_queue_depth",
          "Tasks waiting in the intra-run thread-pool queue.");
      m->task_seconds = registry.GetHistogram(
          "smartml_pool_task_seconds",
          "Latency of intra-run thread-pool tasks.", LatencyBuckets());
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_workers, size_t max_queued_tasks)
    : max_queued_(max_queued_tasks) {
  const int n = std::max(0, num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool ThreadPool::TrySubmit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || workers_.empty() || queue_.size() >= max_queued_) {
      return false;
    }
    queue_.push_back(std::move(fn));
    PoolMetrics::Get().queue_depth->Set(
        static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: every accepted task runs, so a
      // queued ParallelFor strand can never outlive its shared state.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      PoolMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(queue_.size()));
    }
    PoolMetrics::Get().tasks_total->Increment();
    Stopwatch watch;
    task();
    PoolMetrics::Get().task_seconds->Observe(watch.ElapsedSeconds());
  }
}

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

/// Shared state of one ParallelFor call. Helper strands hold it through a
/// shared_ptr, so a strand that is still queued when the call returns (its
/// work already claimed by faster participants) finds `next >= n`, exits
/// without touching `fn`, and merely keeps this alive a little longer.
struct ParallelForState {
  std::function<Status(size_t)> fn;
  RunContext context;  ///< The caller's, installed on every helper strand.
  size_t n = 0;

  std::atomic<size_t> next{0};
  std::atomic<int> in_flight{0};
  std::atomic<bool> cancelled{false};

  std::mutex mutex;
  std::condition_variable done_cv;
  size_t error_index = static_cast<size_t>(-1);
  Status error;

  /// Stops further index claims. fetch_add keeps `next` monotone, so every
  /// later claim — on any thread, regardless of flag visibility — sees an
  /// index >= n and exits before calling fn.
  void Drain() { next.fetch_add(n + 1); }

  void RecordError(size_t index, Status status) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (index < error_index) {
        error_index = index;
        error = std::move(status);
      }
    }
    Drain();
  }

  /// One participant (the caller or a pool strand) claiming indices until
  /// the range is exhausted, an error drains it, or cancellation fires.
  void Work() {
    for (;;) {
      // in_flight must rise before the claim: the completion wait reads
      // `next` then `in_flight`, so a claimed-but-unannounced item can never
      // slip past it.
      in_flight.fetch_add(1);
      const size_t i = next.fetch_add(1);
      bool ran = false;
      if (i < n) {
        if (CancellationRequested()) {
          cancelled.store(true);
          Drain();
        } else {
          ran = true;
          Status status;
          try {
            status = fn(i);
          } catch (const std::exception& e) {
            status = Status::Internal(
                StrFormat("parallel task %zu threw: %s", i, e.what()));
          } catch (...) {
            status = Status::Internal(
                StrFormat("parallel task %zu threw a non-exception", i));
          }
          if (!status.ok()) {
            if (status.code() == StatusCode::kCancelled) {
              cancelled.store(true);
            }
            RecordError(i, std::move(status));
          }
        }
      }
      if (in_flight.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
      if (!ran) break;
    }
  }
};

}  // namespace

Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();

  auto state = std::make_shared<ParallelForState>();
  state->fn = fn;
  state->context = CurrentRunContext();
  state->n = n;
  ThreadPool* pool = state->context.pool;

  // Helper strands: best effort. A full queue or a missing pool just means
  // fewer participants; the caller's own Work() below always completes the
  // range, which is what makes nested calls deadlock-free.
  size_t helpers = 0;
  if (pool != nullptr && n > 1) {
    const size_t want = std::min<size_t>(
        static_cast<size_t>(std::max(0, pool->num_workers())), n - 1);
    for (size_t h = 0; h < want; ++h) {
      const bool submitted = pool->TrySubmit([state] {
        // Strands run deep library code (tuners, tree fits) that finds its
        // context through the thread-local run context.
        ScopedRunContext context_scope(state->context);
        state->Work();
      });
      if (!submitted) break;
      ++helpers;
    }
  }

  state->Work();

  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock, [&] {
      // Order matters: observe the drained index counter before the
      // in-flight count (see ParallelForState::Work).
      const bool drained = state->next.load() >= state->n;
      return drained && state->in_flight.load() == 0;
    });
  }

  std::lock_guard<std::mutex> lock(state->mutex);
  const bool has_error = state->error_index != static_cast<size_t>(-1);
  // Cancellation wins over everything; keep the task's own kCancelled
  // message when there is one (e.g. "smac: run cancelled").
  if (has_error && state->error.code() == StatusCode::kCancelled) {
    return state->error;
  }
  if (state->cancelled.load() || CancellationRequested()) {
    return Status::Cancelled("parallel_for: cancelled");
  }
  if (has_error) return state->error;
  return Status::OK();
}

Status ParallelForRanges(size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  const size_t g = std::max<size_t>(1, grain);
  const size_t chunks = (n + g - 1) / g;
  return ParallelFor(
      chunks,
      [&](size_t c) {
        const size_t begin = c * g;
        return fn(begin, std::min(n, begin + g));
      });
}

}  // namespace smartml
