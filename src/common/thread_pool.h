// Intra-run parallel execution: a cancellation-aware thread pool plus a
// work-sharing ParallelFor.
//
// One SmartML run owns one ThreadPool (created by SmartML::Run from
// SmartMlOptions::num_threads) and installs it in the run context
// (src/common/cancellation.h) next to the cancel token, so deep layers
// (tuners, forest training) reach both without threading a parameter
// through every Fit() signature.
//
// ParallelFor is *work-contributing*: the calling thread claims indices from
// a shared atomic counter alongside up to num_workers helper strands that
// are TrySubmit'ed to the context's pool. Each strand runs under a copy of
// the caller's run context, taken once per call, so code on a strand — a
// nested ParallelFor included — sees the caller's token, pool and event
// sink and tag. A full queue or a missing pool only reduces the helper
// count — the caller always makes progress on its own — which is what makes
// nested ParallelFor calls (candidate loop → tuner batch → forest trees, all
// sharing one pool) deadlock-free by construction.
//
// Error/cancel semantics mirror the sequential loops they replace:
//   - cancellation of the context's token (checked before every index) wins
//     over everything and surfaces as StatusCode::kCancelled;
//   - otherwise the error with the lowest index wins (deterministic, like a
//     sequential first-error break); an error stops further index claims but
//     in-flight items finish;
//   - exceptions thrown by fn are captured and converted to
//     Status::Internal, never propagated across threads.
#ifndef SMARTML_COMMON_THREAD_POOL_H_
#define SMARTML_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"

namespace smartml {

/// Fixed-size worker pool with a bounded task queue. Tasks must not block on
/// other tasks (ParallelFor's strands never do); the destructor drains the
/// queue, so every accepted task runs before the pool dies.
class ThreadPool {
 public:
  explicit ThreadPool(int num_workers, size_t max_queued_tasks = 1024);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` unless the queue is full or the pool is shutting down.
  /// Never blocks; a false return means the caller must run the work itself
  /// (ParallelFor treats it as "one fewer helper").
  bool TrySubmit(std::function<void()> fn);

 private:
  void WorkerLoop();

  const size_t max_queued_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
};

/// Resolves a user-facing thread-count option: values <= 0 mean "auto"
/// (hardware concurrency, at least 1).
int ResolveNumThreads(int num_threads);

/// Runs fn(0), ..., fn(n-1) across the calling thread plus helper strands on
/// the current run context's pool (no pool => plain sequential loop on the
/// caller). Blocks until every started item finished. See the file comment
/// for the error model.
Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

/// Chunked variant for fine-grained loops (per-row prediction): splits
/// [0, n) into contiguous [begin, end) ranges of at least `grain` items so
/// the per-index claim overhead amortizes.
Status ParallelForRanges(size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& fn);

}  // namespace smartml

#endif  // SMARTML_COMMON_THREAD_POOL_H_
