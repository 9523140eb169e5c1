// Cooperative cancellation, the per-run budget, and the run context that
// carries a run's ambient state into deep code.
//
// A CancelToken is a shared atomic flag: the REST layer (DELETE
// /v1/runs/{id}) flips it from one thread while the experiment thread polls
// it at loop boundaries — between pipeline phases, between tuner fold
// evaluations, and inside the iterative classifier training loops — so a
// *running* job reaches a terminal state within a bounded latency instead of
// only being cancellable while still queued.
//
// A RunBudget bundles the token with a whole-run wall-clock deadline. It is
// created by the caller (JobManager per job; SmartML::Run derives one from
// the options otherwise) and is SmartML::Run's explicit input. The two
// halves have different semantics on purpose:
//
//   - token cancelled  -> the run's output is unwanted; abort with
//                         StatusCode::kCancelled as fast as possible.
//   - deadline expired -> the caller still wants a result; stop starting new
//                         work and return the best-so-far.
//
// Deep code (tuners, training loops, tree fits, progress events) cannot
// take the run's state as a parameter without churning every Fit signature,
// so it reads one thread-local RunContext: the cancel token, the run's
// thread pool, and the progress-event sink and candidate tag. Each layer
// that owns one of them installs it with a ScopedRunContext over a copy of
// the current context (JobManager the event sink, SmartML::Run the token and
// the pool, the candidate loop the event tag), and ParallelFor installs its
// caller's context on every helper strand, so code at any depth sees the
// outermost caller's state. Only *cancellation* is ambient — the deadline
// deliberately is not, so the final refit of the best configuration can
// complete after the budget ran out.
#ifndef SMARTML_COMMON_CANCELLATION_H_
#define SMARTML_COMMON_CANCELLATION_H_

#include <atomic>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/stopwatch.h"

namespace smartml {

class CheckpointSink;  // src/persist/checkpoint.h
class RunEventSink;    // src/obs/run_events.h
class ThreadPool;      // src/common/thread_pool.h

/// Shared, thread-safe cancellation flag. Create via std::make_shared and
/// hand copies of the shared_ptr to both the canceller and the cancellee.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The unified per-run budget: wall-clock deadline + cancellation token.
/// Copyable; copies share the token and the deadline's epoch.
struct RunBudget {
  Deadline deadline;  ///< Whole-run cap; infinite by default.
  std::shared_ptr<CancelToken> token;  ///< May be null (uncancellable run).

  /// Optional checkpoint store for resumable tuning (null = no durability).
  /// Threaded by JobManager into SmartML::Run; the tuners write their search
  /// state under keys prefixed with `checkpoint_scope` (the job id), so a
  /// recovered run finds its own checkpoints and a finished job's keys can
  /// be removed by prefix. Non-owning: the sink outlives the run.
  CheckpointSink* checkpoint = nullptr;
  std::string checkpoint_scope;

  static RunBudget Unbounded() { return RunBudget{}; }

  bool Cancelled() const { return token != nullptr && token->IsCancelled(); }
  bool DeadlineExpired() const { return deadline.Expired(); }
  /// Either stop condition (callers that just need "stop starting work").
  bool Stop() const { return Cancelled() || DeadlineExpired(); }

  /// OK while the run may proceed; kCancelled / kDeadlineExceeded otherwise.
  /// `what` names the phase for the error message ("preprocess", ...).
  Status Check(const char* what) const;
};

/// A run's ambient state, read by deep code through CurrentRunContext().
/// Every pointer is non-owning (the installer keeps the object alive for the
/// scope) and may be null: no token = uncancellable, no pool = sequential,
/// no sink = events are dropped, no tag = events carry no algorithm.
struct RunContext {
  const CancelToken* cancel = nullptr;
  ThreadPool* pool = nullptr;
  RunEventSink* events = nullptr;
  const std::string* event_tag = nullptr;
};

/// Installs `context` as the calling thread's run context for the guard's
/// lifetime; the previous context is restored on destruction. To change one
/// field, copy CurrentRunContext(), set the field, and install the copy.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(const RunContext& context);
  ~ScopedRunContext();
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext previous_;
};

/// The calling thread's installed context (all null outside any scope).
const RunContext& CurrentRunContext();

/// True when the calling thread's context holds a cancelled token. Cheap
/// (one thread-local read + one atomic load); safe to call from tight
/// training loops every few iterations.
bool CancellationRequested();

}  // namespace smartml

#endif  // SMARTML_COMMON_CANCELLATION_H_
