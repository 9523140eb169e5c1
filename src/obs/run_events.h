// Live progress events for a single run: a bounded per-run event buffer that
// the SSE endpoint drains, plus the emitters deep pipeline code (phase
// transitions in the run loop, incumbent updates inside the tuner) uses to
// publish events without threading a sink through every signature.
//
// The sink and the candidate tag live in the thread's RunContext
// (src/common/cancellation.h): the JobManager installs the job's sink around
// the run, the candidate loop installs each candidate's tag, ParallelFor
// strands run under their caller's context, and EmitRunEvent() is a no-op
// when no sink is installed so library users pay nothing.
#ifndef SMARTML_OBS_RUN_EVENTS_H_
#define SMARTML_OBS_RUN_EVENTS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/stopwatch.h"

namespace smartml {

/// One progress event of a run. Field usage by type:
///   "state"     - message holds the job state name (queued/running).
///   "phase"     - phase holds the pipeline phase being entered.
///   "incumbent" - algorithm holds the candidate, value the new best
///                 cross-validation cost (lower is better).
///   "gap"       - message notes events lost to the bounded buffer; id is
///                 the first sequence number still retained.
///   "terminal"  - message holds done/failed/cancelled (plus error text for
///                 failures); value the final best accuracy for done.
struct RunEvent {
  /// 1-based sequence number within the run, stamped by the buffer at
  /// publish. Serves as the SSE `id:` field for Last-Event-ID resume.
  uint64_t id = 0;
  std::string type;
  /// Seconds since the buffer was created (job admission).
  double at_seconds = 0.0;
  std::string phase;
  std::string algorithm;
  double value = 0.0;
  std::string message;
};

/// Destination for emitted events. Implementations must be thread-safe:
/// parallel candidate tuning publishes from many strands at once.
class RunEventSink {
 public:
  virtual ~RunEventSink() = default;
  virtual void Publish(RunEvent event) = 0;
};

/// Thread-safe bounded ring of one run's events. Overflow drops the oldest
/// events (a resuming client sees a "gap" marker rather than a stall), so a
/// slow SSE consumer can never wedge the run pipeline. Close() marks the
/// stream complete and wakes all waiters; publishes after Close() are
/// dropped.
class RunEventBuffer : public RunEventSink {
 public:
  explicit RunEventBuffer(size_t capacity = 256);

  void Publish(RunEvent event) override;
  void Close();
  bool closed() const;

  /// Highest sequence number assigned so far (0 if none).
  uint64_t last_id() const;
  /// Events evicted by the ring bound.
  uint64_t dropped() const;
  /// Oldest sequence number still retained (0 when empty).
  uint64_t oldest_id() const;

  /// Every retained event with id > last_seen, in sequence order.
  std::vector<RunEvent> After(uint64_t last_seen) const;

  /// Blocks until an event with id > last_seen exists or the buffer is
  /// closed. Returns true when there is something to read (or the stream is
  /// finished), false on timeout — callers use short timeouts so streaming
  /// connections keep noticing server drain.
  bool Wait(uint64_t last_seen, double timeout_seconds) const;

 private:
  const size_t capacity_;
  const Stopwatch watch_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::deque<RunEvent> events_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  bool closed_ = false;
};

/// Publishes to the run context's sink, filling event.algorithm from the
/// context's tag when unset. No-op without a sink.
void EmitRunEvent(RunEvent event);

/// Convenience emitters for the two pipeline-side event types.
void EmitPhaseEvent(const std::string& phase);
void EmitIncumbentEvent(double cost);

}  // namespace smartml

#endif  // SMARTML_OBS_RUN_EVENTS_H_
