#include "src/obs/run_events.h"

#include <chrono>
#include <utility>

#include "src/common/cancellation.h"
#include "src/obs/metrics.h"

namespace smartml {
namespace {

struct EventMetrics {
  Counter* published;
  Counter* dropped;

  static EventMetrics& Get() {
    static EventMetrics metrics{
        GlobalMetrics().GetCounter("smartml_run_events_published_total",
                                   "Run progress events published."),
        GlobalMetrics().GetCounter(
            "smartml_run_events_dropped_total",
            "Run progress events evicted by the bounded per-run buffer.")};
    return metrics;
  }
};

}  // namespace

RunEventBuffer::RunEventBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void RunEventBuffer::Publish(RunEvent event) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    event.id = next_id_++;
    event.at_seconds = watch_.ElapsedSeconds();
    events_.push_back(std::move(event));
    while (events_.size() > capacity_) {
      events_.pop_front();
      ++dropped_;
      EventMetrics::Get().dropped->Increment();
    }
  }
  EventMetrics::Get().published->Increment();
  cv_.notify_all();
}

void RunEventBuffer::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RunEventBuffer::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

uint64_t RunEventBuffer::last_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_ - 1;
}

uint64_t RunEventBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

uint64_t RunEventBuffer::oldest_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.empty() ? 0 : events_.front().id;
}

std::vector<RunEvent> RunEventBuffer::After(uint64_t last_seen) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RunEvent> out;
  for (const RunEvent& event : events_) {
    if (event.id > last_seen) out.push_back(event);
  }
  return out;
}

bool RunEventBuffer::Wait(uint64_t last_seen, double timeout_seconds) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [this, last_seen] {
                        return closed_ || next_id_ - 1 > last_seen;
                      });
}

void EmitRunEvent(RunEvent event) {
  const RunContext& context = CurrentRunContext();
  if (context.events == nullptr) return;
  if (event.algorithm.empty() && context.event_tag != nullptr) {
    event.algorithm = *context.event_tag;
  }
  context.events->Publish(std::move(event));
}

void EmitPhaseEvent(const std::string& phase) {
  if (CurrentRunContext().events == nullptr) return;
  RunEvent event;
  event.type = "phase";
  event.phase = phase;
  EmitRunEvent(std::move(event));
}

void EmitIncumbentEvent(double cost) {
  if (CurrentRunContext().events == nullptr) return;
  RunEvent event;
  event.type = "incumbent";
  event.value = cost;
  EmitRunEvent(std::move(event));
}

}  // namespace smartml
