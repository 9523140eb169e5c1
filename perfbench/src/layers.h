// The traced half of the benchmark: replays each run's calls into the
// SmartML layers from the benchmark's own code, inside spans, and derives
// the per-layer metrics from span self times, span counts and the server's
// own counters.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct LayerContext {
  const WorkloadSpec* spec = nullptr;
  const Inputs* inputs = nullptr;
  const Measurement* measurement = nullptr;
  /// /v1/metrics scraped right before and right after the timed window.
  std::map<std::string, double> metrics_before;
  std::map<std::string, double> metrics_after;
  double retained_jobs = 0.0;
  double journal_bytes = 0.0;
  /// Span-recorder time spent during the timed window.
  double loop_trace_overhead_s = 0.0;
  /// The traced window's cpu_ms_per_run, and the host's reference pass.
  double cpu_ms_per_run = 0.0;
  double reference_ms = 0.0;
  std::string kb_path;
  std::string work_dir;
  /// The live server (table4 resubmits its list at four threads; its
  /// counters are scraped around the tuner probe).
  int port = 0;
  /// Receives the replay spans.
  SpanRecorder* spans = nullptr;
  /// Receives check failures found while replaying.
  std::vector<std::string>* failures = nullptr;
};

/// Name and unit of every per-layer metric, in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricUnits();

/// Runs the replays and returns every per-layer metric by name.
std::map<std::string, double> PerLayerMetrics(const LayerContext& context);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
