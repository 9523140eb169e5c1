// The end-to-end half of the benchmark: an in-process SmartML server on
// loopback, the closed client loops that drive it, and what they record.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "spans.h"
#include "speed.h"
#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/core/smartml.h"
#include "workloads.h"

namespace perfbench {

/// Server-side options every workload shares: two CV folds inside tuning,
/// and the knowledge base never updated, so every run sees the same KB.
smartml::SmartMlOptions BaseOptions();

/// SmartML + JobManager + RestService + HttpServer on 127.0.0.1, serving
/// from a background thread until destroyed.
class BenchServer {
 public:
  /// `kb_path` is loaded when the workload uses the seed KB; `journal_dir`
  /// (created fresh by the caller) backs the job journal when it uses one.
  static smartml::StatusOr<std::unique_ptr<BenchServer>> Start(
      const WorkloadSpec& spec, const std::string& kb_path,
      const std::string& journal_dir);
  ~BenchServer();
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;

  int port() const { return port_; }
  const smartml::SmartML& framework() const { return *framework_; }

 private:
  BenchServer() = default;

  std::unique_ptr<smartml::SmartML> framework_;
  std::unique_ptr<smartml::JobManager> jobs_;
  std::unique_ptr<smartml::RestService> service_;
  std::unique_ptr<smartml::HttpServer> http_;
  std::thread serve_thread_;
  int port_ = 0;
};

struct Candidate {
  std::string algorithm;
  size_t evaluations = 0;
  double validation_accuracy = 0.0;
  smartml::JsonValue config;
};

/// One pass of a client loop: submit, wait for the terminal event, fetch the
/// result, ask /v1/select with the run's meta-features.
struct RunRecord {
  std::string name;
  /// Which upload: an index into Inputs::uploads, or (fresh) into
  /// Inputs::cold with the permutation key.
  size_t input = 0;
  bool fresh = false;
  uint64_t fresh_key = 0;
  size_t round = 0;          ///< Round of the window (serve-durable).
  bool submitted = false;    ///< 202 from POST /v1/runs.
  int submit_status = 0;
  std::string terminal;      ///< Terminal state from the event stream.
  bool fetched = false;      ///< Result fetched and parsed.
  double latency_s = 0.0;    ///< Submit to terminal event.
  bool degraded = false;
  size_t failed_candidates = 0;
  std::string best_algorithm;
  double accuracy = 0.0;     ///< Winner's validation accuracy.
  double preprocess_s = 0.0, select_s = 0.0, tune_s = 0.0, output_s = 0.0;
  std::vector<Candidate> candidates;
  size_t result_bytes = 0;
  bool has_meta_features = false;
  smartml::MetaFeatureVector meta_features{};
  int select_status = 0;
  double select_latency_s = 0.0;
  std::string select_request;  ///< Wire bytes of the /v1/select request.
  std::string select_reply;
};

/// Runs one loop pass for `csv` on `connection`.
RunRecord RunOnce(HttpConnection* connection, int port,
                  const WorkloadSpec& spec, const std::string& name,
                  const std::string& csv, SpanRecorder* spans);

/// Process CPU time and completed loop passes of one round of the window.
struct Round {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  size_t done = 0;
};

struct Measurement {
  std::vector<RunRecord> runs;
  std::chrono::steady_clock::time_point start;
  double elapsed_s = 0.0;
  size_t passes = 0;  ///< Whole passes over the fixed list.
  /// Fixed lists: one round, the whole window. The hot/fresh mix: one per
  /// fresh server. CPU spent sampling the host's speed is left out.
  std::vector<Round> rounds;
};

/// Loop passes each client loop makes in one serve-durable round.
constexpr size_t kRoundPasses = 100;

/// Starts a fresh server for a round and returns its port (-1 on failure).
using RestartServer = std::function<int()>;

/// Times the workload for at least `seconds`. Fixed lists: whole passes on
/// the server at `port`, the host's speed sampled after each run. The
/// hot/fresh mix: rounds of `spec.connections` loops of kRoundPasses passes,
/// each round on a server from `restart` (fresh job table, journal and
/// meta-feature cache, so every round does the same work), the host's speed
/// sampled after each round. Sampling is left out of the CPU times. Each loop records into its own recorder, merged
/// into `spans` at the end.
Measurement Measure(const WorkloadSpec& spec, const Inputs& inputs, int port,
                    const RestartServer& restart, uint64_t seed,
                    double seconds, HostSpeed* speed, SpanRecorder* spans);

/// Linear-interpolated percentile `q` in [0, 1] (0 for no values).
double Percentile(std::vector<double> values, double q);

/// End-to-end timing of a window.
struct Timing {
  size_t done = 0;  ///< Completed loop passes.
  double runs_per_min = 0.0;
  double run_p50_ms = 0.0;
  double run_p90_ms = 0.0;
  double select_p50_ms = 0.0;
  /// Process CPU milliseconds per completed loop pass, unscaled.
  double cpu_ms_per_run = 0.0;
  /// Throughput of each round (the hot/fresh mix only).
  std::vector<double> round_runs_per_min;
};

/// Fixed lists: totals over the whole passes. The hot/fresh mix: each
/// figure is the median over the rounds, so a burst of host noise moves one
/// round, not the result.
Timing WindowTiming(const Measurement& m);

/// The upload `record` sent.
std::string CsvFor(const Inputs& inputs, const RunRecord& record);

/// GET /v1/metrics, summed over label sets: series name -> value.
std::map<std::string, double> ScrapeMetrics(int port);

/// Jobs the server still holds (GET /v1/health job counts).
double RetainedJobs(int port);

/// Builds the /v1/select body for `mf` exactly as the loop sends it.
std::string SelectBody(const smartml::MetaFeatureVector& mf);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
