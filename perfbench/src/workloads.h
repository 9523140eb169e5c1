// The benchmark's workloads: what the server is configured with, which
// uploads the clients send, and how the inputs follow from the seed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The seed whose inputs reproduce the Table-4 recipe seeds.
constexpr uint64_t kDefaultSeed = 1;

struct WorkloadSpec {
  std::string name;
  /// Server knowledge base: the seed KB file, or empty.
  bool seed_kb = false;
  /// Query string of every POST /v1/runs.
  std::string run_query;
  /// Closed client loops, each with one keep-alive connection.
  int connections = 1;
  /// Whole passes over a fixed upload list (table4), or rounds of a
  /// hot/fresh mix for as long as the run measures (serve-durable).
  bool fixed_list = true;
  /// Runs tune and produce a model; false for selection-only runs.
  bool tunes = true;
  /// Job journal on disk (durable serving). It also turns on per-iteration
  /// tuner checkpoints, so only the serving workload uses it.
  bool journal = false;
};

/// Null for unknown names.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Upload {
  std::string name;
  std::string csv;
};

struct Inputs {
  /// The timed list (fixed-list workloads) or the hot set (serve-durable).
  std::vector<Upload> uploads;
  /// serve-durable: bases whose row permutations make the fresh uploads.
  std::vector<Upload> cold;
  /// Uploads sent during set-up, outside the timed list.
  std::vector<Upload> warmup;
};

/// Generates every input of `spec` from `seed` (deterministic).
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Uploads of the tuner probe in the traced table4 run: the first
/// kTunerProbeUploads Table-4 recipes at 250 rows, where learners are cheap
/// and the tuner's own work shows.
constexpr size_t kTunerProbeUploads = 4;
std::vector<Upload> TunerProbeUploads();

/// A never-seen upload: `base` with its data rows permuted by `key`.
std::string FreshCsv(const Upload& base, uint64_t key);

/// SplitMix64: the benchmark's own deterministic stream, independent of the
/// library's RNG so input order never changes with the program under test.
uint64_t SplitMix64(uint64_t* state);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
