// SmartML end-to-end benchmark (see perfbench/README.md).
//
//   smartml_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --kb SEED_KB --expected EXPECTED_JSON
//                     --work-dir DIR [--trace-out FILE]
//
// Starts an in-process SmartML server on loopback, sets it up several times
// (reporting the median set-up CPU time), drives the workload's closed client
// loops for at least S seconds, checks every output, and prints one JSON
// line: {"correct", "attempted", "failed", "metrics"}. CPU times are scaled
// to a fixed host speed (speed.h). With --trace 1 the metrics are the
// per-layer ones from the replay spans instead of the end-to-end ones.
// Exits 1 when any check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "spans.h"
#include "speed.h"
#include "src/api/json.h"
#include "src/kb/knowledge_base.h"
#include "src/metafeatures/metafeature_cache.h"
#include "src/ml/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups per run; the median is reported.
constexpr int kSetups = 7;
// Reference passes timed after each set-up.
constexpr int kSpeedPasses = 4;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string kb_path;
  std::string expected_path;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--kb") {
      args->kb_path = value;
    } else if (key == "--expected") {
      args->expected_path = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->kb_path.empty() &&
         !args->expected_path.empty() && !args->work_dir.empty() &&
         args->seconds > 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  double bytes = 0.0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += static_cast<double>(it->file_size(ec));
    }
  }
  return bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Evaluation cap each candidate gets: the run's cap split by hyperparameter
// counts, as SmartML::Run divides it.
std::vector<int> CapSplit(const RunRecord& run, int evals) {
  std::vector<size_t> params;
  size_t total = 0;
  for (const Candidate& c : run.candidates) {
    auto space = smartml::SpaceFor(c.algorithm);
    params.push_back(space.ok() ? std::max<size_t>(space->NumParams(), 1) : 1);
    total += params.back();
  }
  std::vector<int> caps;
  for (size_t p : params) {
    caps.push_back(std::max(
        1, static_cast<int>(std::lround(
               evals * static_cast<double>(p) / static_cast<double>(total)))));
  }
  return caps;
}

class Checker {
 public:
  void Fail(const std::string& what) {
    if (failures_.size() < 50) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    failures_.push_back(what);
  }
  std::vector<std::string>* failures() { return &failures_; }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

struct Accounting {
  size_t attempted = 0;
  size_t failed = 0;
};

// Counts each operation kind and fails the checks for every failure:
// submissions answered with anything but 202 (429 and 5xx included), runs
// whose terminal state is not "done", selects answered with anything but 200.
Accounting Account(const Measurement& m, Checker* checker) {
  Accounting a;
  size_t failed_submits = 0, failed_runs = 0, failed_selects = 0;
  size_t selects = 0, runs = 0;
  for (const RunRecord& r : m.runs) {
    ++a.attempted;
    if (!r.submitted) {
      ++failed_submits;
      checker->Fail(r.name + ": submission answered " +
                    std::to_string(r.submit_status));
      continue;
    }
    ++runs;
    if (r.terminal != "done" || !r.fetched) {
      ++failed_runs;
      checker->Fail(r.name + ": run ended '" + r.terminal + "'");
      continue;
    }
    if (!r.has_meta_features) continue;
    ++selects;
    if (r.select_status != 200) {
      ++failed_selects;
      checker->Fail(r.name + ": select answered " +
                    std::to_string(r.select_status));
    }
  }
  a.attempted += runs + selects;
  a.failed = failed_submits + failed_runs + failed_selects;
  std::fprintf(stderr,
               "operations: submits %zu (failed %zu), runs %zu (failed %zu), "
               "selects %zu (failed %zu)\n",
               m.runs.size(), failed_submits, runs, failed_runs, selects,
               failed_selects);
  return a;
}

// Every /v1/select reply must equal KnowledgeBase::Nominate on a copy of the
// server's KB, for the meta-features exactly as the request carried them.
// Returns, per run, the accuracy the KB records for the top nomination.
std::vector<double> CheckSelects(const Measurement& m,
                                 const smartml::KnowledgeBase& kb,
                                 const smartml::SmartMlOptions& options,
                                 Checker* checker) {
  smartml::NominationOptions nomination = options.nomination;
  nomination.max_algorithms = options.max_nominations;
  nomination.max_neighbors = options.kb_neighbors;
  const auto& names = smartml::MetaFeatureNames();
  std::vector<double> top_accuracy;
  for (const RunRecord& r : m.runs) {
    if (r.select_status != 200) continue;
    auto body = smartml::ParseJson(SelectBody(r.meta_features));
    const smartml::JsonValue* features =
        body.ok() ? body->Find("meta_features") : nullptr;
    if (features == nullptr) {
      checker->Fail(r.name + ": unparsable select body");
      continue;
    }
    smartml::MetaFeatureVector mf{};
    for (size_t i = 0; i < names.size(); ++i) {
      mf[i] = features->Find(names[i])->number;
    }
    const auto nominations = kb.Nominate(mf, nomination);
    if (smartml::NominationsToJson(nominations) != r.select_reply) {
      checker->Fail(r.name + ": select reply differs from Nominate");
    }
    if (nominations.empty()) continue;
    double best = 0.0;
    for (const smartml::KbNeighbor& n :
         kb.NearestRecords(mf, options.kb_neighbors)) {
      for (const smartml::KbAlgorithmResult& result : n.record.results) {
        if (result.algorithm == nominations.front().algorithm) {
          best = std::max(best, result.accuracy);
        }
      }
    }
    top_accuracy.push_back(best);
  }
  return top_accuracy;
}

// Tuning runs: done and not degraded, each candidate at its share of the
// evaluation cap, the same outcome on every pass over an input, and the
// values recorded beside the benchmark.
void CheckRuns(const WorkloadSpec& spec, const Args& args,
               const Measurement& m, Checker* checker) {
  const int evals = std::atoi(
      spec.run_query.substr(spec.run_query.find("evals=") + 6).c_str());
  auto expected_doc = smartml::ParseJson(ReadFile(args.expected_path));
  const smartml::JsonValue* expected =
      expected_doc.ok() ? expected_doc->Find(spec.name) : nullptr;
  if (expected == nullptr) {
    checker->Fail("no recorded values for " + spec.name + " in " +
                  args.expected_path);
  }
  const bool exact = expected != nullptr;
  std::map<size_t, const RunRecord*> first;
  double accuracy_sum = 0.0;
  size_t accuracy_n = 0;
  for (const RunRecord& r : m.runs) {
    if (!r.fetched) continue;
    if (r.degraded || r.failed_candidates > 0) {
      checker->Fail(r.name + ": degraded run");
    }
    const std::vector<int> caps = CapSplit(r, evals);
    for (size_t i = 0; i < r.candidates.size(); ++i) {
      const Candidate& c = r.candidates[i];
      if (static_cast<int>(c.evaluations) != caps[i]) {
        checker->Fail(r.name + ": " + c.algorithm + " ran " +
                      std::to_string(c.evaluations) +
                      " fold evaluations, cap " +
                      std::to_string(caps[i]));
      }
    }
    auto [it, inserted] = first.emplace(r.input, &r);
    if (!inserted) {
      const RunRecord& f = *it->second;
      bool same = f.best_algorithm == r.best_algorithm &&
                  f.accuracy == r.accuracy &&
                  f.candidates.size() == r.candidates.size();
      for (size_t i = 0; same && i < r.candidates.size(); ++i) {
        same = f.candidates[i].algorithm == r.candidates[i].algorithm &&
               f.candidates[i].evaluations == r.candidates[i].evaluations;
      }
      if (!same) checker->Fail(r.name + ": differs from its first pass");
      continue;
    }
    accuracy_sum += r.accuracy;
    ++accuracy_n;
    std::fprintf(stderr, "run %-14s best %-14s acc %.10f latency %.3fs evals",
                 r.name.c_str(), r.best_algorithm.c_str(), r.accuracy,
                 r.latency_s);
    for (const Candidate& c : r.candidates) {
      std::fprintf(stderr, " %s:%zu", c.algorithm.c_str(), c.evaluations);
    }
    std::fprintf(stderr, "\n");
    if (!exact) continue;
    const smartml::JsonValue* runs = expected->Find("runs");
    const smartml::JsonValue* want =
        runs != nullptr ? runs->Find(r.name) : nullptr;
    if (want == nullptr) {
      checker->Fail(r.name + ": no recorded values");
      continue;
    }
    const smartml::JsonValue* best = want->Find("best_algorithm");
    if (best == nullptr || best->string != r.best_algorithm) {
      checker->Fail(r.name + ": best algorithm " + r.best_algorithm +
                    " differs from the recorded one");
    }
    const smartml::JsonValue* want_evals = want->Find("evaluations");
    for (const Candidate& c : r.candidates) {
      const smartml::JsonValue* n =
          want_evals != nullptr ? want_evals->Find(c.algorithm) : nullptr;
      if (n == nullptr || n->number != static_cast<double>(c.evaluations)) {
        checker->Fail(r.name + ": " + c.algorithm + " evaluation count " +
                      std::to_string(c.evaluations) +
                      " differs from the recorded one");
      }
    }
  }
  if (exact && accuracy_n > 0) {
    const smartml::JsonValue* want = expected->Find("accuracy_mean");
    const double got = accuracy_sum / static_cast<double>(accuracy_n);
    if (want == nullptr || std::fabs(want->number - got) > 1e-9) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "accuracy_mean %.12f differs from the recorded one", got);
      checker->Fail(buf);
    }
  }
}

void PrintResult(bool correct, const Accounting& accounting,
                 const std::vector<std::pair<std::string, std::string>>& units,
                 const std::map<std::string, double>& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(accounting.attempted);
  line += ", \"failed\": " + std::to_string(accounting.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < units.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", values.at(units[i].first));
    line += (i > 0 ? ", \"" : "\"") + units[i].first + "\": {\"value\": " +
            value + ", \"unit\": \"" + units[i].second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: smartml_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --kb FILE --expected FILE "
                 "--work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!std::filesystem::exists(args.kb_path) ||
      !std::filesystem::exists(args.expected_path)) {
    std::fprintf(stderr, "missing %s or %s\n", args.kb_path.c_str(),
                 args.expected_path.c_str());
    return 2;
  }
  const std::string journal_dir = args.work_dir + "/journal";
  Checker checker;

  // Set-up, repeated: everything before the first timed request, in
  // process CPU seconds. The last set-up's server is the one measured (the
  // fixed lists) or scraped before the window (the mix, whose rounds each
  // start a fresh server).
  std::vector<double> setup_seconds;
  std::unique_ptr<BenchServer> server;
  Inputs inputs;
  HostSpeed speed;
  double jobs_at_start = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    std::filesystem::remove_all(journal_dir);
    const double cpu_start = ProcessCpuSeconds();
    smartml::MetaFeatureCache::Global().Clear();
    inputs = MakeInputs(*spec, args.seed);
    std::filesystem::create_directories(journal_dir);
    auto started = BenchServer::Start(*spec, args.kb_path, journal_dir);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    server = std::move(*started);
    jobs_at_start = RetainedJobs(server->port());
    HttpConnection connection(server->port());
    for (const Upload& upload : inputs.warmup) {
      const RunRecord warm = RunOnce(&connection, server->port(), *spec,
                                     upload.name, upload.csv, nullptr);
      if (warm.terminal != "done" || warm.select_status != 200) {
        checker.Fail("warm-up run ended '" + warm.terminal + "'");
      }
    }
    setup_seconds.push_back(ProcessCpuSeconds() - cpu_start);
    speed.Sample(kSpeedPasses);
  }
  std::sort(setup_seconds.begin(), setup_seconds.end());
  // A fresh server per serve-durable round: empty job table and journal,
  // cold meta-feature cache.
  const RestartServer restart = [&]() -> int {
    server.reset();
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
    smartml::MetaFeatureCache::Global().Clear();
    auto started = BenchServer::Start(*spec, args.kb_path, journal_dir);
    if (!started.ok()) {
      checker.Fail("server restart failed: " + started.status().ToString());
      return -1;
    }
    server = std::move(*started);
    jobs_at_start = RetainedJobs(server->port());
    return server->port();
  };

  // The timed window. Resetting the peak-RSS mark makes rss_peak_mb the
  // window's peak rather than the set-ups'.
  std::ofstream("/proc/self/clear_refs") << "5";
  SpanRecorder spans(args.trace, SpanRecorder::Clock::now());
  const std::map<std::string, double> metrics_before =
      ScrapeMetrics(server->port());
  const Measurement m = Measure(*spec, inputs, server->port(), restart,
                                args.seed, args.seconds, &speed, &spans);
  if (server == nullptr) {
    std::fprintf(stderr, "no server to measure\n");
    return 2;
  }
  const double loop_trace_overhead = spans.overhead_seconds();
  const std::map<std::string, double> metrics_after =
      ScrapeMetrics(server->port());
  const double rss_peak_mb = PeakRssMb();
  const double retained = RetainedJobs(server->port()) - jobs_at_start;
  const double journal_bytes = DirectoryBytes(journal_dir);

  // Output checks.
  const Accounting accounting = Account(m, &checker);
  const smartml::SmartMlOptions options = BaseOptions();
  smartml::KnowledgeBase oracle_kb = server->framework().kb();
  std::vector<double> accuracies =
      CheckSelects(m, oracle_kb, options, &checker);
  if (spec->tunes) {
    // Runs that tune: the winner's accuracy, not the KB's.
    accuracies.clear();
    CheckRuns(*spec, args, m, &checker);
    for (const RunRecord& r : m.runs) {
      if (r.fetched) accuracies.push_back(r.accuracy);
    }
  }

  const Timing timing = WindowTiming(m);
  if (!timing.round_runs_per_min.empty()) {
    std::string rounds;
    for (double v : timing.round_runs_per_min) {
      rounds += ' ';
      rounds += std::to_string(static_cast<int>(v));
    }
    std::fprintf(stderr, "runs/min by round:%s\n", rounds.c_str());
  }
  // CPU times at the calibration host's speed (see speed.h).
  const double setup_s = speed.Scale() * setup_seconds[kSetups / 2];
  const double cpu_ms_per_run = speed.Scale() * timing.cpu_ms_per_run;
  double accuracy_mean = 0.0;
  for (double a : accuracies) accuracy_mean += a;
  if (!accuracies.empty()) {
    accuracy_mean /= static_cast<double>(accuracies.size());
  }
  std::fprintf(stderr,
               "workload %s seed %llu: %zu runs in %.2fs (%zu passes, %zu "
               "rounds), %.2f runs/min, %.3f CPU ms per run, set-up CPU "
               "median %.3fs (%.3f-%.3f), reference pass %.3f ms, "
               "accuracy_mean %.12f\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               timing.done, m.elapsed_s, m.passes, m.rounds.size(),
               timing.runs_per_min, timing.cpu_ms_per_run,
               setup_seconds[kSetups / 2], setup_seconds.front(),
               setup_seconds.back(), 1e3 * speed.MedianSeconds(),
               accuracy_mean);

  if (!args.trace) {
    std::map<std::string, double> values;
    values["setup_s"] = setup_s;
    values["cpu_ms_per_run"] = cpu_ms_per_run;
    values["accuracy_mean"] = accuracy_mean;
    values["rss_peak_mb"] = rss_peak_mb;
    values["ok_frac"] =
        accounting.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(accounting.failed) /
                        static_cast<double>(accounting.attempted);
    server.reset();
    std::filesystem::remove_all(args.work_dir);
    PrintResult(checker.ok() && accounting.attempted > 0, accounting,
                {{"setup_s", "s"},
                 {"cpu_ms_per_run", "ms"},
                 {"accuracy_mean", "fraction"},
                 {"rss_peak_mb", "MB"},
                 {"ok_frac", "fraction"}},
                values);
    return checker.ok() && accounting.attempted > 0 ? 0 : 1;
  }

  LayerContext context;
  context.spec = spec;
  context.inputs = &inputs;
  context.measurement = &m;
  context.metrics_before = metrics_before;
  context.metrics_after = metrics_after;
  context.retained_jobs = retained;
  context.journal_bytes = journal_bytes;
  context.loop_trace_overhead_s = loop_trace_overhead;
  context.cpu_ms_per_run = cpu_ms_per_run;
  context.reference_ms = 1e3 * speed.MedianSeconds();
  context.kb_path = args.kb_path;
  context.work_dir = args.work_dir;
  context.port = server->port();
  context.spans = &spans;
  context.failures = checker.failures();
  const std::map<std::string, double> values = PerLayerMetrics(context);
  server.reset();
  if (!args.trace_out.empty() && !spans.WriteJson(args.trace_out)) {
    checker.Fail("could not write " + args.trace_out);
  }
  std::filesystem::remove_all(args.work_dir);
  PrintResult(checker.ok() && accounting.attempted > 0, accounting,
              PerLayerMetricUnits(), values);
  return checker.ok() && accounting.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
