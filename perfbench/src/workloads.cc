#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "src/data/csv.h"
#include "src/data/synthetic.h"

namespace perfbench {
namespace {

using smartml::SyntheticKind;
using smartml::SyntheticSpec;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> out;
    {
      // Learner fit/predict and the output phase's refits dominate.
      // `budget` only caps runaway runs: the evaluation cap always binds.
      WorkloadSpec w;
      w.name = "table4";
      w.seed_kb = true;
      w.run_query = "evals=20&threads=1&budget=600";
      out.push_back(w);
    }
    {
      // Selection-only jobs: admission, the fsynced journal, meta-features
      // and KB lookups, with no learner or tuner work.
      WorkloadSpec w;
      w.name = "serve-durable";
      w.seed_kb = true;
      w.run_query = "selection_only=1&threads=1";
      w.connections = 2;
      w.fixed_list = false;
      w.tunes = false;
      w.journal = true;
      out.push_back(w);
    }
    return out;
  }();
  return workloads;
}

Upload MakeUpload(const SyntheticSpec& spec) {
  return {spec.name, smartml::WriteCsvString(smartml::GenerateSynthetic(spec))};
}

// Small fixed recipe for set-up warm-ups: outside every timed list and
// independent of the seed, so set-up does the same work on every run.
SyntheticSpec WarmupSpec(size_t rows) {
  SyntheticSpec s;
  s.name = "warmup";
  s.kind = SyntheticKind::kGaussianClusters;
  s.num_instances = rows;
  s.num_informative = 6;
  s.num_redundant = 2;
  s.num_classes = 3;
  s.class_sep = 1.2;
  s.seed = 9001;
  return s;
}

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  uint64_t stream = seed;
  if (spec.name == "table4") {
    // The data is the Table-4 recipes at their own seeds for every --seed;
    // the seed only orders the submissions. Run time depends strongly on
    // the tuned configurations, so data drawn per seed would make the
    // spread across seeds measure the data, not the program.
    for (const auto& entry : smartml::Table4Datasets()) {
      inputs.uploads.push_back(MakeUpload(entry.spec));
    }
    for (size_t i = inputs.uploads.size(); i > 1; --i) {
      std::swap(inputs.uploads[i - 1],
                inputs.uploads[SplitMix64(&stream) % i]);
    }
    inputs.warmup.push_back(MakeUpload(WarmupSpec(300)));
  } else {
    // 32 hot datasets (repeated uploads hit the meta-feature cache) and 32
    // cold bases whose row permutations are never seen twice. The shapes
    // are fixed and the values follow the seed: per-job cost scales with
    // the shape, so shapes drawn per seed would make the spread across
    // seeds measure the data.
    std::vector<SyntheticSpec> specs = smartml::BootstrapKbSpecs(64, 4242);
    for (size_t i = 0; i < specs.size(); ++i) {
      specs[i].num_instances = 300;
      specs[i].seed = SplitMix64(&stream);
      char name[32];
      std::snprintf(name, sizeof(name), "%s-%02zu", i < 32 ? "hot" : "cold",
                    i % 32);
      specs[i].name = name;
      (i < 32 ? inputs.uploads : inputs.cold).push_back(MakeUpload(specs[i]));
    }
    for (SyntheticSpec s : smartml::BootstrapKbSpecs(8, 9001)) {
      s.num_instances = 300;
      s.name = "warmup";
      inputs.warmup.push_back(MakeUpload(s));
    }
  }
  return inputs;
}

std::vector<Upload> TunerProbeUploads() {
  std::vector<Upload> out;
  for (const auto& entry : smartml::Table4Datasets()) {
    if (out.size() == kTunerProbeUploads) break;
    SyntheticSpec s = entry.spec;
    s.num_instances = 250;
    out.push_back(MakeUpload(s));
  }
  return out;
}

std::string FreshCsv(const Upload& base, uint64_t key) {
  const size_t header_end = base.csv.find('\n') + 1;
  std::vector<std::string> rows;
  for (size_t pos = header_end; pos < base.csv.size();) {
    size_t end = base.csv.find('\n', pos);
    if (end == std::string::npos) end = base.csv.size();
    rows.push_back(base.csv.substr(pos, end - pos));
    pos = end + 1;
  }
  uint64_t stream = key;
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[SplitMix64(&stream) % i]);
  }
  std::string out = base.csv.substr(0, header_end);
  for (const std::string& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
