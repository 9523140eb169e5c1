// Ablation C: the weighted similarity scheme. The paper's algorithm
// selection combines two factors — Euclidean meta-feature distance AND the
// magnitude of the best performances on similar datasets — and explicitly
// debates the design space: "it may be better to select the top n top
// performing algorithms on a single very similar dataset than selecting the
// first outperforming algorithm for n similar datasets". This bench measures
// nomination quality under exactly those variants:
//   * full       — the paper's combined scheme (distance x performance
//                  summed over k neighbours);
//   * single-nn  — top-3 algorithms of the single nearest dataset;
//   * top1-of-3  — the best algorithm from each of the 3 nearest datasets;
//   * random     — 3 roster algorithms drawn uniformly.
// Quality metric: how often the nominated top-3 contains the oracle-best
// algorithm for the dataset (oracle = exhaustively short-tuning every
// algorithm in the bootstrap roster).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/core/smartml.h"
#include "src/data/metrics.h"
#include "src/data/split.h"
#include "src/ml/registry.h"
#include "src/tuning/objective.h"
#include "src/tuning/random_search.h"

namespace smartml {
namespace {

// Oracle: best algorithm of the roster after a short random-search tune.
std::string OracleBest(const Dataset& dataset,
                       const std::vector<std::string>& roster) {
  std::string best;
  double best_acc = -1.0;
  for (const std::string& algo : roster) {
    auto model = CreateClassifier(algo);
    auto space = SpaceFor(algo);
    if (!model.ok() || !space.ok()) continue;
    auto split = StratifiedSplit(dataset, 0.25, 42);
    if (!split.ok()) continue;
    auto objective =
        ClassifierObjective::Create(**model, split->train, 2, 42);
    if (!objective.ok()) continue;
    TunerOptions search;
    search.max_evaluations = 10;
    search.seed = 42;
    auto tuned = RandomSearch(*space, objective->get(), search);
    if (!tuned.ok()) continue;
    auto refit = (*model)->Fit(split->train, tuned->best_config);
    if (!refit.ok()) continue;
    auto pred = (*model)->Predict(split->validation);
    if (!pred.ok()) continue;
    const double acc = Accuracy(split->validation.labels(), *pred);
    if (acc > best_acc) {
      best_acc = acc;
      best = algo;
    }
  }
  return best;
}

}  // namespace
}  // namespace smartml

int main(int argc, char** argv) {
  using namespace smartml;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  const size_t num_eval = quick ? 4 : 12;
  KnowledgeBase kb = bench::BootstrapKb(
      quick ? 12 : 50,
      quick ? "" : bench::KbCachePath("smartml_kb_cache.txt"));
  const auto roster = bench::BootstrapRoster();

  // Evaluation datasets: fresh recipes near the bootstrap distribution.
  const auto specs = BootstrapKbSpecs(num_eval, 4242);
  int hits_full = 0, hits_single = 0, hits_top1 = 0, hits_random = 0;
  Rng rng(99);

  std::printf("Ablation C: does the top-3 nomination contain the oracle-best "
              "algorithm? (%zu datasets)\n",
              num_eval);
  bench::PrintRule('=', 108);
  std::printf("%-10s | %-14s | %-30s | %-6s | %-9s | %-9s | %s\n", "dataset",
              "oracle best", "full-scheme top-3", "full", "single-nn",
              "top1-of-3", "random");
  bench::PrintRule('-', 108);

  for (const auto& spec : specs) {
    SyntheticSpec fresh = spec;
    fresh.seed += 31337;
    const Dataset dataset = GenerateSynthetic(fresh);
    const std::string oracle = OracleBest(dataset, roster);
    auto mf = ExtractMetaFeatures(dataset);
    if (!mf.ok() || oracle.empty()) continue;

    auto contains = [&](const std::vector<Nomination>& ns) {
      for (const auto& n : ns) {
        if (n.algorithm == oracle) return true;
      }
      return false;
    };

    NominationOptions full;
    full.max_algorithms = 3;
    full.max_neighbors = 3;
    const auto full_noms = kb.Nominate(*mf, full);
    const bool full_hit = contains(full_noms);

    // "Top n top performing algorithms on a single very similar dataset".
    const auto neighbors = kb.NearestRecords(*mf, 3);
    auto top_of_record = [](const KbRecord& record, size_t n) {
      std::vector<KbAlgorithmResult> sorted = record.results;
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) {
                  return a.accuracy > b.accuracy;
                });
      if (sorted.size() > n) sorted.resize(n);
      return sorted;
    };
    bool single_hit = false;
    if (!neighbors.empty()) {
      for (const auto& r : top_of_record(neighbors[0].record, 3)) {
        single_hit = single_hit || r.algorithm == oracle;
      }
    }

    // "The first outperforming algorithm for n similar datasets".
    bool top1_hit = false;
    for (const auto& neighbor : neighbors) {
      const auto best = top_of_record(neighbor.record, 1);
      if (!best.empty()) top1_hit = top1_hit || best[0].algorithm == oracle;
    }

    // Random nomination of 3 distinct roster algorithms.
    std::vector<std::string> pool = roster;
    rng.Shuffle(&pool);
    bool random_hit = false;
    for (size_t i = 0; i < 3 && i < pool.size(); ++i) {
      random_hit = random_hit || pool[i] == oracle;
    }

    hits_full += full_hit;
    hits_single += single_hit;
    hits_top1 += top1_hit;
    hits_random += random_hit;

    std::string top3;
    for (const auto& n : full_noms) top3 += n.algorithm + " ";
    std::printf("%-10s | %-14s | %-30s | %-6s | %-9s | %-9s | %s\n",
                spec.name.c_str(), oracle.c_str(), top3.c_str(),
                full_hit ? "hit" : "miss", single_hit ? "hit" : "miss",
                top1_hit ? "hit" : "miss", random_hit ? "hit" : "miss");
    std::fflush(stdout);
  }
  bench::PrintRule('=', 108);
  std::printf("oracle-best contained in top-3 nominations:\n");
  std::printf("  full scheme (distance x performance):       %d/%zu\n",
              hits_full, num_eval);
  std::printf("  top-3 of single nearest dataset:            %d/%zu\n",
              hits_single, num_eval);
  std::printf("  top-1 of each of the 3 nearest datasets:    %d/%zu\n",
              hits_top1, num_eval);
  std::printf("  random top-3 (of %zu-algorithm roster):      %d/%zu\n",
              roster.size(), hits_random, num_eval);
  std::printf("expected shape: the combined scheme matches or beats both "
              "single-factor variants; all beat random.\n");
  return 0;
}
