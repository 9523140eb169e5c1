// Framework micro-benchmarks (google-benchmark): the per-component costs
// behind SmartML's phases — meta-feature extraction, KB retrieval, surrogate
// fitting/prediction, SMAC iterations, preprocessing, and single classifier
// fits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/api/json.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/core/smartml.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/interpret/interpret.h"
#include "src/kb/knowledge_base.h"
#include "src/metafeatures/metafeatures.h"
#include "src/ml/decision_tree.h"
#include "src/ml/registry.h"
#include "src/persist/journal.h"
#include "src/preprocess/preprocess.h"
#include "src/tuning/objective.h"
#include "src/tuning/smac.h"

namespace smartml {
namespace {

Dataset BenchDataset(size_t rows, size_t features) {
  SyntheticSpec spec;
  spec.num_instances = rows;
  spec.num_informative = features / 2;
  spec.num_noise = features - features / 2;
  spec.num_classes = 3;
  spec.seed = 11;
  return GenerateSynthetic(spec);
}

void BM_MetaFeatureExtraction(benchmark::State& state) {
  const Dataset d = BenchDataset(static_cast<size_t>(state.range(0)), 16);
  for (auto _ : state) {
    auto mf = ExtractMetaFeatures(d);
    benchmark::DoNotOptimize(mf);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(d.NumRows()));
}
BENCHMARK(BM_MetaFeatureExtraction)->Arg(100)->Arg(1000)->Arg(5000);

void BM_KbNomination(benchmark::State& state) {
  KnowledgeBase kb;
  Rng rng(3);
  for (int64_t i = 0; i < state.range(0); ++i) {
    KbRecord record;
    record.dataset_name = "d";
    record.dataset_name += std::to_string(i);
    for (auto& v : record.meta_features) v = rng.Uniform(0, 100);
    for (const char* algo : {"knn", "svm", "rpart"}) {
      KbAlgorithmResult r;
      r.algorithm = algo;
      r.accuracy = rng.Uniform();
      record.results.push_back(r);
    }
    kb.AddRecord(record);
  }
  MetaFeatureVector query{};
  for (auto& v : query) v = rng.Uniform(0, 100);
  NominationOptions options;
  for (auto _ : state) {
    auto nominations = kb.Nominate(query, options);
    benchmark::DoNotOptimize(nominations);
  }
}
BENCHMARK(BM_KbNomination)->Arg(50)->Arg(500)->Arg(5000);

// Synthetic meta-feature vectors with low intrinsic dimension: a few latent
// factors drive all 25 dimensions, like real meta-features (instance and
// feature counts correlate with most derived statistics). Uniform 25-dim
// noise would be adversarial for any spatial index — in truly uniform high-
// dimensional data no axis gap can prune — and is not what KBs of real
// datasets look like.
MetaFeatureVector ClusteredMetaFeatures(Rng& rng,
                                        const double (&loadings)[3][25],
                                        const double (&centers)[8][3]) {
  const size_t cluster = static_cast<size_t>(rng.Uniform(0, 8));
  double factors[3];
  for (size_t f = 0; f < 3; ++f) {
    factors[f] = centers[cluster][f] + 0.3 * rng.Normal();
  }
  MetaFeatureVector mf{};
  for (size_t d = 0; d < kNumMetaFeatures; ++d) {
    for (size_t f = 0; f < 3; ++f) mf[d] += factors[f] * loadings[f][d];
    mf[d] += 0.01 * rng.Normal();
  }
  return mf;
}

struct LookupBenchData {
  KnowledgeBase kb;
  MetaFeatureVector query{};
};

// Built once per size and shared across benchmark re-runs: google-benchmark
// re-enters the function while calibrating iteration counts, and a 100k
// record KB is too expensive to rebuild each time.
const LookupBenchData& LookupBench(int64_t n) {
  static std::map<int64_t, LookupBenchData>* cache =
      new std::map<int64_t, LookupBenchData>();
  auto it = cache->find(n);
  if (it != cache->end()) return it->second;
  Rng rng(17);
  double loadings[3][25];
  for (auto& row : loadings) {
    for (double& v : row) v = rng.Normal();
  }
  double centers[8][3];
  for (auto& c : centers) {
    for (double& v : c) v = 4.0 * rng.Normal();
  }
  LookupBenchData& data = (*cache)[n];
  for (int64_t i = 0; i < n; ++i) {
    KbRecord record;
    record.dataset_name = "d";
    record.dataset_name += std::to_string(i);
    record.meta_features = ClusteredMetaFeatures(rng, loadings, centers);
    KbAlgorithmResult r;
    r.algorithm = "rf";
    r.accuracy = rng.Uniform();
    record.results.push_back(r);
    data.kb.AddRecord(record);
  }
  // A held-out query from the same distribution (a new dataset resembling
  // known ones — the serving scenario).
  data.query = ClusteredMetaFeatures(rng, loadings, centers);
  return data;
}

// The serving-path lookup against the cached normalized index, pinned to
// the linear scan: one normalizer Apply for the query, distances against
// precomputed vectors, partial_sort on k. This is the A/B baseline the k-d
// tree leg is gated against.
void BM_KbLookupCached(benchmark::State& state) {
  KnowledgeBase kb = LookupBench(state.range(0)).kb;
  kb.SetLookupStrategy(KbLookupStrategy::kLinearScan);
  const MetaFeatureVector query = LookupBench(state.range(0)).query;
  for (auto _ : state) {
    auto neighbors = kb.NearestRecords(query, 3);
    benchmark::DoNotOptimize(neighbors);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KbLookupCached)->Arg(1000)->Arg(10000)->Arg(100000);

// The same lookup through the k-d tree index. Byte-identical results to
// BM_KbLookupCached (tests/kb_index_test.cc holds the equivalence); the
// ratio between the two at 100k records is the sublinear-lookup acceptance
// signal, gated by scripts/bench_gate.py.
void BM_KbLookupKdTree(benchmark::State& state) {
  KnowledgeBase kb = LookupBench(state.range(0)).kb;
  kb.SetLookupStrategy(KbLookupStrategy::kKdTree);
  const MetaFeatureVector query = LookupBench(state.range(0)).query;
  for (auto _ : state) {
    auto neighbors = kb.NearestRecords(query, 3);
    benchmark::DoNotOptimize(neighbors);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KbLookupKdTree)->Arg(1000)->Arg(10000)->Arg(100000);

// The pre-cache baseline: re-normalize every record per lookup and fully
// sort all candidates. Kept as a reference point for the index speedup.
void BM_KbLookupLinearScan(benchmark::State& state) {
  const KnowledgeBase& kb = LookupBench(state.range(0)).kb;
  const std::vector<KbRecord> records = kb.SnapshotRecords();
  MetaFeatureNormalizer normalizer;
  std::vector<MetaFeatureVector> all;
  all.reserve(records.size());
  for (const auto& record : records) all.push_back(record.meta_features);
  normalizer.Fit(all);
  const MetaFeatureVector query = LookupBench(state.range(0)).query;
  for (auto _ : state) {
    const MetaFeatureVector q = normalizer.Apply(query);
    std::vector<std::pair<const KbRecord*, double>> scored;
    scored.reserve(records.size());
    for (const auto& record : records) {
      const MetaFeatureVector normalized = normalizer.Apply(record.meta_features);
      scored.emplace_back(&record, MetaFeatureDistance(q, normalized));
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    if (scored.size() > 3) scored.resize(3);
    benchmark::DoNotOptimize(scored);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KbLookupLinearScan)->Arg(1000)->Arg(10000);

// Shared training table for the tree-growth benchmarks, built once per row
// count (50k rows x 50 features is too expensive to regenerate while
// google-benchmark calibrates). The binned view is prepared here, outside
// the timed region, exactly as the forest/boosting call sites do: the view
// is built once per dataset and shared by every tree.
struct TreeBenchData {
  Matrix x{0, 0};
  TreeSchema schema;
  std::vector<int> y;
  std::shared_ptr<const BinnedColumns> binned;
};

const TreeBenchData& TreeBench(int64_t rows) {
  static std::map<int64_t, TreeBenchData>* cache =
      new std::map<int64_t, TreeBenchData>();
  auto it = cache->find(rows);
  if (it != cache->end()) return it->second;
  const Dataset d = BenchDataset(static_cast<size_t>(rows), 50);
  TreeBenchData& data = (*cache)[rows];
  data.x = d.ToRawMatrix();
  data.schema = TreeSchema::FromDataset(d);
  data.y = d.labels();
  data.binned = d.Binned();
  return data;
}

TreeOptions TreeBenchOptions() {
  // Production-ensemble-like settings (cf. the quantile-binning oracle
  // test): deep enough to stress per-node work, with realistic leaf gates.
  TreeOptions options;
  options.criterion = TreeCriterion::kGini;
  options.max_depth = 14;
  options.min_split = 40;
  options.min_leaf = 20;
  return options;
}

// Exact split search (no view): every node sorts its rows per feature and
// makes each distinct value a bin. The A/B baseline for histogram growth.
void BM_TreeGrowExact(benchmark::State& state) {
  const TreeBenchData& data = TreeBench(state.range(0));
  const TreeOptions options = TreeBenchOptions();
  for (auto _ : state) {
    DecisionTree tree;
    benchmark::DoNotOptimize(
        tree.Fit(data.x, data.schema, data.y, 3, {}, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeGrowExact)
    ->Arg(5000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Histogram growth over the shared binned view (per-bin class histograms,
// parent-minus-sibling reuse). The ratio over BM_TreeGrowExact at 50k rows
// is the tentpole acceptance signal, gated by scripts/bench_gate.py (>= 3x).
void BM_TreeGrowHistogram(benchmark::State& state) {
  const TreeBenchData& data = TreeBench(state.range(0));
  const TreeOptions options = TreeBenchOptions();
  for (auto _ : state) {
    DecisionTree tree;
    benchmark::DoNotOptimize(
        tree.Fit(data.x, data.schema, data.y, 3, {}, options, data.binned));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeGrowHistogram)
    ->Arg(5000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// The unrolled squared-distance kernel scanned over a KB-sized block of
// 25-dim meta-feature vectors — the inner loop of every neighbour lookup.
void BM_MetaFeatureDistanceScan(benchmark::State& state) {
  Rng rng(29);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> block(n * kNumMetaFeatures);
  for (double& v : block) v = rng.Uniform(-2.0, 2.0);
  std::vector<double> query(kNumMetaFeatures);
  for (double& v : query) v = rng.Uniform(-2.0, 2.0);
  for (auto _ : state) {
    double best = 1e300;
    for (size_t i = 0; i < n; ++i) {
      const double d2 = SquaredDistance(query.data(),
                                        block.data() + i * kNumMetaFeatures,
                                        kNumMetaFeatures);
      if (d2 < best) best = d2;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaFeatureDistanceScan)->Arg(10000);

void BM_KbSerialize(benchmark::State& state) {
  KnowledgeBase kb;
  Rng rng(3);
  for (int64_t i = 0; i < state.range(0); ++i) {
    KbRecord record;
    record.dataset_name = "d";
    record.dataset_name += std::to_string(i);
    for (auto& v : record.meta_features) v = rng.Uniform();
    KbAlgorithmResult r;
    r.algorithm = "svm";
    r.accuracy = 0.9;
    r.best_config.SetDouble("C", 1.0);
    record.results.push_back(r);
    kb.AddRecord(record);
  }
  for (auto _ : state) {
    const std::string text = kb.Serialize();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_KbSerialize)->Arg(50)->Arg(500);

void BM_SurrogateFit(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<size_t>(state.range(0));
  Matrix x(n, 8);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 8; ++j) x(i, j) = rng.Uniform();
    y[i] = rng.Uniform();
  }
  for (auto _ : state) {
    RegressionForest forest;
    benchmark::DoNotOptimize(forest.Fit(x, y, {}));
  }
}
BENCHMARK(BM_SurrogateFit)->Arg(50)->Arg(200)->Arg(800);

void BM_SurrogatePredict(benchmark::State& state) {
  Rng rng(5);
  Matrix x(200, 8);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 8; ++j) x(i, j) = rng.Uniform();
    y[i] = rng.Uniform();
  }
  RegressionForest forest;
  (void)forest.Fit(x, y, {});
  std::vector<double> query(8, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(query));
  }
}
BENCHMARK(BM_SurrogatePredict);

void BM_SmacIteration(benchmark::State& state) {
  // Full SMAC runs on a trivial objective: measures optimizer overhead per
  // evaluation (surrogate refit + EI search + bookkeeping).
  class FreeObjective : public TuningObjective {
   public:
    size_t NumFolds() const override { return 1; }
    StatusOr<double> EvaluateFold(const ParamConfig& config, size_t) override {
      const double x = config.GetDouble("x", 0);
      return x * x;
    }
  };
  ParamSpace space;
  space.AddDouble("x", -1, 1, 0.5);
  space.AddDouble("y", -1, 1, 0.5);
  space.AddCategorical("mode", {"a", "b"}, "a");
  for (auto _ : state) {
    FreeObjective objective;
    SmacOptions options;
    options.max_evaluations = static_cast<int>(state.range(0));
    options.seed = 7;
    auto result = Smac(space, &objective, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SmacIteration)->Arg(20)->Arg(60);

void BM_PreprocessPca(benchmark::State& state) {
  const Dataset d = BenchDataset(static_cast<size_t>(state.range(0)), 24);
  for (auto _ : state) {
    auto p = CreatePreprocessor(PreprocessOp::kPca);
    (void)p->Fit(d);
    auto out = p->Transform(d);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PreprocessPca)->Arg(200)->Arg(1000);

void BM_ClassifierFit(benchmark::State& state, const char* name) {
  const Dataset d = BenchDataset(300, 12);
  auto space = SpaceFor(name);
  for (auto _ : state) {
    auto model = CreateClassifier(name);
    benchmark::DoNotOptimize((*model)->Fit(d, space->DefaultConfig()));
  }
}
BENCHMARK_CAPTURE(BM_ClassifierFit, knn, "knn");
BENCHMARK_CAPTURE(BM_ClassifierFit, naive_bayes, "naive_bayes");
BENCHMARK_CAPTURE(BM_ClassifierFit, rpart, "rpart");
BENCHMARK_CAPTURE(BM_ClassifierFit, j48, "j48");
BENCHMARK_CAPTURE(BM_ClassifierFit, lda, "lda");
BENCHMARK_CAPTURE(BM_ClassifierFit, random_forest, "random_forest");
BENCHMARK_CAPTURE(BM_ClassifierFit, svm, "svm");
BENCHMARK_CAPTURE(BM_ClassifierFit, neuralnet, "neuralnet");

// RandomForest fit at the table4 shape (900 rows x 60 features, 10
// classes, quantile-binned columns) with table4's forest settings. Every
// node samples features, so this times the occupied-bin split statistics.
// Reported by the CI bench smoke; not gated.
void BM_ForestFit(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_instances = 900;
  spec.num_informative = 30;
  spec.num_noise = 30;
  spec.num_classes = 10;
  spec.seed = 11;
  const Dataset d = GenerateSynthetic(spec);
  ParamConfig config = SpaceFor("random_forest")->DefaultConfig();
  config.SetInt("ntree", 100);
  config.SetInt("nodesize", 1);
  config.SetDouble("mtry_frac", 0.3);
  for (auto _ : state) {
    auto model = CreateClassifier("random_forest");
    benchmark::DoNotOptimize((*model)->Fit(d, config));
  }
}
BENCHMARK(BM_ForestFit)->Unit(benchmark::kMillisecond);

// Permutation importance of a table4-shaped forest (100 trees fitted on
// 700 x 60 with 10 classes) on 226 validation rows, two repeats as in the
// output phase. Times the cached-leaf path: each permutation re-walks only
// the (row, tree) pairs whose path tests the permuted feature. Reported by
// the CI bench smoke; not gated.
void BM_PermutationImportance(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_instances = 926;
  spec.num_informative = 30;
  spec.num_noise = 30;
  spec.num_classes = 10;
  spec.seed = 11;
  const Dataset d = GenerateSynthetic(spec);
  std::vector<size_t> train_rows(700);
  std::vector<size_t> validation_rows(d.NumRows() - train_rows.size());
  std::iota(train_rows.begin(), train_rows.end(), size_t{0});
  std::iota(validation_rows.begin(), validation_rows.end(),
            train_rows.size());
  const Dataset train = d.Subset(train_rows);
  const Dataset validation = d.Subset(validation_rows);
  ParamConfig config = SpaceFor("random_forest")->DefaultConfig();
  config.SetInt("ntree", 100);
  auto model = CreateClassifier("random_forest");
  if (!(*model)->Fit(train, config).ok()) {
    state.SkipWithError("random_forest fit failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PermutationImportance(**model, validation, /*repeats=*/2, 7));
  }
}
BENCHMARK(BM_PermutationImportance)->Unit(benchmark::kMillisecond);

// ReadCsvString on a 300 x 30 upload as a client sends it (WriteCsvString
// output: 17-significant-digit numbers). The admission path parses every
// POST /v1/runs body with it. Reported by the CI bench smoke; not gated.
void BM_ReadCsv(benchmark::State& state) {
  const std::string csv = WriteCsvString(BenchDataset(300, 30));
  for (auto _ : state) {
    auto dataset = ReadCsvString(csv);
    if (!dataset.ok()) state.SkipWithError(dataset.status().ToString().c_str());
    benchmark::DoNotOptimize(dataset);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_ReadCsv)->Unit(benchmark::kMicrosecond);

// WriteCsvString of that 300 x 30 dataset: the bytes BM_ReadCsv parses,
// every numeric cell printed "%.17g". perfbench prints each upload with it.
// Reported by the CI bench smoke; not gated.
void BM_WriteCsv(benchmark::State& state) {
  const Dataset dataset = BenchDataset(300, 30);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string csv = WriteCsvString(dataset);
    bytes = csv.size();
    benchmark::DoNotOptimize(csv.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WriteCsv)->Unit(benchmark::kMicrosecond);

// JsonWriter::Number over 1024 doubles of mixed magnitudes ("%.12g"), as the
// API bodies print scores, accuracies and meta-features. Reported by the CI
// bench smoke; not gated.
void BM_JsonNumber(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> values(1024);
  for (double& v : values) {
    v = (rng.Uniform() - 0.5) * std::pow(10.0, rng.Uniform() * 16.0 - 8.0);
  }
  for (auto _ : state) {
    JsonWriter w;
    w.BeginArray();
    for (const double v : values) w.Number(v);
    w.EndArray();
    benchmark::DoNotOptimize(w.str().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_JsonNumber)->Unit(benchmark::kMicrosecond);

// CRC-32 over a 172 KB buffer, the size of a ~9k-cell upload's kAdmit journal
// record; journal frames, compaction, KB snapshots and checkpoints all
// checksum with it. Reported by the CI bench smoke; not gated.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(172 * 1024, '\0');
  Rng rng(5);
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(uint64_t{256}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

// JSON-escaping that 300 x 30 upload (~172 KB), as admission does to put it
// into the kAdmit journal record. Reported by the CI bench smoke; not gated.
void BM_JsonEscape(benchmark::State& state) {
  const std::string csv = WriteCsvString(BenchDataset(300, 30));
  for (auto _ : state) {
    benchmark::DoNotOptimize(JsonWriter::Escape(csv));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_JsonEscape)->Unit(benchmark::kMicrosecond);

// Framing a kAdmit-sized journal record (the escaped upload as payload):
// the frame copy and its CRC-32. Reported by the CI bench smoke; not gated.
void BM_JournalEncode(benchmark::State& state) {
  const JournalRecord record{
      1, "run-000001",
      JsonWriter::Escape(WriteCsvString(BenchDataset(300, 30)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeJournalFrame(record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(record.payload.size()));
}
BENCHMARK(BM_JournalEncode)->Unit(benchmark::kMicrosecond);

// End-to-end 4-candidate run at a given intra-run thread count. Results are
// bit-identical across the Arg values (see ParallelDeterminismTest); the
// speedup of threads=4 over threads=1 is the CI acceptance signal for the
// parallel execution engine (on multi-core runners only — a 1-core machine
// shows parity).
void BM_ParallelEndToEndRun(benchmark::State& state) {
  const Dataset d = BenchDataset(400, 12);
  SmartMlOptions options;
  options.max_evaluations = 16;
  options.cv_folds = 2;
  options.time_budget_seconds = 1e9;
  options.cold_start_algorithms = {"random_forest", "svm", "rpart", "knn"};
  options.enable_ensembling = false;
  options.enable_interpretability = false;
  options.update_kb = false;
  options.num_threads = static_cast<int>(state.range(0));
  SmartML framework(options);
  for (auto _ : state) {
    auto result = framework.Run(d, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ParallelEndToEndRun)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace smartml

BENCHMARK_MAIN();
