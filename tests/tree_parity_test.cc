// Learner-level parity: every learner's PredictProba output, and the four
// landmarking meta-features, are pinned as checksums of their exact
// IEEE-754 bit patterns. The tree learners' values were recorded from the
// two-grower engine that preceded the single split scan (exact and
// histogram growth as separate code paths, per-node child/count vectors,
// three tree walks); any drift in a gain, threshold, tie-break, leaf count
// or vote summation order changes a checksum. The other seven learners'
// values were recorded before their fit and predict preconditions moved
// into the Classifier base.
//
// Two fixed synthetic tables: one all-numeric with more than 255 distinct
// values per column (so the shared view is quantile-binned), one with
// categorical columns and missing cells. Each is checked at 1 and 8 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/landmarking.h"
#include "src/ml/registry.h"

namespace smartml {
namespace {

// FNV-1a over the bit pattern of every double, row-major.
uint64_t HashBits(const std::vector<std::vector<double>>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& row : rows) {
    for (double v : row) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Dataset NumericTable() {
  SyntheticSpec spec;
  spec.num_instances = 600;
  spec.num_informative = 6;
  spec.num_noise = 2;
  spec.num_classes = 3;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.2;
  spec.label_noise = 0.05;
  spec.seed = 101;
  return GenerateSynthetic(spec);
}

Dataset CategoricalTable() {
  SyntheticSpec spec;
  spec.num_instances = 400;
  spec.num_informative = 4;
  spec.num_noise = 2;
  spec.num_categorical = 3;
  spec.categorical_cardinality = 5;
  spec.num_classes = 3;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.2;
  spec.label_noise = 0.05;
  spec.missing_fraction = 0.1;
  spec.seed = 202;
  return GenerateSynthetic(spec);
}

struct Learner {
  std::string label;
  std::string algorithm;
  ParamConfig config;
};

std::vector<Learner> Learners() {
  std::vector<Learner> out;
  auto add = [&](std::string label, std::string algorithm) -> ParamConfig& {
    ParamConfig config = SpaceFor(algorithm).value().DefaultConfig();
    out.push_back({std::move(label), std::move(algorithm), std::move(config)});
    return out.back().config;
  };
  add("j48", "j48");
  add("c50_boosted", "c50").SetInt("trials", 8);
  {
    ParamConfig& c = add("c50_winnowed", "c50");
    c.SetChoice("winnow", "yes");
    c.SetInt("trials", 4);
    c.SetDouble("CF", 0.05);
  }
  add("part", "part");
  add("rpart", "rpart").SetDouble("cp", 0.002);
  add("bagging", "bagging").SetInt("nbagg", 12);
  add("random_forest", "random_forest").SetInt("ntree", 30);
  add("deepboost", "deepboost").SetInt("num_iter", 12);
  add("lmt", "lmt");
  add("svm", "svm");
  add("naive_bayes", "naive_bayes");
  add("knn", "knn");
  add("lda", "lda");
  add("rda", "rda");
  add("plsda", "plsda");
  add("neuralnet", "neuralnet");
  return out;
}

struct Expected {
  std::string label;
  uint64_t checksum;
};

// Fits each learner on the first 70% of rows, predicts every row (so both
// training and held-out routing are covered) and compares checksums.
void CheckTable(const Dataset& data, const std::vector<Expected>& expected,
                const std::vector<uint64_t>& expected_landmarks) {
  std::vector<size_t> train_rows;
  for (size_t r = 0; r < data.NumRows() * 7 / 10; ++r) train_rows.push_back(r);
  const Dataset train = data.Subset(train_rows);
  const std::vector<Learner> learners = Learners();
  ASSERT_EQ(learners.size(), expected.size());

  for (int threads : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ScopedRunContext scope({.pool = pool.get()});
    for (size_t i = 0; i < learners.size(); ++i) {
      const Learner& l = learners[i];
      SCOPED_TRACE(l.label);
      ASSERT_EQ(l.label, expected[i].label);
      auto model = CreateClassifier(l.algorithm);
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(model.value()->Fit(train, l.config).ok());
      auto proba = model.value()->PredictProba(data);
      ASSERT_TRUE(proba.ok());
      const uint64_t got = HashBits(proba.value());
      EXPECT_EQ(got, expected[i].checksum)
          << l.label << " got 0x" << std::hex << got;
    }
    auto lm = ExtractLandmarkers(data);
    ASSERT_TRUE(lm.ok());
    for (size_t k = 0; k < kNumLandmarkers; ++k) {
      EXPECT_EQ(Bits(lm.value()[k]), expected_landmarks[k])
          << LandmarkerNames()[k] << " got 0x" << std::hex
          << Bits(lm.value()[k]) << " (" << lm.value()[k] << ")";
    }
  }
}

TEST(TreeParityTest, NumericTableOverTwoHundredFiftyFiveDistinctValues) {
  const Dataset data = NumericTable();
  const auto binned = data.Binned();
  for (size_t f = 0; f < binned->num_features(); ++f) {
    ASSERT_FALSE(binned->column(f).lossless) << "feature " << f;
  }
  CheckTable(data,
             {{"j48", 0x4f63304a8a0fb34dull},
              {"c50_boosted", 0x1b0ee58e2c0079c3ull},
              {"c50_winnowed", 0xe2533e6fc3d9f096ull},
              {"part", 0x8a9d6763d639a3bbull},
              {"rpart", 0x69936a491f9052d3ull},
              {"bagging", 0x684779ebabd45626ull},
              {"random_forest", 0x19e7250f97ba29d3ull},
              {"deepboost", 0x8d507a0b109b59b5ull},
              {"lmt", 0x550c8244e50d7626ull},
              {"svm", 0xe66a9467033fd450ull},
              {"naive_bayes", 0x9ea67e368a63b883ull},
              {"knn", 0x11e8120116ddf66eull},
              {"lda", 0x1f7c3795865fd4c5ull},
              {"rda", 0xdf197f7bbaf98452ull},
              {"plsda", 0x6578fc25e1e93d25ull},
              {"neuralnet", 0xd7d65a4c9d2d7906ull}},
             {0x3fe3a06d3a06d3a0ull, 0x3fe999999999999aull, 0x3fdd0369d0369d03ull,
              0x3feae147ae147ae1ull});
}

TEST(TreeParityTest, CategoricalTableWithMissingCells) {
  const Dataset data = CategoricalTable();
  size_t categorical = 0;
  size_t missing = 0;
  for (size_t f = 0; f < data.NumFeatures(); ++f) {
    categorical += data.feature(f).is_categorical();
    for (double v : data.feature(f).values) missing += IsMissing(v);
  }
  ASSERT_GT(categorical, 0u);
  ASSERT_GT(missing, 0u);
  CheckTable(data,
             {{"j48", 0x6c81cc0419f35812ull},
              {"c50_boosted", 0x443cc52ec50c5e8cull},
              {"c50_winnowed", 0x78ad03592ce01f7eull},
              {"part", 0xe8dae4ada175e7caull},
              {"rpart", 0x52126bc03f2f345eull},
              {"bagging", 0xb386f3e59755a76dull},
              {"random_forest", 0x2405c877c8506445ull},
              {"deepboost", 0xeec968e9b1303bcdull},
              {"lmt", 0xe335f8346a1a81c0ull},
              {"svm", 0x555fc3de585b3adaull},
              {"naive_bayes", 0xf921f20c953cdd45ull},
              {"knn", 0x271a7ede7efa1f7aull},
              {"lda", 0x45cba6ebcc44eb77ull},
              {"rda", 0x9d8aae6a633c6841ull},
              {"plsda", 0x773c13474fffadc2ull},
              {"neuralnet", 0xb2245ed7be252c9eull}},
             {0x3fe79435e50d7943ull, 0x3febca1af286bca2ull, 0x3fe21af286bca1afull,
              0x3fe9435e50d79436ull});
}

// RandomForest at the table4 shape: 10 classes, quantile-binned columns
// (more than 255 distinct values each) with missing cells, every
// nodesize x mtry_frac pair from {1, 5} x {0.1, 0.5}. Forest nodes sample
// features, so these pin the sampled-feature split statistics.
Dataset ForestTable() {
  SyntheticSpec spec;
  spec.num_instances = 700;
  spec.num_informative = 14;
  spec.num_noise = 6;
  spec.num_classes = 10;
  spec.clusters_per_class = 1;
  spec.class_sep = 1.0;
  spec.label_noise = 0.05;
  spec.missing_fraction = 0.05;
  spec.seed = 303;
  return GenerateSynthetic(spec);
}

TEST(TreeParityTest, RandomForestTenClassesQuantileBinnedWithMissingCells) {
  const Dataset data = ForestTable();
  ASSERT_EQ(data.NumClasses(), 10u);
  const auto binned = data.Binned();
  for (size_t f = 0; f < binned->num_features(); ++f) {
    ASSERT_FALSE(binned->column(f).lossless) << "feature " << f;
  }
  size_t missing = 0;
  for (size_t f = 0; f < data.NumFeatures(); ++f) {
    for (double v : data.feature(f).values) missing += IsMissing(v);
  }
  ASSERT_GT(missing, 0u);

  std::vector<size_t> train_rows;
  for (size_t r = 0; r < data.NumRows() * 7 / 10; ++r) train_rows.push_back(r);
  const Dataset train = data.Subset(train_rows);
  struct Case {
    int nodesize;
    double mtry_frac;
    uint64_t checksum;
  };
  const Case cases[] = {{1, 0.1, 0x1302078625cc15deull},
                        {1, 0.5, 0x838eb05ac616c50cull},
                        {5, 0.1, 0x8cf9166131eef529ull},
                        {5, 0.5, 0xfa12f9db9ec21bd2ull}};
  for (int threads : {1, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ScopedRunContext scope({.pool = pool.get()});
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " nodesize="
                                      << c.nodesize
                                      << " mtry_frac=" << c.mtry_frac);
      ParamConfig config = SpaceFor("random_forest").value().DefaultConfig();
      config.SetInt("ntree", 12);
      config.SetInt("nodesize", c.nodesize);
      config.SetDouble("mtry_frac", c.mtry_frac);
      auto model = CreateClassifier("random_forest");
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(model.value()->Fit(train, config).ok());
      auto proba = model.value()->PredictProba(data);
      ASSERT_TRUE(proba.ok());
      const uint64_t got = HashBits(proba.value());
      EXPECT_EQ(got, c.checksum) << "got 0x" << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace smartml
