// Exactness tests for the number printers: AppendDouble, AppendFixed0 and
// AppendInt must print what snprintf prints for "%.17g", "%.12g", "%.10g",
// "%.0f" and "%lld" (tests/reference_format.h), and the writers built on
// them must print the bytes the snprintf spellings printed.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/api/json.h"
#include "src/common/strings.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/metafeatures.h"
#include "src/tuning/param_space.h"
#include "tests/reference_format.h"

namespace smartml {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::string Double(double value, int precision) {
  std::string out = "prefix:";
  AppendDouble(&out, value, precision);
  return out.substr(7);
}

std::string Fixed0(double value) {
  std::string out;
  AppendFixed0(&out, value);
  return out;
}

/// Checks every spelling the library writes; returns false after the first
/// mismatch so a broken printer reports one value, not a million.
bool ExpectAllSpellings(double value) {
  for (const int precision : {17, 12, 10}) {
    const std::string want = reference_format::G(value, precision);
    const std::string got = Double(value, precision);
    if (got != want) {
      ADD_FAILURE() << "%." << precision << "g of bits 0x" << std::hex
                    << Bits(value) << ": got " << got << ", want " << want;
      return false;
    }
  }
  const std::string want = reference_format::Fixed0(value);
  const std::string got = Fixed0(value);
  if (got != want) {
    ADD_FAILURE() << "%.0f of bits 0x" << std::hex << Bits(value) << ": got "
                  << got << ", want " << want;
    return false;
  }
  return true;
}

TEST(NumberFormatTest, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 rng(20190326);
  size_t checked = 0;
  while (checked < 1000000) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    ASSERT_TRUE(ExpectAllSpellings(value));
    ++checked;
  }
}

TEST(NumberFormatTest, SubnormalsAndEverydayMagnitudesMatchPrintf) {
  std::mt19937_64 rng(7);
  // Subnormals: exponent field 0, random mantissa and sign.
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = (rng() & 0x800fffffffffffffULL);
    ASSERT_TRUE(ExpectAllSpellings(std::bit_cast<double>(bits)));
  }
  // Values as datasets hold them: uniform and log-uniform magnitudes, and
  // short decimals, where "%.0f" and the fixed form of "%g" do the work.
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  std::uniform_real_distribution<double> exponent(-12.0, 22.0);
  std::uniform_int_distribution<int> cents(-100000, 100000);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(ExpectAllSpellings(uniform(rng)));
    ASSERT_TRUE(ExpectAllSpellings(std::pow(10.0, exponent(rng))));
    ASSERT_TRUE(ExpectAllSpellings(cents(rng) / 100.0));
    ASSERT_TRUE(ExpectAllSpellings(cents(rng) + 0.5));
  }
}

TEST(NumberFormatTest, EdgeValuesMatchPrintf) {
  std::vector<double> edges = {0.0,
                               -0.0,
                               0.5,
                               1.5,
                               2.5,
                               -0.5,
                               -2.5,
                               1.0 / 3.0,
                               0.1,
                               DBL_MAX,
                               -DBL_MAX,
                               DBL_MIN,
                               -DBL_MIN,
                               std::numeric_limits<double>::denorm_min(),
                               9007199254740993.0,
                               999999999999.5,
                               9999999999.5,
                               0.99999999999999995};
  // Every power of ten from 1e-310 to 1e308, as strtod rounds it.
  for (int e = -310; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    edges.push_back(std::strtod(text.c_str(), nullptr));
  }
  // Either side of where "%g" switches between its fixed and exponent
  // forms, and where "%.17g" runs out of integer digits.
  for (const double pivot : {1e-5, 1e-4, 1e10, 1e12, 1e15, 1e16, 1e17, 1e21}) {
    double below = pivot;
    double above = pivot;
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, DBL_MAX);
      edges.push_back(below);
      edges.push_back(above);
    }
    edges.push_back(pivot);
  }
  for (const double value : edges) {
    EXPECT_TRUE(ExpectAllSpellings(value));
    EXPECT_TRUE(ExpectAllSpellings(-value));
  }
}

TEST(NumberFormatTest, NonFiniteValuesMatchPrintf) {
  for (const double value :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(ExpectAllSpellings(value));
  }
}

TEST(NumberFormatTest, AppendIntMatchesPrintfAtTheExtremes) {
  for (const int64_t value :
       {std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::min() + 1, int64_t{-1}, int64_t{0},
        int64_t{1}, int64_t{9}, int64_t{10}, int64_t{-10},
        std::numeric_limits<int64_t>::max() - 1,
        std::numeric_limits<int64_t>::max()}) {
    std::string out = "x";
    AppendInt(&out, value);
    EXPECT_EQ(out, "x" + reference_format::Int(value));
  }
}

// A dataset whose numeric cells hit the printer's hard cases: zeros of both
// signs, subnormals, extremes and fixed/exponent pivots, plus missing cells,
// and categories that need CSV quoting.
Dataset EdgeDataset() {
  const std::vector<double> numbers = {
      0.0,     -0.0,     std::numeric_limits<double>::denorm_min(),
      DBL_MAX, -DBL_MIN, 1e-5,
      9.9999999999999991e-5, 1e15, 1e16 + 2, 1e21, 123.456, std::nan("")};
  Dataset d("edges");
  d.AddNumericFeature("x", numbers);
  std::vector<double> codes(numbers.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<double>(i % 3);
  }
  codes[4] = std::nan("");
  d.AddCategoricalFeature("c,\"q\"", codes,
                          {"plain", "has,comma", "say \"hi\""});
  std::vector<int> labels(numbers.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 2);
  }
  d.SetLabels(labels, {"no", "yes,really"});
  return d;
}

std::vector<Dataset> SyntheticShapes() {
  std::vector<Dataset> out;
  SyntheticSpec wide;
  wide.num_instances = 300;
  wide.num_informative = 10;
  wide.num_redundant = 5;
  wide.num_noise = 15;
  out.push_back(GenerateSynthetic(wide));
  SyntheticSpec mixed;
  mixed.num_instances = 120;
  mixed.num_informative = 3;
  mixed.num_categorical = 4;
  mixed.num_classes = 4;
  mixed.missing_fraction = 0.1;
  mixed.seed = 3;
  out.push_back(GenerateSynthetic(mixed));
  SyntheticSpec spirals;
  spirals.kind = SyntheticKind::kSpirals;
  spirals.num_instances = 64;
  spirals.num_informative = 2;
  spirals.num_noise = 1;
  spirals.seed = 9;
  out.push_back(GenerateSynthetic(spirals));
  for (const Table4Entry& entry : Table4Datasets()) {
    out.push_back(GenerateSynthetic(entry.spec));
  }
  out.push_back(EdgeDataset());
  return out;
}

TEST(CsvWriterParityTest, WritesThePrintfBytes) {
  for (const Dataset& d : SyntheticShapes()) {
    for (const char delimiter : {',', ';', '\t'}) {
      const std::string text = WriteCsvString(d, delimiter);
      EXPECT_EQ(text, reference_format::WriteCsv(d, delimiter))
          << d.name() << " delimiter " << static_cast<int>(delimiter);
      // Held for as long as its job lives, so no growth slack.
      EXPECT_EQ(text.capacity(), text.size()) << d.name();
    }
  }
}

TEST(CsvWriterParityTest, RoundTripKeepsEveryNumericBit) {
  for (const Dataset& d : SyntheticShapes()) {
    SCOPED_TRACE(d.name());
    auto back = ReadCsvString(WriteCsvString(d));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->NumFeatures(), d.NumFeatures());
    // The reader codes classes in first-appearance order: compare names.
    ASSERT_EQ(back->NumRows(), d.NumRows());
    for (size_t r = 0; r < d.NumRows(); ++r) {
      EXPECT_EQ(back->class_names()[static_cast<size_t>(back->label(r))],
                d.class_names()[static_cast<size_t>(d.label(r))])
          << "row " << r;
    }
    for (size_t j = 0; j < d.NumFeatures(); ++j) {
      const FeatureColumn& want = d.feature(j);
      const FeatureColumn& got = back->feature(j);
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.type, want.type) << want.name;
      if (want.is_categorical()) continue;
      ASSERT_EQ(got.values.size(), want.values.size());
      for (size_t r = 0; r < want.values.size(); ++r) {
        if (IsMissing(want.values[r])) {
          EXPECT_TRUE(IsMissing(got.values[r])) << want.name << " row " << r;
        } else {
          ASSERT_EQ(Bits(got.values[r]), Bits(want.values[r]))
              << want.name << " row " << r;
        }
      }
    }
  }
}

TEST(JsonWriterParityTest, NumbersAndIntsMatchPrintf) {
  std::mt19937_64 rng(5);
  std::string want = "[";
  JsonWriter w;
  w.BeginArray();
  for (int i = 0; i < 20000; ++i) {
    const double value = std::bit_cast<double>(rng());
    const auto integer = static_cast<int64_t>(rng());
    if (i > 0) want += ',';
    want += std::isfinite(value) ? reference_format::G(value, 12) : "null";
    want += ',' + reference_format::Int(integer);
    w.Number(value);
    w.Int(integer);
  }
  w.EndArray();
  want += ']';
  EXPECT_EQ(w.str(), want);
}

TEST(ParamConfigParityTest, ToStringSpellingsMatchPrintf) {
  ParamConfig config;
  config.SetDouble("a_real", 0.1 + 0.2);
  config.SetInt("b_int", int64_t{-9007199254740993});
  config.SetChoice("c_choice", "gini");
  config.SetDouble("d_tiny", 4.9406564584124654e-324);
  EXPECT_EQ(config.ToString(),
            "a_real=" + reference_format::G(0.1 + 0.2, 12) +
                ";b_int=-9007199254740993L;c_choice=gini;d_tiny=" +
                reference_format::G(4.9406564584124654e-324, 12));
  EXPECT_EQ(config.ToExactString(),
            "a_real=" + reference_format::G(0.1 + 0.2, 17) +
                ";b_int=-9007199254740993L;c_choice=gini;d_tiny=" +
                reference_format::G(4.9406564584124654e-324, 17));
}

TEST(MetaFeaturesParityTest, ToStringMatchesPrintf) {
  MetaFeatureVector mf{};
  std::string want;
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    mf[i] = std::pow(-3.7, static_cast<double>(i)) / 7.0;
    if (i > 0) want += ' ';
    want += reference_format::G(mf[i], 17);
  }
  EXPECT_EQ(MetaFeaturesToString(mf), want);
}

}  // namespace
}  // namespace smartml
