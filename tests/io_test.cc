// Tests for the CSV and ARFF readers/writers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/data/arff.h"
#include "src/data/csv.h"

namespace smartml {
namespace {

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvTest, BasicParseWithHeader) {
  const std::string text =
      "a,b,label\n"
      "1.5,x,yes\n"
      "2.5,y,no\n";
  auto d = ReadCsvString(text);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->NumRows(), 2u);
  EXPECT_EQ(d->NumFeatures(), 2u);
  EXPECT_EQ(d->NumClasses(), 2u);
  EXPECT_FALSE(d->feature(0).is_categorical());
  EXPECT_TRUE(d->feature(1).is_categorical());
  EXPECT_DOUBLE_EQ(d->feature(0).values[1], 2.5);
}

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  auto d = ReadCsvString("1,2,a\n3,4,b\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->feature(0).name, "f0");
  EXPECT_EQ(d->NumClasses(), 2u);
}

TEST(CsvTest, NamedTargetColumn) {
  CsvOptions options;
  options.target_column.append("y");  // Not `= "y"`: GCC 12 -Wrestrict.
  auto d = ReadCsvString("y,x\npos,1\nneg,2\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->NumFeatures(), 1u);
  EXPECT_EQ(d->feature(0).name, "x");
  EXPECT_EQ(d->class_names()[0], "pos");
}

TEST(CsvTest, TargetIndex) {
  CsvOptions options;
  options.target_index = 0;
  auto d = ReadCsvString("y,x\na,1\nb,2\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->feature(0).name, "x");
}

TEST(CsvTest, MissingTokensBecomeNaN) {
  auto d = ReadCsvString("a,b,label\n?,x,yes\nNA,y,no\n1.0,,yes\n");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isnan(d->feature(0).values[0]));
  EXPECT_TRUE(std::isnan(d->feature(0).values[1]));
  EXPECT_TRUE(std::isnan(d->feature(1).values[2]));
  EXPECT_EQ(d->CountMissing(), 3u);
}

TEST(CsvTest, RaggedRowRejected) {
  EXPECT_FALSE(ReadCsvString("a,b,label\n1,2\n").ok());
}

TEST(CsvTest, MissingTargetRejected) {
  EXPECT_FALSE(ReadCsvString("a,label\n1,?\n").ok());
}

TEST(CsvTest, UnknownTargetColumnRejected) {
  CsvOptions options;
  options.target_column = "nope";
  EXPECT_FALSE(ReadCsvString("a,b\n1,2\n", options).ok());
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n").ok());
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  auto d = ReadCsvString("name,label\n\"a,b\",x\nplain,y\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->feature(0).categories[0], "a,b");
}

TEST(CsvTest, RoundTrip) {
  Dataset d("rt");
  d.AddNumericFeature("x", {1.25, -3.5});
  d.AddCategoricalFeature("c", {0, 1}, {"u", "v"});
  d.SetLabels({1, 0}, {"n", "p"});
  const std::string text = WriteCsvString(d);
  auto back = ReadCsvString(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->NumFeatures(), 2u);
  EXPECT_DOUBLE_EQ(back->feature(0).values[0], 1.25);
  EXPECT_EQ(back->feature(1).categories[1], "v");
  // Labels: first appearance order in the written file is p, n... row0=p.
  EXPECT_EQ(back->class_names()[static_cast<size_t>(back->label(0))], "p");
}

TEST(CsvTest, FileRoundTrip) {
  Dataset d("file_rt");
  d.AddNumericFeature("x", {1, 2, 3});
  d.SetLabels({0, 1, 0}, {"a", "b"});
  const std::string path = testing::TempDir() + "/smartml_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(d, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 3u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto d = ReadCsvFile("/nonexistent/path.csv");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// ARFF
// ---------------------------------------------------------------------------

constexpr char kArff[] = R"(% comment line
@relation weather

@attribute temperature numeric
@attribute outlook {sunny, rainy, overcast}
@attribute class {yes, no}

@data
21.5,sunny,yes
18.0,rainy,no
?,overcast,yes
)";

TEST(ArffTest, BasicParse) {
  auto d = ReadArffString(kArff);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->name(), "weather");
  EXPECT_EQ(d->NumRows(), 3u);
  EXPECT_EQ(d->NumFeatures(), 2u);
  EXPECT_EQ(d->NumClasses(), 2u);
  EXPECT_TRUE(std::isnan(d->feature(0).values[2]));
  EXPECT_EQ(d->feature(1).categories[2], "overcast");
  EXPECT_EQ(d->label(1), 1);  // "no" is second declared class.
}

TEST(ArffTest, ClassAttributeByName) {
  const std::string text =
      "@relation r\n"
      "@attribute class {a,b}\n"
      "@attribute other {x,y}\n"
      "@data\n"
      "a,x\nb,y\n";
  auto d = ReadArffString(text);
  ASSERT_TRUE(d.ok());
  // "class" is the target even though "other" is the last nominal.
  EXPECT_EQ(d->NumFeatures(), 1u);
  EXPECT_EQ(d->feature(0).name, "other");
  EXPECT_EQ(d->class_names()[0], "a");
}

TEST(ArffTest, QuotedNamesAndValues) {
  const std::string text =
      "@relation 'my data'\n"
      "@attribute 'the feature' numeric\n"
      "@attribute class {'c one','c two'}\n"
      "@data\n"
      "1.0,'c one'\n2.0,'c two'\n";
  auto d = ReadArffString(text);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->feature(0).name, "the feature");
  EXPECT_EQ(d->class_names()[0], "c one");
}

TEST(ArffTest, UndeclaredNominalValueRejected) {
  const std::string text =
      "@relation r\n@attribute class {a,b}\n@data\nc\n";
  EXPECT_FALSE(ReadArffString(text).ok());
}

TEST(ArffTest, WrongFieldCountRejected) {
  const std::string text =
      "@relation r\n@attribute x numeric\n@attribute class {a}\n@data\n1\n";
  EXPECT_FALSE(ReadArffString(text).ok());
}

TEST(ArffTest, NoNominalAttributeRejected) {
  const std::string text = "@relation r\n@attribute x numeric\n@data\n1\n";
  EXPECT_FALSE(ReadArffString(text).ok());
}

TEST(ArffTest, SparseFormatUnimplemented) {
  const std::string text =
      "@relation r\n@attribute x numeric\n@attribute class {a}\n@data\n"
      "{0 1.0}\n";
  auto d = ReadArffString(text);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kUnimplemented);
}

TEST(ArffTest, CaseInsensitiveKeywords) {
  const std::string text =
      "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE class {a,b}\n@DATA\n"
      "1,a\n2,b\n";
  auto d = ReadArffString(text);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->NumRows(), 2u);
}

TEST(CsvTest, MissingValuesRoundTrip) {
  Dataset d("miss_rt");
  d.AddNumericFeature("x", {1.0, std::nan(""), 3.0});
  d.AddCategoricalFeature("c", {0, std::nan(""), 1}, {"u", "v"});
  d.SetLabels({0, 1, 0}, {"a", "b"});
  auto back = ReadCsvString(WriteCsvString(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(std::isnan(back->feature(0).values[1]));
  EXPECT_TRUE(std::isnan(back->feature(1).values[1]));
  EXPECT_EQ(back->CountMissing(), 2u);
}

TEST(ArffTest, MissingValuesRoundTrip) {
  Dataset d("miss_rt");
  d.AddNumericFeature("x", {1.0, std::nan(""), 3.0});
  d.AddCategoricalFeature("c", {0, std::nan(""), 1}, {"u", "v"});
  d.SetLabels({0, 1, 0}, {"a", "b"});
  auto back = ReadArffString(WriteArffString(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(std::isnan(back->feature(0).values[1]));
  EXPECT_TRUE(std::isnan(back->feature(1).values[1]));
}

TEST(ArffTest, CrossFormatConversion) {
  // CSV -> Dataset -> ARFF -> Dataset preserves everything structural.
  auto csv = ReadCsvString("a,b,label\n1.5,x,yes\n2.5,y,no\n3.5,x,yes\n");
  ASSERT_TRUE(csv.ok());
  auto arff = ReadArffString(WriteArffString(*csv));
  ASSERT_TRUE(arff.ok()) << arff.status().ToString();
  EXPECT_EQ(arff->NumRows(), csv->NumRows());
  EXPECT_EQ(arff->NumFeatures(), csv->NumFeatures());
  EXPECT_EQ(arff->labels(), csv->labels());
  EXPECT_DOUBLE_EQ(arff->feature(0).values[2], 3.5);
}

TEST(ArffTest, RoundTripQuotesSpecialNamesAndValues) {
  // Separators, both quote kinds, backslashes, spaces (also leading and
  // trailing), '%', braces, controls, "?" as a value, and the empty string.
  const std::vector<std::string> categories = {
      "x,y", "it's", "say \"hi\"", "back\\slash", " asia", "tab\there",
      "new\nline", "%pct", "{brace}", "?", "", "plain"};
  Dataset d("rel, 'quoted' % name");
  d.AddNumericFeature("the 'x', %1",
                      {1.5, -0.0, 2.5e-300, std::nan(""), 4.0, 5.0, 6.0, 7.0,
                       8.0, 9.0, 10.0, 11.0});
  std::vector<double> codes(categories.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<double>(codes.size() - 1 - i);
  }
  codes[5] = std::nan("");
  d.AddCategoricalFeature("cat\\{}", codes, categories);
  std::vector<int> labels(categories.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }
  d.SetLabels(labels, {"?", "a,b", "c 'd'"});

  auto back = ReadArffString(WriteArffString(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n"
                         << WriteArffString(d);
  EXPECT_EQ(back->name(), d.name());
  ASSERT_EQ(back->NumFeatures(), 2u);
  EXPECT_EQ(back->feature(0).name, d.feature(0).name);
  EXPECT_EQ(back->feature(1).name, d.feature(1).name);
  EXPECT_EQ(back->feature(1).categories, categories);
  EXPECT_EQ(back->class_names(), d.class_names());
  EXPECT_EQ(back->labels(), d.labels());
  for (size_t r = 0; r < d.NumRows(); ++r) {
    for (size_t j = 0; j < 2; ++j) {
      const double want = d.feature(j).values[r];
      const double got = back->feature(j).values[r];
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << "feature " << j << " row " << r;
      } else {
        EXPECT_EQ(std::signbit(got), std::signbit(want));
        EXPECT_EQ(got, want) << "feature " << j << " row " << r;
      }
    }
  }
}

TEST(ArffTest, PlainNamesAndValuesStayBare) {
  Dataset d("round");
  d.AddNumericFeature("x", {1.5, 0.1});
  d.AddCategoricalFeature("c", {1, 0}, {"u", "v"});
  d.SetLabels({0, 1}, {"n", "p"});
  EXPECT_EQ(WriteArffString(d),
            "@relation round\n\n"
            "@attribute 'x' numeric\n"
            "@attribute 'c' {u,v}\n"
            "@attribute 'class' {n,p}\n\n"
            "@data\n"
            "1.5,v,n\n"
            "0.10000000000000001,u,p\n");
}

TEST(ArffTest, RoundTrip) {
  Dataset d("round");
  d.AddNumericFeature("x", {1.5, 2.5});
  d.AddCategoricalFeature("c", {1, 0}, {"u", "v"});
  d.SetLabels({0, 1}, {"n", "p"});
  auto back = ReadArffString(WriteArffString(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->NumFeatures(), 2u);
  EXPECT_DOUBLE_EQ(back->feature(0).values[1], 2.5);
  EXPECT_EQ(back->class_names()[static_cast<size_t>(back->label(1))], "p");
}

}  // namespace
}  // namespace smartml
