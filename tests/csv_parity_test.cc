// Exactness tests for the CSV reader and ParseDouble: ReadCsvString must
// build the same Dataset, bit for bit, as the plain reference reader in
// tests/reference_csv.h (or fail with the same status), and ParseDouble must
// accept exactly the tokens strtod consumes whole and return the same bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "tests/reference_csv.h"

namespace smartml {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameDataset(const StatusOr<Dataset>& got,
                       const StatusOr<Dataset>& want,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status().ToString() : got.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(got->name(), want->name());
  ASSERT_EQ(got->NumFeatures(), want->NumFeatures());
  for (size_t j = 0; j < want->NumFeatures(); ++j) {
    const FeatureColumn& g = got->feature(j);
    const FeatureColumn& w = want->feature(j);
    EXPECT_EQ(g.name, w.name) << "feature " << j;
    EXPECT_EQ(g.type, w.type) << "feature " << j;
    EXPECT_EQ(g.categories, w.categories) << "feature " << j;
    ASSERT_EQ(g.values.size(), w.values.size()) << "feature " << j;
    for (size_t r = 0; r < w.values.size(); ++r) {
      ASSERT_EQ(Bits(g.values[r]), Bits(w.values[r]))
          << "feature " << j << " row " << r << ": " << g.values[r]
          << " vs " << w.values[r];
    }
  }
  EXPECT_EQ(got->labels(), want->labels());
  EXPECT_EQ(got->class_names(), want->class_names());
}

void ExpectParity(const std::string& text, const CsvOptions& options,
                  const std::string& context) {
  ExpectSameDataset(ReadCsvString(text, options),
                    reference_csv::ReadCsv(text, options), context);
}

CsvOptions WithDelimiter(char delimiter) {
  CsvOptions options;
  options.delimiter = delimiter;
  return options;
}

// Rewrites every cell of `text` with `edit(cell, row, column)`; the text
// must hold no quoted fields (synthetic uploads hold none).
template <typename Edit>
std::string EditCells(const std::string& text, char delimiter, Edit edit) {
  std::string out;
  size_t row = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::vector<std::string> cells = reference_csv::SplitLine(
        text.substr(start, end - start), delimiter);
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out += delimiter;
      out += edit(cells[c], row, c);
    }
    out += '\n';
    ++row;
    start = end + 1;
  }
  return out;
}

// The uploads a SmartML server sees and their common variations: the
// synthetic dataset as written, `;`-delimited, without header, with a named
// or indexed target, with every missing-token spelling, with padded cells,
// and with CRLF line ends.
void ExpectParityOnUploadVariants(const Dataset& dataset,
                                  const std::string& name) {
  const std::string text = WriteCsvString(dataset);
  ExpectParity(text, {}, name + " as written");
  ExpectParity(WriteCsvString(dataset, ';'), WithDelimiter(';'),
               name + " with ';'");

  CsvOptions no_header;
  no_header.has_header = false;
  ExpectParity(text.substr(text.find('\n') + 1), no_header,
               name + " without header");

  CsvOptions named;
  named.target_column = dataset.feature(0).name;
  ExpectParity(text, named, name + " named target");
  CsvOptions indexed;
  indexed.target_index = 1;
  ExpectParity(text, indexed, name + " target_index");

  const char* kMissing[] = {"", "NA", " na ", "NaN", "?", "\t?"};
  const std::string spelled =
      EditCells(text, ',', [&](const std::string& cell, size_t row, size_t c) {
        return cell == "?" ? std::string(kMissing[(row + c) % 6]) : cell;
      });
  ExpectParity(spelled, {}, name + " missing spellings");

  const std::string padded =
      EditCells(text, ',', [](const std::string& cell, size_t row, size_t c) {
        switch ((row * 7 + c) % 5) {
          case 0:
            return " " + cell;
          case 1:
            return cell + "  ";
          case 2:
            return "\t" + cell + " ";
          default:
            return cell;
        }
      });
  ExpectParity(padded, {}, name + " padded cells");

  std::string crlf;
  for (const char ch : text) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  ExpectParity(crlf, {}, name + " CRLF");
}

TEST(CsvParityTest, Table4Uploads) {
  for (const Table4Entry& entry : Table4Datasets()) {
    const Dataset dataset = GenerateSynthetic(entry.spec);
    ExpectParity(WriteCsvString(dataset), {}, entry.spec.name);
  }
}

TEST(CsvParityTest, BootstrapShapesWithMissingAndCategoricalCells) {
  const std::vector<SyntheticSpec> specs = BootstrapKbSpecs(12, 7);
  for (size_t i = 0; i < specs.size(); ++i) {
    SyntheticSpec spec = specs[i];
    spec.num_instances = std::min<size_t>(spec.num_instances, 200);
    spec.missing_fraction = 0.08;
    if (i % 2 == 0) spec.num_categorical = 1 + i % 3;
    ExpectParityOnUploadVariants(GenerateSynthetic(spec), spec.name);
  }
}

TEST(CsvParityTest, EdgeCorpus) {
  const std::string kTexts[] = {
      // Quoting: delimiters and doubled quotes inside quotes, a quote in
      // the middle of a field, an unterminated quote, a quoted number.
      "name,label\n\"a,b\",x\nplain,y\n",
      "name,label\n\"say \"\"hi\"\"\",x\n\"\",y\n\"\"\"\",x\n",
      "a,b,label\nab\"c,d\"e,1,x\n2,3,y\n",
      "a,label\n\"1.5\",x\n\" 2 \",y\n",
      "a,b,label\n\"open,1,x\n",
      // Carriage returns: interior (dropped outside quotes, kept inside),
      // CRLF line ends, a lone trailing '\r'.
      "a,b,label\n1\r2,x\ry,p\n\"q\rr\",3,p\n",
      "a,b,label\r\n1,2,x\r\n3,4,y\r\n",
      "a,b,label\n1,2,x\n3,4,y\r",
      // Blank and whitespace-only lines, a missing trailing newline.
      "\n\n a , b ,label\n\n  \n1,2,x\n\t\n3,4,y\n\n",
      "a,b,label\n1,2,x\n3,4,y",
      // Padded numbers and labels; header names stay untrimmed.
      " a ,b\t,label\n 1.5 ,\t2 , yes \n-3\t, 4e1 ,no\n",
      // strtod-only spellings, out-of-range and subnormal values.
      "a,b,c,d,label\n+2,0x1p3,inf,-INF,x\n-0,0X1.8P-2,Infinity,nan,y\n",
      "a,b,c,label\n1e400,-1e400,1e-400,x\n"
      "4.9e-324,-4.9e-324,2.2250738585072011e-308,y\n",
      "a,b,label\n-nan,NAN(123),x\nnan(),.5,y\n5.,1e+5,x\n",
      // Tokens strtod rejects: the column turns categorical.
      "a,b,c,d,label\n1e,1e+,--1,1.2.3,x\n1 2,.,e5,0x,y\n",
      // Missing tokens in numeric and categorical columns.
      "a,b,label\n?,x,yes\nNA,y,no\n1.0,,yes\nna, NaN ,no\n",
      "a,b,label\n,?,yes\n,,no\n",
      // A non-numeric last cell turns the whole column categorical.
      "a,b,label\n1,2,x\n3,4,y\n5,abc,x\n",
      // Long tokens, plain and not.
      "a,label\n0." + std::string(120, '0') + "1,x\n1" + std::string(90, '0') +
          ",y\n" + std::string(70, ' ') + "2.5" + std::string(70, ' ') +
          ",x\n" + std::string(400, '9') + "e-400,y\n",
      // Non-ASCII and control bytes.
      "a,label\n\xc3\xa9t\xc3\xa9,x\n\xff,y\n\v1\f,x\n",
      std::string("a,b,label\n1\0 2,3,x\n4,5,y\n", 25),
      // Duplicate header names.
      "a,a,label\n1,x,p\n2,y,q\n",
      // Ragged rows, a missing target, empty inputs.
      "a,b,label\n1,2\n",
      "a,b,label\n1,2,x\n1,2,3,4\n",
      "a,label\n1,x\n\n2,y\n3\n",
      "a,label\n1,?\n",
      "a,label\n1, NA \n",
      "",
      "   \n\t\n",
      "a,b\n",
  };
  std::vector<std::pair<std::string, CsvOptions>> option_sets;
  option_sets.emplace_back("default", CsvOptions{});
  CsvOptions no_header;
  no_header.has_header = false;
  option_sets.emplace_back("no header", no_header);
  CsvOptions first_target;
  first_target.target_index = 0;
  option_sets.emplace_back("target_index 0", first_target);
  CsvOptions bad_index;
  bad_index.target_index = 9;
  option_sets.emplace_back("target_index 9", bad_index);
  CsvOptions named;
  named.target_column = "a";
  option_sets.emplace_back("target a", named);
  CsvOptions padded_name;
  padded_name.target_column = " a ";
  option_sets.emplace_back("target ' a '", padded_name);
  CsvOptions unknown;
  unknown.target_column = "nope";
  option_sets.emplace_back("target nope", unknown);
  CsvOptions generated;
  generated.has_header = false;
  generated.target_column = "f1";
  option_sets.emplace_back("no header, target f1", generated);
  option_sets.emplace_back("';'", WithDelimiter(';'));
  option_sets.emplace_back("tab", WithDelimiter('\t'));
  // Quoting wins over a quote delimiter; a '\r' delimiter still splits.
  option_sets.emplace_back("'\"'", WithDelimiter('"'));
  option_sets.emplace_back("'\\r'", WithDelimiter('\r'));
  CsvOptions custom_missing;
  custom_missing.missing_tokens = {"-", "x"};
  option_sets.emplace_back("missing {-, x}", custom_missing);

  for (size_t t = 0; t < std::size(kTexts); ++t) {
    for (const auto& [label, options] : option_sets) {
      ExpectParity(kTexts[t], options,
                   "text " + std::to_string(t) + ", " + label);
    }
  }
}

TEST(CsvParityTest, RecordsOnEitherSideOfTheSplitFastPath) {
  // Records without a quote or a '\r' (a CRLF's trailing one aside) are
  // split by memchr; every other record takes the quoting loop. Each text
  // mixes both kinds, and every cell is stripped once before parsing.
  const std::string kTexts[] = {
      // CRLF records, quoted and plain, with empty fields.
      "a,b,label\r\n\"1,5\",2,x\r\n3,\"4\"\"\",y\r\n,,x\r\n5,6,y\r\n",
      // '\v' and '\f' padding, with LF and CRLF ends.
      "a,b,label\n\v1\f,\f2\v,x\n\f3 ,4\v, y\f\r\n\v\f5,\t6\r\r\n,\v,x\n",
      // An interior '\r', a doubled trailing one, and '\r'-only lines.
      "a,b,label\r\n1,\r2,x\r\n3,4,y\r\r\n\r\n5,6\r,x\n\r\n",
      // A quoted field holding a CRLF's '\r', and one ending a record.
      "a,label\n\"q\rr\",x\n2,\"y\"\r\n\"3\"\r\n",
      // Whitespace-only cells around numbers and missing tokens.
      "a,b,label\n \v?\f,1,x\n\fNA\v,\r2\r,y\n3,\f\v,x\r\n",
  };
  CsvOptions no_header;
  no_header.has_header = false;
  for (size_t t = 0; t < std::size(kTexts); ++t) {
    const std::string context = "text " + std::to_string(t);
    ExpectParity(kTexts[t], no_header, context + ", no header");
    for (const char delimiter : {',', ';', '\t', '"', '\r', '\v'}) {
      ExpectParity(kTexts[t], WithDelimiter(delimiter),
                   context + ", delimiter " + std::to_string(delimiter));
    }
  }
}

void ExpectParseDoubleMatchesStrtod(const std::string& token) {
  double got = 0.0;
  double want = 0.0;
  const bool got_ok = ParseDouble(token, &got);
  const bool want_ok = reference_csv::ParseDouble(token, &want);
  ASSERT_EQ(got_ok, want_ok) << "'" << token << "'";
  if (want_ok) {
    ASSERT_EQ(Bits(got), Bits(want)) << "'" << token << "'";
  }
}

TEST(ParseDoubleTest, AcceptsAndRejectsExactlyLikeStrtod) {
  const std::string kTokens[] = {
      "0", "-0", "1", "-1", "3.25", " -1e3 ", "\t42\n", "0.1", "1.50",
      "1e5", "1E5", "1e+5", "1e-5", "-1.5e-7", "123456789012345678901234567890",
      "0.30000000000000004", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "4.9e-324", "5e-324", "2e-324", "1e-400",
      "-1e-400", "1e400", "-1e400", "1.7976931348623157e308",
      "1.7976931348623159e308", "+2", "+0.5", "0x1p3", "0X1.8P-2", "0x",
      "inf", "-inf", "INF", "Infinity", "nan", "-nan", "NAN(123)", "nan()",
      ".5", "5.", "-.5", "1e", "1e+", "--1", "1.2.3", "12x", "x12", "1 2",
      "", " ", "e5", ".", "-", "+", "1_000", "1,5", std::string("1\0", 2),
      "00012", "-00.000", "1e0000000000000000000005", "9e-0000400",
  };
  for (const std::string& token : kTokens) {
    ExpectParseDoubleMatchesStrtod(token);
  }

  // Long tokens, plain and not.
  ExpectParseDoubleMatchesStrtod("0." + std::string(200, '0') + "7");
  ExpectParseDoubleMatchesStrtod(std::string(400, '9'));
  ExpectParseDoubleMatchesStrtod(std::string(400, '9') + "e-400");
  ExpectParseDoubleMatchesStrtod(std::string(100, ' ') + "1.25" +
                                 std::string(100, ' '));
  ExpectParseDoubleMatchesStrtod("+" + std::string(100, '1'));
  ExpectParseDoubleMatchesStrtod(std::string(100, '1') + "x");
  ExpectParseDoubleMatchesStrtod("0x" + std::string(100, 'f'));
}

TEST(ParseDoubleTest, RandomTokensMatchStrtod) {
  std::mt19937_64 rng(20190326);
  char buf[64];
  // Every finite double pattern printed the ways the program prints them.
  for (int i = 0; i < 20000; ++i) {
    double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    for (const char* format : {"%.17g", "%.12g", "%.6g", "%.3e", "%a"}) {
      std::snprintf(buf, sizeof(buf), format, v);
      ExpectParseDoubleMatchesStrtod(buf);
    }
  }
  // Random strings over the characters a number may hold.
  const std::string alphabet = "0123456789012345678901234.eE+-xXpPinfaINF ";
  for (int i = 0; i < 50000; ++i) {
    std::string token;
    const size_t length = rng() % 24;
    for (size_t k = 0; k < length; ++k) {
      token += alphabet[rng() % alphabet.size()];
    }
    ExpectParseDoubleMatchesStrtod(token);
  }
  // Plain decimal tokens with many digits and wide exponents.
  auto digit = [&rng] { return static_cast<char>('0' + rng() % 10); };
  for (int i = 0; i < 20000; ++i) {
    std::string token = (rng() % 2) ? "-" : "";
    const size_t int_digits = 1 + rng() % 30;
    for (size_t k = 0; k < int_digits; ++k) token += digit();
    if (rng() % 2) {
      token += '.';
      const size_t frac_digits = 1 + rng() % 30;
      for (size_t k = 0; k < frac_digits; ++k) token += digit();
    }
    if (rng() % 2) {
      token += (rng() % 2) ? 'e' : 'E';
      const int sign = static_cast<int>(rng() % 3);
      if (sign == 1) token += '+';
      if (sign == 2) token += '-';
      token += std::to_string(rng() % 700);
    }
    ExpectParseDoubleMatchesStrtod(token);
  }
}

}  // namespace
}  // namespace smartml
