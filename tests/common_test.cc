// Tests for src/common: Status/StatusOr, Rng, strings, stopwatch/deadline,
// and the Gaussian distribution helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"

namespace smartml {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  SMARTML_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All values hit.
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, PermutationCoversAllIndices) {
  Rng rng(19);
  const std::vector<size_t> p = rng.Permutation(50);
  std::set<size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    counts[rng.WeightedIndex(weights)]++;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

/// One CSV record's fields, copied out of SplitCsvRecord's views.
std::vector<std::string> SplitCsvLine(std::string_view line) {
  std::vector<std::string_view> fields;
  std::deque<std::string> owned;
  SplitCsvRecord(line, ',', &fields, &owned);
  return {fields.begin(), fields.end()};
}

TEST(StringsTest, SplitCsvLineQuoted) {
  const auto parts = SplitCsvLine(R"(a,"b,c","d""e",f)");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "b,c");
  EXPECT_EQ(parts[2], "d\"e");
  EXPECT_EQ(parts[3], "f");
}

TEST(StringsTest, SplitCsvLineStripsCarriageReturn) {
  const auto parts = SplitCsvLine("a,b\r");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(StringsTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("AbC123"), "abc123");
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("12x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

// The byte-at-a-time table CRC-32 (reflected polynomial 0xEDB88320), kept
// here as the oracle for the library's implementation.
uint32_t BytewiseCrc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(0xC0FFEE);
  std::string buffer(300 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// ---------------------------------------------------------------------------
// Stopwatch / Deadline
// ---------------------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotone) {
  Stopwatch w;
  const double t1 = w.ElapsedSeconds();
  const double t2 = w.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.Remaining()));
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::After(0.0);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, PositiveBudgetInitiallyLive) {
  Deadline d = Deadline::After(60.0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.Remaining(), 59.0);
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(DistributionsTest, NormalPdfKnownValues) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(NormalPdf(1.0), 0.24197072451914337, 1e-12);
}

TEST(DistributionsTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-7) << "p=" << p;
  }
}

TEST(DistributionsTest, QuantileSymmetry) {
  EXPECT_NEAR(NormalQuantile(0.25), -NormalQuantile(0.75), 1e-9);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
}

}  // namespace
}  // namespace smartml
