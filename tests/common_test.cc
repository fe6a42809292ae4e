// Unit tests for the common substrate: Status/Result, strings, RNG, time,
// CRC32, statistics and tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/crc32.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/time.h"
#include "tests/test_util.h"

namespace biopera {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
  EXPECT_FALSE(Status::IOError("x") == Status::Internal("x"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value_or(-1), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubled(int x) {
  BIOPERA_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(-2).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrJoin({"a", "b"}, "->"), "a->b");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("wb.queue", "wb."));
  EXPECT_FALSE(StartsWith("wb", "wb."));
  EXPECT_TRUE(EndsWith("file.txt", ".txt"));
  EXPECT_FALSE(EndsWith("txt", "file.txt"));
}

TEST(StringsTest, ParseInt64) {
  long long v;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDouble) {
  double v;
  EXPECT_TRUE(ParseDouble("1.5e3", &v));
  EXPECT_DOUBLE_EQ(v, 1500.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5 junk", &v));
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextUint64(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(10);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, ss = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(2.0, 3.0);
    sum += v;
    ss += v * v;
  }
  double mean = sum / n;
  double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, GammaMean) {
  Rng rng(12);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(2.6, 100);
  EXPECT_NEAR(sum / n, 260, 10);
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gamma(0.5, 2.0);
    EXPECT_GE(v, 0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.08);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(14);
  std::vector<double> weights = {1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(15);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(99);
  Rng fork1 = a.Fork();
  Rng b(99);
  Rng fork2 = b.Fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.Next(), fork2.Next());
}

// --- Time ----------------------------------------------------------------------

TEST(TimeTest, DurationFactoriesAndAccessors) {
  EXPECT_EQ(Duration::Seconds(1).micros(), 1000000);
  EXPECT_EQ(Duration::Millis(2).micros(), 2000);
  EXPECT_EQ(Duration::Minutes(1).ToSeconds(), 60);
  EXPECT_EQ(Duration::Hours(2).ToMinutes(), 120);
  EXPECT_EQ(Duration::Days(1).ToHours(), 24);
}

TEST(TimeTest, DurationArithmetic) {
  Duration d = Duration::Seconds(10) + Duration::Seconds(5);
  EXPECT_EQ(d.ToSeconds(), 15);
  EXPECT_EQ((d - Duration::Seconds(5)).ToSeconds(), 10);
  EXPECT_EQ((d * 2).ToSeconds(), 30);
  EXPECT_EQ((d / 3).ToSeconds(), 5);
  EXPECT_DOUBLE_EQ(Duration::Hours(1) / Duration::Minutes(30), 2.0);
  EXPECT_LT(Duration::Seconds(1), Duration::Seconds(2));
}

TEST(TimeTest, DurationFormatting) {
  EXPECT_EQ(Duration::Micros(412).ToString(), "412us");
  EXPECT_EQ(Duration::Millis(5).ToString(), "5.000ms");
  EXPECT_EQ(Duration::Seconds(3.25).ToString(), "3.250s");
  EXPECT_EQ(Duration::Seconds(72).ToString(), "1m 12s");
  EXPECT_EQ(Duration::Hours(1.5).ToString(), "1h 30m 00s");
  EXPECT_EQ((Duration::Days(2) + Duration::Hours(3) + Duration::Minutes(14))
                .ToString(),
            "2d 03h 14m");
  EXPECT_EQ((Duration::Zero() - Duration::Seconds(5)).ToString(), "-5.000s");
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t = TimePoint::Zero() + Duration::Hours(2);
  EXPECT_EQ(t.SinceEpoch().ToHours(), 2);
  EXPECT_EQ((t - TimePoint::Zero()).ToHours(), 2);
  EXPECT_EQ((t - Duration::Hours(1)).SinceEpoch().ToHours(), 1);
  EXPECT_LT(TimePoint::Zero(), t);
}

// --- Crc32 ----------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32Test, ExtendMatchesWhole) {
  std::string data = "the quick brown fox";
  uint32_t whole = Crc32c(data);
  uint32_t partial = Crc32c(data.substr(0, 7));
  // Extension is NOT simple concatenation of independent CRCs; verify the
  // streaming helper by recomputing.
  uint32_t streamed = Crc32cExtend(0, data.data(), data.size());
  EXPECT_EQ(streamed, whole);
  EXPECT_NE(partial, whole);
}

TEST(Crc32Test, SensitiveToSingleBit) {
  std::string a = "aaaaaaaa";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(Crc32c(a), Crc32c(b));
}

// --- SampleStats ------------------------------------------------------------------

TEST(SampleStatsTest, BasicMoments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.Min(), 1);
  EXPECT_DOUBLE_EQ(stats.Max(), 4);
  EXPECT_NEAR(stats.Stddev(), 1.2909944, 1e-6);
}

TEST(SampleStatsTest, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_NEAR(stats.Percentile(0), 1, 1e-9);
  EXPECT_NEAR(stats.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(stats.Percentile(100), 100, 1e-9);
}

TEST(SampleStatsTest, EmptyIsSafe) {
  SampleStats stats;
  EXPECT_EQ(stats.Mean(), 0);
  EXPECT_EQ(stats.Percentile(50), 0);
  EXPECT_TRUE(stats.empty());
}

TEST(SampleStatsTest, PercentileEdgeCases) {
  SampleStats empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0), 0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100), 0);

  SampleStats one;
  one.Add(42.0);
  // A single sample is every percentile.
  EXPECT_DOUBLE_EQ(one.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(one.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(one.Percentile(100), 42.0);

  SampleStats two;
  two.Add(10.0);
  two.Add(20.0);
  EXPECT_DOUBLE_EQ(two.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(two.Percentile(100), 20.0);
  // Linear interpolation between the order statistics.
  EXPECT_DOUBLE_EQ(two.Percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(two.Percentile(25), 12.5);
}

// --- StepSeries ----------------------------------------------------------------------

TEST(StepSeriesTest, AtAndIntegral) {
  StepSeries s;
  s.Set(0, 1.0);
  s.Set(10, 3.0);
  s.Set(20, 0.0);
  EXPECT_DOUBLE_EQ(s.At(-1), 0);
  EXPECT_DOUBLE_EQ(s.At(5), 1);
  EXPECT_DOUBLE_EQ(s.At(10), 3);
  EXPECT_DOUBLE_EQ(s.At(25), 0);
  EXPECT_DOUBLE_EQ(s.Integral(0, 20), 10 * 1 + 10 * 3);
  EXPECT_DOUBLE_EQ(s.TimeAverage(0, 20), 2.0);
  EXPECT_DOUBLE_EQ(s.MaxOver(0, 30), 3.0);
}

TEST(StepSeriesTest, EmptyAndDegenerateWindows) {
  StepSeries empty;
  EXPECT_DOUBLE_EQ(empty.Integral(0, 10), 0);
  EXPECT_DOUBLE_EQ(empty.TimeAverage(0, 10), 0);
  EXPECT_DOUBLE_EQ(empty.At(5), 0);

  StepSeries s;
  s.Set(0, 2.0);
  // Zero-width and inverted windows integrate (and average) to zero.
  EXPECT_DOUBLE_EQ(s.Integral(5, 5), 0);
  EXPECT_DOUBLE_EQ(s.Integral(8, 3), 0);
  EXPECT_DOUBLE_EQ(s.TimeAverage(5, 5), 0);
  EXPECT_DOUBLE_EQ(s.TimeAverage(8, 3), 0);
}

TEST(StepSeriesTest, SinglePointHoldsForever) {
  StepSeries s;
  s.Set(10, 4.0);
  EXPECT_DOUBLE_EQ(s.At(9.999), 0);
  EXPECT_DOUBLE_EQ(s.At(1e9), 4.0);
  // The window straddling the single point integrates only its tail.
  EXPECT_DOUBLE_EQ(s.Integral(0, 20), 10 * 4.0);
  EXPECT_DOUBLE_EQ(s.TimeAverage(0, 20), 2.0);
  EXPECT_DOUBLE_EQ(s.Integral(15, 25), 10 * 4.0);
  EXPECT_DOUBLE_EQ(s.TimeAverage(15, 25), 4.0);
}

TEST(StepSeriesTest, DuplicateTimeOverwrites) {
  StepSeries s;
  s.Set(5, 1.0);
  s.Set(5, 2.0);
  EXPECT_DOUBLE_EQ(s.At(6), 2.0);
  EXPECT_EQ(s.points().size(), 1u);
}

TEST(StepSeriesTest, NoOpTransitionsCompacted) {
  StepSeries s;
  s.Set(0, 1.0);
  s.Set(5, 1.0);
  EXPECT_EQ(s.points().size(), 1u);
}

TEST(StepSeriesTest, Resample) {
  StepSeries s;
  s.Set(0, 2.0);
  s.Set(5, 4.0);
  std::vector<double> grid = s.Resample(0, 10, 2);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_DOUBLE_EQ(grid[0], 2.0);
  EXPECT_DOUBLE_EQ(grid[1], 4.0);
}

// --- TextTable ----------------------------------------------------------------------

TEST(TextTableTest, AlignsNumbersRight) {
  TextTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "100"});
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("name    value"), std::string::npos);
  EXPECT_NE(rendered.find("x           1"), std::string::npos);
  EXPECT_NE(rendered.find("longer    100"), std::string::npos);
}

TEST(AsciiChartTest, MarksUtilizationAndAvailability) {
  std::string chart = AsciiAreaChart({4, 4, 4}, {4, 2, 0}, 4, 2);
  // Top row: only the first column is utilized at level 4.
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find('.'), std::string::npos);
}

}  // namespace
}  // namespace biopera
