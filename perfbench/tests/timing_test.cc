// Unit tests of the benchmark's timing helpers: the tail-percentile rule
// (median plus the highest percentile with ten samples beyond it) and the
// span self-time computation over nested and cross-thread spans.
#include "src/timing.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TimingTest, HundredSamplesGiveP90) {
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  TimingSummary s = Summarize(OneTo(100));
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.tail_percentile, 90);
  EXPECT_DOUBLE_EQ(s.median, 50);
  EXPECT_DOUBLE_EQ(s.tail, 90);  // exactly ten samples (91..100) beyond
}

TEST(TimingTest, FiftySamplesGiveP80) {
  EXPECT_EQ(HighestSupportedPercentile(50), 80);
  TimingSummary s = Summarize(OneTo(50));
  EXPECT_EQ(s.tail_percentile, 80);
  EXPECT_DOUBLE_EQ(s.tail, 40);  // 41..50 lie beyond
}

TEST(TimingTest, ThousandSamplesSupportP99AndFewSupportNoTail) {
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(Summarize(OneTo(10)).tail_percentile, 0);
  EXPECT_NE(Summarize(OneTo(100)).ToText("ms").find("n=100"),
            std::string::npos);
}

TEST(TimingTest, TailAtFallsBackToTheSupportedPercentile) {
  int used = 0;
  EXPECT_DOUBLE_EQ(TailAt(OneTo(100), 99, &used), 90);
  EXPECT_EQ(used, 90);
  EXPECT_DOUBLE_EQ(TailAt(OneTo(1000), 99, &used), 990);
  EXPECT_EQ(used, 99);
  EXPECT_DOUBLE_EQ(TailAt(OneTo(5), 90, &used), 3);  // never below p50
  EXPECT_EQ(used, 50);
}

TEST(SelfTimeTest, NestedChildrenOnTheSameThreadAreSubtracted) {
  std::vector<SpanRecord> spans = {
      {"phase", "run", 0, 100, -1, 0},
      {"sim", "run_for", 10, 60, 0, 0},
      {"store", "append", 20, 30, 1, 0},
      {"workloads", "a", 40, 50, 1, 0},
      {"obs", "export", 70, 90, 0, 0},
  };
  std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100u - 50 - 20);
  EXPECT_EQ(self[1], 50u - 10 - 10);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[4], 20u);
  uint64_t total = 0;
  for (uint64_t s : self) total += s;
  EXPECT_EQ(total, 100u);  // same-thread self times tile the root
}

TEST(SelfTimeTest, ChildOnAnotherThreadDoesNotReduceItsParent) {
  std::vector<SpanRecord> spans = {
      {"sim", "run", 0, 100, -1, 0},
      {"workloads", "darwin.fixed_pam", 10, 90, 0, 1},  // pool thread
      {"workloads", "darwin.refine", 20, 40, 0, 2},     // another one
  };
  std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100u);
  EXPECT_EQ(self[1], 80u);
  EXPECT_EQ(self[2], 20u);
}

TEST(SelfTimeTest, OverlappingChildrenAreMergedAndClipped) {
  std::vector<SpanRecord> spans = {
      {"phase", "run", 10, 50, -1, 0},
      {"sim", "a", 5, 30, 0, 0},   // starts before its parent
      {"sim", "b", 20, 40, 0, 0},  // overlaps a
  };
  std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 10u);  // [10, 40) covered
}

}  // namespace
}  // namespace perfbench
