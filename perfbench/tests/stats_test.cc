// Unit tests for the rules the benchmark reports by: percentile rank
// selection, closed-loop goodput, ratios with their base, and span self
// time.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(PercentileRank, NearestRankIsCeilingClampedToRange) {
  EXPECT_EQ(NearestRank(0.99, 1000), 990u);
  EXPECT_EQ(NearestRank(0.99, 999), 990u);  // ceil(989.01)
  EXPECT_EQ(NearestRank(0.5, 1), 1u);
  EXPECT_EQ(NearestRank(0.001, 10), 1u);
  EXPECT_EQ(NearestRank(1.0, 10), 10u);
}

TEST(PercentileRank, RequiresTenSamplesBeyondTheRank) {
  EXPECT_TRUE(PercentileSupported(0.99, 1000));   // 10 beyond rank 990
  EXPECT_FALSE(PercentileSupported(0.99, 999));   // 9 beyond rank 990
  EXPECT_FALSE(PercentileSupported(0.5, 0));
}

TEST(PercentileRank, HighestSupportedPercentile) {
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 0.95);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(PercentileRank, SummaryCountsFailuresAsMissingEveryLimit) {
  std::vector<double> samples(1000, 100.0);
  for (size_t i = 0; i < 11; ++i) samples[i] = kMissed;  // >1% failed
  LatencySummary s = Summarize(samples);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_TRUE(std::isinf(s.p99));
  EXPECT_TRUE(s.p99_supported);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 0.99);
  EXPECT_TRUE(std::isinf(s.tail));
}

TEST(PercentileRank, TailFallsBackToTheHighestSupportedPercentile) {
  std::vector<double> samples;
  for (int i = 1; i <= 600; ++i) samples.push_back(i);
  LatencySummary s = Summarize(samples);
  EXPECT_FALSE(s.p99_supported);  // 6 samples beyond rank 594
  EXPECT_DOUBLE_EQ(s.tail_percentile, 0.95);
  EXPECT_DOUBLE_EQ(s.tail, 570.0);
  std::vector<double> many(20000, 1.0);
  EXPECT_DOUBLE_EQ(Summarize(many).tail_percentile, 0.99);  // never p99.9
  EXPECT_DOUBLE_EQ(Summarize({1.0, 2.0}).tail_percentile, 0.0);
  EXPECT_DOUBLE_EQ(Summarize({1.0, 2.0}).tail, 0.0);
}

TEST(PercentileRank, MedianOfWindows) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PercentileRank, QuietWindowTailIsTheLowerQuartileOfWindows) {
  // Ten windows, three spoiled by host stalls: the spoiled ones do not
  // move the reported tail, a slower program moves every window.
  std::vector<double> p99s = {210, 9000, 205, 220, 215, 12000, 200, 230,
                              225, 30000};
  EXPECT_DOUBLE_EQ(QuietWindowTail(p99s), 210.0);  // rank ceil(2.5) = 3
  for (double& v : p99s) v += 100;
  EXPECT_DOUBLE_EQ(QuietWindowTail(p99s), 310.0);
  EXPECT_DOUBLE_EQ(QuietWindowTail({}), 0.0);
}

TEST(Goodput, CountsAnswersWithinTheLimitPerSecond) {
  std::vector<double> lat = {100, 499, 500, 501, 9000};
  EXPECT_DOUBLE_EQ(GoodputQps(lat, 500, 0.5), 6.0);  // 3 within, in 0.5 s
  EXPECT_DOUBLE_EQ(GoodputQps(lat, 10000, 1.0), 5.0);
}

TEST(Goodput, FailuresNeverCount) {
  std::vector<double> lat = {100, kMissed, kMissed};
  EXPECT_DOUBLE_EQ(GoodputQps(lat, 1e300, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(GoodputQps({}, 500, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(GoodputQps(lat, 500, 0.0), 0.0);
}

TEST(RatioBase, TravelsWithItsValue) {
  Ratio r{620, 2000};
  EXPECT_DOUBLE_EQ(r.value(), 0.31);
  EXPECT_EQ(r.Describe(), "0.3100 (= 620 / 2000)");
  Ratio empty{5, 0};
  EXPECT_DOUBLE_EQ(empty.value(), 0.0);
  EXPECT_EQ(empty.Describe(), "0.0000 (= 5 / 0)");
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildIntervals) {
  SpanRecorder recorder;
  recorder.RecordRoot(7, 0, 100);
  uint64_t root = SpanRecorder::RootSpanId(7);
  recorder.Record("net.send", 7, root, 10, 30);
  recorder.Record("llm.call", 7, root, 20, 50);  // overlaps net.send
  uint64_t lookup = recorder.Record("cache.lookup", 7, root, 60, 90);
  recorder.Record("embed.probe", 7, lookup, 60, 70);
  std::map<std::string, double> self = SelfTimeNsByLayer(recorder.Take());
  EXPECT_DOUBLE_EQ(self["unattributed"], 100 - 40 - 30);
  EXPECT_DOUBLE_EQ(self["net"], 20);
  EXPECT_DOUBLE_EQ(self["llm"], 30);
  EXPECT_DOUBLE_EQ(self["cache"], 20);
  EXPECT_DOUBLE_EQ(self["embed"], 10);
}

}  // namespace
}  // namespace perfbench
