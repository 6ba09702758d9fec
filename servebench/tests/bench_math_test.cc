// Fixed-input tests for the benchmark's arithmetic (src/bench_math.h).
#include "bench_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace servebench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = OneToN(100);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0, 1.0, 4.0}, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  // 1000 samples: p99 is the 990th value, 10 samples lie above it.
  const TailStat ok = TailPercentile(OneToN(1000), 0.99);
  EXPECT_DOUBLE_EQ(ok.value, 990.0);
  EXPECT_EQ(ok.samples, 1000u);
  EXPECT_EQ(ok.beyond, 10u);
  EXPECT_TRUE(ok.reportable);

  // 999 samples: p99 is the 990th value (ceil(989.01)), 9 beyond.
  const TailStat short_run = TailPercentile(OneToN(999), 0.99);
  EXPECT_DOUBLE_EQ(short_run.value, 990.0);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.reportable);
}

TEST(Percentile, TiesAtTheTailAreNotBeyond) {
  // 20 samples at the top value: nothing lies strictly above p99.
  std::vector<double> v = OneToN(980);
  v.insert(v.end(), 20, 5000.0);
  const TailStat t = TailPercentile(v, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 5000.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_FALSE(t.reportable);
}

TEST(Windows, EqualCountEdgesSplitBySchedule) {
  // Ten samples, uneven in time: the edges fall on the 4th and 7th
  // (k * 10 / 3 = 3, 6) smallest scheduled times.
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3, 0.4,
                                   0.5, 0.6, 5.0, 9.0, 9.5};
  const auto edges = EqualCountEdges(due, 3);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges[1], 0.3);
  EXPECT_DOUBLE_EQ(edges[2], 0.6);
  EXPECT_TRUE(std::isinf(edges[0]) && edges[0] < 0);
  EXPECT_TRUE(std::isinf(edges[3]) && edges[3] > 0);
}

TEST(Windows, MedianOfPerWindowQuantiles) {
  // Three windows of five: values 1..5, 10..14, 100..104.
  std::vector<double> due, values;
  for (int w = 0; w < 3; ++w) {
    const double base = w == 0 ? 1 : w == 1 ? 10 : 100;
    for (int i = 0; i < 5; ++i) {
      due.push_back(w + 0.1 * i);
      values.push_back(base + i);
    }
  }
  const auto edges = EqualCountEdges(due, 3);
  EXPECT_DOUBLE_EQ(edges[1], 1.0);  // an edge sample opens the later window
  const WindowedStat p50 = MedianOverWindows(due, values, edges, 0.5);
  // Per-window medians 3, 12, 102; their median is 12.
  EXPECT_DOUBLE_EQ(p50.value, 12.0);
  EXPECT_EQ(p50.parts, 3u);
  EXPECT_EQ(p50.min_samples, 5u);
  EXPECT_EQ(p50.min_beyond, 2u);
  // Samples outside the edges land in the first and last windows.
  due.push_back(-7.0);
  values.push_back(0.0);
  due.push_back(99.0);
  values.push_back(1000.0);
  const WindowedStat wider = MedianOverWindows(due, values, edges, 0.5);
  EXPECT_EQ(wider.min_samples, 5u);
  EXPECT_DOUBLE_EQ(wider.value, 12.0);
}

TEST(OpenLoop, LatenessAndLatencyCountFromTheSchedule) {
  const OpenLoopSample on_time{1.000, 1.000, 1.002};
  const OpenLoopSample late{1.000, 1.005, 1.006};
  const OpenLoopSample early{1.000, 0.999, 1.001};
  EXPECT_DOUBLE_EQ(Lateness(on_time), 0.0);
  EXPECT_NEAR(Lateness(late), 0.005, 1e-12);
  EXPECT_DOUBLE_EQ(Lateness(early), 0.0);
  EXPECT_NEAR(LatencyFromSchedule(on_time), 0.002, 1e-12);
  // The stall before the send is part of what the user waited.
  EXPECT_NEAR(LatencyFromSchedule(late), 0.006, 1e-12);
}

TEST(OpenLoop, BacklogGrowthComparesTheTwoEnds) {
  std::vector<OpenLoopSample> steady, growing, one_stall;
  for (int i = 0; i < 100; ++i) {
    const double t = i * 0.001;
    steady.push_back({t, t + 0.0001, t + 0.0002});
    // Lateness rises 0.1 ms per request: the ends differ by ~9 ms.
    growing.push_back({t, t + i * 0.0001, t + i * 0.0001 + 0.0001});
    // One 50 ms stall in the middle, otherwise on time.
    const double lag = i == 50 ? 0.05 : 0.0;
    one_stall.push_back({t, t + lag, t + lag + 0.0001});
  }
  EXPECT_FALSE(BacklogGrows(steady, 0.001));
  EXPECT_TRUE(BacklogGrows(growing, 0.001));
  EXPECT_FALSE(BacklogGrows(growing, 0.01));
  EXPECT_FALSE(BacklogGrows(one_stall, 0.001));
}

TEST(RateSearch, BisectsGeometricallyToTheKnee) {
  std::vector<double> probed;
  const auto below_3000 = [&](double r) {
    probed.push_back(r);
    return r <= 3000.0;
  };
  // lo=1000, hi=16000: mids 4000 (fail), 2000 (pass), 2828.43 (pass),
  // 3363.59 (fail).
  const double got = SearchMaxRate(1000.0, 16000.0, 4, below_3000);
  EXPECT_NEAR(got, 2828.4271247, 1e-6);
  ASSERT_EQ(probed.size(), 6u);
  EXPECT_DOUBLE_EQ(probed[0], 1000.0);
  EXPECT_DOUBLE_EQ(probed[1], 16000.0);
  EXPECT_DOUBLE_EQ(probed[2], 4000.0);
  EXPECT_DOUBLE_EQ(probed[3], 2000.0);
}

TEST(RateSearch, EndsAreHonoured) {
  EXPECT_DOUBLE_EQ(SearchMaxRate(1000, 8000, 5, [](double) { return false; }),
                   0.0);
  EXPECT_DOUBLE_EQ(SearchMaxRate(1000, 8000, 5, [](double) { return true; }),
                   8000.0);
}

TEST(RateSearch, SameVerdictsGiveTheSameAnswer) {
  const auto knee = [](double r) { return r < 5123.0; };
  const double a = SearchMaxRate(500, 64000, 10, knee);
  const double b = SearchMaxRate(500, 64000, 10, knee);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_LT(a, 5123.0);
  EXPECT_GT(a, 5123.0 / 1.005);  // resolution 128^(1/1024) - 1 ~ 0.5%
}

TEST(Spans, SelfTimeSubtractsCoveredChildren) {
  // request [0,10] with children embed [1,3], scan [2,6] (overlaps embed),
  // judge [7,8]; scan has a child kernel [3,5].
  const std::vector<Span> spans = {
      {1, 0, 42, "request", 0.0, 10.0}, {2, 1, 42, "embed", 1.0, 3.0},
      {3, 1, 42, "scan", 2.0, 6.0},     {4, 1, 42, "judge", 7.0, 8.0},
      {5, 3, 42, "kernel", 3.0, 5.0},
  };
  const auto self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 6.0);  // [1,6] and [7,8] covered
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(Spans, ChildrenOutsideTheParentAreClipped) {
  const std::vector<Span> spans = {
      {1, 0, 7, "request", 1.0, 2.0},
      {2, 1, 7, "late", 1.5, 4.0},
      {3, 0, 8, "other", 0.0, 9.0},  // another request's root: not a child
  };
  const auto self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.5);
  EXPECT_DOUBLE_EQ(self[1], 2.5);
  EXPECT_DOUBLE_EQ(self[2], 9.0);
}

}  // namespace
}  // namespace servebench
