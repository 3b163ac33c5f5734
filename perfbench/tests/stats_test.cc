// Self-tests for the benchmark's own statistics (src/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace perfbench {
namespace {

using std::chrono::milliseconds;

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileTest, NearestRankOnKnownSample) {
  EXPECT_DOUBLE_EQ(PercentileUnchecked(OneTo(1000), 50), 500.0);
  EXPECT_DOUBLE_EQ(PercentileUnchecked(OneTo(1000), 99), 990.0);
  EXPECT_DOUBLE_EQ(PercentileUnchecked(OneTo(1), 99), 1.0);
  EXPECT_DOUBLE_EQ(PercentileUnchecked({}, 50), 0.0);
}

std::vector<Sample> Timed(const std::vector<double>& values) {
  std::vector<Sample> samples;
  for (size_t i = 0; i < values.size(); ++i) {
    samples.push_back({static_cast<double>(i), values[i]});
  }
  return samples;
}

TEST(PercentileTest, P99NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  ASSERT_TRUE(ChunkedPercentile(Timed(OneTo(1000)), 99, 1).has_value());
  EXPECT_DOUBLE_EQ(*ChunkedPercentile(Timed(OneTo(1000)), 99, 1), 990.0);
  EXPECT_FALSE(ChunkedPercentile(Timed(OneTo(999)), 99, 1).has_value());
  EXPECT_FALSE(ChunkedPercentile({}, 99, 1).has_value());
}

TEST(PercentileTest, MedianNeedsTwentySamples) {
  EXPECT_EQ(SamplesBeyond(20, 50), 10u);
  EXPECT_TRUE(ChunkedPercentile(Timed(OneTo(20)), 50, 1).has_value());
  EXPECT_FALSE(ChunkedPercentile(Timed(OneTo(19)), 50, 1).has_value());
}

std::vector<Sample> Steady(size_t n, double per_s, double ms) {
  std::vector<Sample> samples;
  for (size_t i = 0; i < n; ++i) {
    samples.push_back({static_cast<double>(i) / per_s, ms});
  }
  return samples;
}

TEST(ChunkedPercentileTest, AStallInOneChunkDoesNotMoveTheMedian) {
  std::vector<Sample> samples = Steady(5000, 1000.0, 1.0);
  for (size_t i = 2000; i < 2100; ++i) samples[i].ms = 50.0;  // chunk 2
  EXPECT_DOUBLE_EQ(PercentileUnchecked(Values(samples), 99), 50.0);
  ASSERT_TRUE(ChunkedPercentile(samples, 99, 5).has_value());
  EXPECT_DOUBLE_EQ(*ChunkedPercentile(samples, 99, 5), 1.0);
}

TEST(ChunkedPercentileTest, ChunksShrinkToKeepTenBeyond) {
  // 2,500 samples: three chunks of 833 leave 8 beyond p99, two leave 12.
  std::vector<Sample> samples = Steady(2500, 100.0, 1.0);
  for (size_t i = 0; i < 13; ++i) samples[i].ms = 9.0;  // first chunk only
  EXPECT_DOUBLE_EQ(*ChunkedPercentile(samples, 99, 5), 1.0);
  EXPECT_FALSE(ChunkedPercentile(Steady(999, 100.0, 1.0), 99, 5).has_value());
  EXPECT_DOUBLE_EQ(*ChunkedPercentile(Steady(1000, 100.0, 2.0), 99, 5), 2.0);
}

TEST(ChunkedRateTest, MedianRateOverSlices) {
  std::vector<Sample> events = Steady(1000, 100.0, 0.0);  // 10 s at 100/s
  EXPECT_DOUBLE_EQ(ChunkedRate(events, 10.0, 5), 100.0);
  // A dead slice lowers one chunk, not the median; late events are out.
  std::vector<Sample> gap;
  for (const Sample& e : events) {
    if (e.at_s < 2.0 || e.at_s >= 4.0) gap.push_back(e);
  }
  gap.push_back({12.0, 0.0});
  EXPECT_DOUBLE_EQ(ChunkedRate(gap, 10.0, 5), 100.0);
}

TEST(TallyTest, EveryOutcomeCountsAgainstSent) {
  Tally tally;
  tally.sent = 10;
  for (Outcome outcome :
       {Outcome::kOk, Outcome::kOk, Outcome::kOk, Outcome::kError,
        Outcome::kShed, Outcome::kTimeout, Outcome::kBadFlags}) {
    tally.Count(outcome);
  }
  tally.Demote();  // one ok key failed verification afterwards
  EXPECT_EQ(tally.ok, 2u);
  EXPECT_EQ(tally.mismatch, 1u);
  EXPECT_EQ(tally.failed(), 5u);
  // Two requests never answered: they count as failed too.
  EXPECT_EQ(tally.unanswered(), 3u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.8);
}

TEST(TallyTest, MergeAddsBuckets) {
  Tally a;
  a.sent = 2;
  a.Count(Outcome::kOk);
  a.Count(Outcome::kShed);
  Tally b;
  b.sent = 1;
  b.Count(Outcome::kOk);
  a.Merge(b);
  EXPECT_EQ(a.sent, 3u);
  EXPECT_EQ(a.ok, 2u);
  EXPECT_EQ(a.failed(), 1u);
  EXPECT_DOUBLE_EQ(a.failed_frac(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Tally().failed_frac(), 0.0);
}

// A synthetic schedule on a manual clock: 10 ms period, instant service,
// and one send that stalls the generator for 50 ms. Latency is timed from
// each request's due time, so the stall must reach the requests behind
// it, and the generator must report itself late for them.
TEST(DriveScheduleTest, StallShowsInLaterLatencyAndLag) {
  Clock::time_point now{};
  const Schedule schedule{now, milliseconds(10)};
  const uint64_t stalled = 5;
  std::vector<double> lag_ms;
  std::vector<double> latency_ms;
  DriveSchedule(
      schedule, 20, [&] { return now; },
      [&](Clock::time_point due) { now = std::max(now, due); },
      [&](uint64_t i, Clock::time_point due) {
        if (i == stalled) now += milliseconds(50);
        latency_ms.push_back(Millis(now - due));  // answered on return
      },
      &lag_ms);
  ASSERT_EQ(lag_ms.size(), 20u);
  ASSERT_EQ(latency_ms.size(), 20u);
  for (uint64_t i = 0; i < stalled; ++i) {
    EXPECT_DOUBLE_EQ(lag_ms[i], 0.0) << i;
    EXPECT_DOUBLE_EQ(latency_ms[i], 0.0) << i;
  }
  EXPECT_DOUBLE_EQ(lag_ms[stalled], 0.0);
  EXPECT_DOUBLE_EQ(latency_ms[stalled], 50.0);
  // The four requests due during the stall leave late, and their latency
  // carries the wait; timing from the actual send would have hidden it.
  for (uint64_t i = stalled + 1; i < stalled + 5; ++i) {
    const double late = 50.0 - 10.0 * static_cast<double>(i - stalled);
    EXPECT_DOUBLE_EQ(lag_ms[i], late) << i;
    EXPECT_DOUBLE_EQ(latency_ms[i], late) << i;
  }
  for (uint64_t i = stalled + 5; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(lag_ms[i], 0.0) << i;
  }
  EXPECT_DOUBLE_EQ(PercentileUnchecked(lag_ms, 99), 40.0);
  EXPECT_DOUBLE_EQ(PercentileUnchecked(latency_ms, 99), 50.0);
}

TEST(SelfTimeTest, ChildrenAreSubtractedFromTheirParentOnly) {
  const Clock::time_point t0{};
  auto at = [&](int ms) { return t0 + milliseconds(ms); };
  std::vector<Span> spans = {
      {"wire", at(0), at(10), -1, 7},
      {"group", at(10), at(18), 0, 7},
      {"proxy", at(18), at(25), 1, 7},
      {"snapshot", at(25), at(28), 2, 7},
      {"search", at(28), at(30), 2, 7},
  };
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);  // wire 10 - group 8
  EXPECT_DOUBLE_EQ(self[1], 1.0);  // group 8 - proxy 7
  EXPECT_DOUBLE_EQ(self[2], 2.0);  // proxy 7 - snapshot 3 - search 2
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
}

}  // namespace
}  // namespace perfbench
