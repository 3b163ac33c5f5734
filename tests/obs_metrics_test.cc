// The metrics substrate (DESIGN.md §9): counters/gauges/histograms through
// a Registry, find-or-create cell identity, the disable switch, log-linear
// histogram bucketing, injectable clocks, thread-pool gauges — and a
// multi-threaded hammer on one counter + one histogram (run under TSan in
// the tier-2 suite) proving the sharded write path is race-free and exact.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace cce::obs {
namespace {

using std::chrono::microseconds;
using std::chrono::steady_clock;

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Registry registry;
  Counter* c = registry.GetCounter("c_total", "help");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(CounterTest, FindOrCreateReturnsTheSameCell) {
  Registry registry;
  Counter* a = registry.GetCounter("c_total", "help");
  Counter* b = registry.GetCounter("c_total", "");  // a lookup
  EXPECT_EQ(a, b);
  // Distinct label sets are distinct children of the same family; label
  // order is normalised, so a permuted set is the same child.
  Counter* x = registry.GetCounter("c_total", "help",
                                   {{"op", "explain"}, {"tier", "1"}});
  Counter* y = registry.GetCounter("c_total", "help",
                                   {{"tier", "1"}, {"op", "explain"}});
  Counter* z = registry.GetCounter("c_total", "help", {{"op", "predict"}});
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
  EXPECT_NE(x, a);
}

TEST(CounterTest, DisabledRegistryDropsWrites) {
  Registry::Options options;
  options.enabled = false;
  Registry registry(options);
  Counter* c = registry.GetCounter("c_total", "help");
  c->Add(5);
  EXPECT_EQ(c->Value(), 0u);
  // Re-enabling resumes counting; nothing recorded while off comes back.
  registry.set_enabled(true);
  c->Add(5);
  EXPECT_EQ(c->Value(), 5u);
}

TEST(GaugeTest, SetAndAdd) {
  Registry registry;
  Gauge* g = registry.GetGauge("g", "help");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
}

TEST(GaugeTest, CallbackOverridesStoredValue) {
  Registry registry;
  Gauge* g = registry.GetGauge("g", "help");
  g->Set(10);
  int64_t live = 99;
  const uint64_t token = g->SetCallback([&live] { return live; });
  EXPECT_EQ(g->Value(), 99);
  live = 100;
  EXPECT_EQ(g->Value(), 100);
  g->ClearCallback(token);
  EXPECT_EQ(g->Value(), 10) << "cleared callback falls back to the cell";
}

TEST(GaugeTest, LaterCallbackWinsAndStaleClearIsANoOp) {
  // The RAII-binder contract: if binder A dies after binder B re-bound the
  // same gauge name, A's destructor must not unbind B.
  Registry registry;
  Gauge* g = registry.GetGauge("g", "help");
  const uint64_t token_a = g->SetCallback([] { return int64_t{1}; });
  const uint64_t token_b = g->SetCallback([] { return int64_t{2}; });
  g->ClearCallback(token_a);  // stale: B owns the binding now
  EXPECT_EQ(g->Value(), 2);
  g->ClearCallback(token_b);
  EXPECT_EQ(g->Value(), 0);
}

TEST(HistogramTest, LogLinearBounds) {
  Registry registry;
  Histogram::Options options;
  options.sub_buckets_per_octave = 4;
  options.max_value = 32;
  Histogram* h = registry.GetHistogram("h_us", "help", {}, options);
  const std::vector<int64_t> expected = {1,  2,  3,  4,  5,  6,  7,
                                         8,  10, 12, 14, 16, 20, 24,
                                         28, 32};
  EXPECT_EQ(h->bounds(), expected);
}

TEST(HistogramTest, ObservationsLandInTheRightBuckets) {
  Registry registry;
  Histogram::Options options;
  options.sub_buckets_per_octave = 2;
  options.max_value = 8;
  Histogram* h = registry.GetHistogram("h_us", "help", {}, options);
  ASSERT_EQ(h->bounds(), (std::vector<int64_t>{1, 2, 3, 4, 6, 8}));
  h->Observe(0);    // le=1 (first bucket takes everything <= 1)
  h->Observe(-5);   // clamped to 0 -> le=1
  h->Observe(2);    // le=2
  h->Observe(5);    // le=6
  h->Observe(100);  // +Inf overflow
  Histogram::Snapshot s = h->TakeSnapshot();
  EXPECT_EQ(s.counts, (std::vector<uint64_t>{2, 1, 0, 0, 1, 0, 1}));
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0 + 0 + 2 + 5 + 100);
}

TEST(HistogramTest, DisabledRegistryDropsObservations) {
  Registry::Options options;
  options.enabled = false;
  Registry registry(options);
  Histogram* h = registry.GetHistogram("h_us", "help");
  h->Observe(7);
  EXPECT_EQ(h->TakeSnapshot().count, 0u);
}

TEST(RegistryTest, CollectIsSortedAndTyped) {
  Registry registry;
  registry.GetGauge("b_gauge", "gauge help")->Set(5);
  registry.GetCounter("a_total", "counter help")->Add(3);
  registry.GetHistogram("c_us", "histogram help")->Observe(1);
  auto families = registry.Collect();
  ASSERT_EQ(families.size(), 3u);
  EXPECT_EQ(families[0].name, "a_total");
  EXPECT_EQ(families[0].type, MetricType::kCounter);
  EXPECT_EQ(families[0].help, "counter help");
  EXPECT_EQ(families[0].samples[0].value, 3);
  EXPECT_EQ(families[1].name, "b_gauge");
  EXPECT_EQ(families[1].samples[0].value, 5);
  EXPECT_EQ(families[2].name, "c_us");
  EXPECT_EQ(families[2].type, MetricType::kHistogram);
  EXPECT_EQ(families[2].samples[0].histogram.count, 1u);
}

TEST(RegistryTest, CollectInvokesGaugeCallbacksOutsideItsMutex) {
  // A callback that itself touches the registry (find-or-create) must not
  // deadlock: Collect reads values only after dropping the registry mutex.
  Registry registry;
  Gauge* g = registry.GetGauge("self_referential", "help");
  g->SetCallback([&registry] {
    registry.GetCounter("side_total", "created inside a collect");
    return int64_t{11};
  });
  auto families = registry.Collect();
  ASSERT_FALSE(families.empty());
  EXPECT_EQ(families[0].samples[0].value, 11);
}

TEST(RegistryTest, TypeClashAborts) {
  Registry registry;
  registry.GetCounter("clash", "help");
  EXPECT_DEATH(registry.GetGauge("clash", "help"), "");
}

TEST(RegistryTest, HelpClashAborts) {
  Registry registry;
  registry.GetCounter("clash", "help");
  registry.GetCounter("clash", "help", {{"shard", "1"}});  // same help
  registry.GetCounter("clash", "");                          // a lookup
  EXPECT_DEATH(registry.GetCounter("clash", "other help"), "");
}

TEST(ScopedLatencyTest, ObservesElapsedMicrosOnInjectedClock) {
  steady_clock::time_point now{};
  Registry::Options options;
  options.clock = [&now] { return now; };
  Registry registry(options);
  Histogram* h = registry.GetHistogram("latency_us", "help");
  {
    ScopedLatency latency(&registry, h);
    now += microseconds(250);
  }
  Histogram::Snapshot s = h->TakeSnapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 250);
}

TEST(ScopedLatencyTest, NullHistogramIsANoOp) {
  Registry registry;
  ScopedLatency latency(&registry, nullptr);  // must not crash at scope exit
}

TEST(ThreadPoolGaugesTest, BindsLiveStateAndUnbindsOnDestruction) {
  Registry registry;
  {
    ThreadPool pool(3);
    ThreadPoolGauges gauges(&registry, &pool, "explain");
    Gauge* threads = registry.GetGauge("cce_thread_pool_threads", "",
                                       {{"pool", "explain"}});
    EXPECT_EQ(threads->Value(), 3);
  }
  // Pool and binder gone: the gauges read their (zero) stored cells rather
  // than chasing a dangling pool pointer.
  Gauge* threads = registry.GetGauge("cce_thread_pool_threads", "",
                                     {{"pool", "explain"}});
  EXPECT_EQ(threads->Value(), 0);
  Gauge* depth = registry.GetGauge("cce_thread_pool_queue_depth", "",
                                   {{"pool", "explain"}});
  EXPECT_EQ(depth->Value(), 0);
}

// Satellite 4's concurrency test: many threads hammer one counter and one
// histogram; after joining, totals are exact (the relaxed sharded writes
// lose nothing) and TSan (tier-2 SANITIZER=thread) sees no race.
TEST(ObsConcurrencyTest, HammeredCounterAndHistogramStayExact) {
  Registry registry;
  Counter* c = registry.GetCounter("hammer_total", "help");
  Histogram* h = registry.GetHistogram("hammer_us", "help");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe((t * kPerThread + i) % 1000);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kPerThread);
  Histogram::Snapshot s = h->TakeSnapshot();
  EXPECT_EQ(s.count, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t count : s.counts) bucket_total += count;
  EXPECT_EQ(bucket_total, s.count) << "every observation is in some bucket";
}

}  // namespace
}  // namespace cce::obs
