// Unit coverage for the admission-control building blocks: the CoDel-style
// buildup detector, the AIMD concurrency limiter, the explanation LRU
// cache, and the OverloadController that composes them with the per-class
// token buckets. Deterministic via manual clocks; one threaded test covers
// the queue-wait handoff.

#include "serving/overload.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/deadline.h"

namespace cce::serving {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using Clock = std::chrono::steady_clock;

class ManualClock {
 public:
  OverloadController::ClockFn fn() {
    return [this] { return now_; };
  }
  void Advance(milliseconds delta) { now_ += delta; }
  Clock::time_point now() const { return now_; }

 private:
  Clock::time_point now_{};
};

// ---------------------------------------------------------------- CoDel --

TEST(CodelDetectorTest, TransientSpikesDoNotTriggerShedding) {
  CodelDetector::Options options;
  options.target = milliseconds(5);
  options.interval = milliseconds(100);
  CodelDetector codel(options);
  Clock::time_point now{};
  // A single slow sojourn followed by a fast one: healthy burst.
  EXPECT_FALSE(codel.Observe(milliseconds(50), now));
  now += milliseconds(10);
  EXPECT_FALSE(codel.Observe(milliseconds(1), now));
  EXPECT_FALSE(codel.shedding());
}

TEST(CodelDetectorTest, SustainedBuildupTriggersAndRecovers) {
  CodelDetector::Options options;
  options.target = milliseconds(5);
  options.interval = milliseconds(100);
  CodelDetector codel(options);
  Clock::time_point now{};
  EXPECT_FALSE(codel.Observe(milliseconds(50), now));
  now += milliseconds(99);
  EXPECT_FALSE(codel.Observe(milliseconds(50), now))
      << "interval not yet elapsed";
  now += milliseconds(1);
  EXPECT_TRUE(codel.Observe(milliseconds(50), now))
      << "above target for a full interval";
  EXPECT_TRUE(codel.shedding());
  // One sojourn back under target proves the queue drains.
  now += milliseconds(10);
  EXPECT_FALSE(codel.Observe(milliseconds(1), now));
  EXPECT_FALSE(codel.shedding());
}

// ----------------------------------------------------- AdaptiveConcurrency --

TEST(AdaptiveConcurrencyTest, AdditiveIncreaseAfterFastStreak) {
  AdaptiveConcurrency::Options options;
  options.initial = 4;
  options.max = 6;
  options.latency_target = milliseconds(100);
  options.increase_every = 3;
  AdaptiveConcurrency aimd(options);
  EXPECT_EQ(aimd.limit(), 4);
  aimd.OnCompletion(milliseconds(10));
  aimd.OnCompletion(milliseconds(10));
  EXPECT_EQ(aimd.limit(), 4) << "streak not yet complete";
  aimd.OnCompletion(milliseconds(10));
  EXPECT_EQ(aimd.limit(), 5);
  for (int i = 0; i < 30; ++i) aimd.OnCompletion(milliseconds(10));
  EXPECT_EQ(aimd.limit(), 6) << "clamped at max";
  EXPECT_EQ(aimd.increases(), 2u);
}

TEST(AdaptiveConcurrencyTest, MultiplicativeDecreaseOnSlowCompletion) {
  AdaptiveConcurrency::Options options;
  options.initial = 16;
  options.min = 2;
  options.latency_target = milliseconds(100);
  options.decrease_factor = 0.5;
  AdaptiveConcurrency aimd(options);
  aimd.OnCompletion(milliseconds(500));
  EXPECT_EQ(aimd.limit(), 8);
  aimd.OnCompletion(milliseconds(500));
  EXPECT_EQ(aimd.limit(), 4);
  aimd.OnCompletion(milliseconds(500));
  aimd.OnCompletion(milliseconds(500));
  EXPECT_EQ(aimd.limit(), 2) << "clamped at min";
  aimd.OnCompletion(milliseconds(500));
  EXPECT_EQ(aimd.limit(), 2);
  EXPECT_EQ(aimd.decreases(), 3u) << "cuts at the floor are not counted";
}

TEST(AdaptiveConcurrencyTest, SlowCompletionResetsTheFastStreak) {
  AdaptiveConcurrency::Options options;
  options.initial = 4;
  options.latency_target = milliseconds(100);
  options.increase_every = 2;
  AdaptiveConcurrency aimd(options);
  aimd.OnCompletion(milliseconds(10));
  aimd.OnCompletion(milliseconds(500));  // cut to 2, streak reset
  EXPECT_EQ(aimd.limit(), 2);
  aimd.OnCompletion(milliseconds(10));
  EXPECT_EQ(aimd.limit(), 2);
  aimd.OnCompletion(milliseconds(10));
  EXPECT_EQ(aimd.limit(), 3);
}

TEST(AdaptiveConcurrencyTest, DeterministicAcrossReplays) {
  const auto run = [] {
    AdaptiveConcurrency aimd(AdaptiveConcurrency::Options{});
    for (int i = 0; i < 100; ++i) {
      aimd.OnCompletion(milliseconds(i % 7 == 0 ? 500 : 10));
    }
    return aimd.limit();
  };
  EXPECT_EQ(run(), run());
}

// ----------------------------------------------------------- ExplainCache --

KeyResult MakeKey(std::initializer_list<FeatureId> features) {
  KeyResult key;
  key.key.assign(features);
  key.achieved_alpha = 1.0;  // a cached full key has zero violators
  return key;
}

TEST(ExplainCacheTest, FreshEntryServesWithoutRevalidation) {
  ExplainCache::Options options;
  options.capacity = 4;
  ExplainCache cache(options);
  Instance x{1, 2, 3};
  cache.Put(x, 0, cache.delta_seq(), /*window_rows=*/3, MakeKey({0, 2}));
  auto hit = cache.Get(x, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cached);
  EXPECT_EQ(hit->key, (FeatureSet{0, 2}));
  EXPECT_FALSE(cache.Get(x, 1).has_value()) << "label is part of the key";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().revalidations, 0u)
      << "no window delta since the entry was stored";
}

TEST(ExplainCacheTest, BenignDeltaRevalidates) {
  ExplainCache cache(ExplainCache::Options{});
  // Key {0} for (x, y=0): conformity depends only on rows matching x[0].
  Instance x{1, 2};
  cache.Put(x, 0, cache.delta_seq(), /*window_rows=*/2, MakeKey({0}));
  // Same key projection, same label: supports the key, never breaks it.
  cache.RecordAdd(Instance{1, 9}, 0);
  // Different key projection: invisible to the key regardless of label.
  cache.RecordAdd(Instance{7, 9}, 1);
  auto hit = cache.Get(x, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->key, (FeatureSet{0}));
  EXPECT_EQ(cache.stats().revalidations, 1u)
      << "the slide was replayed and the key re-proven";
  EXPECT_EQ(cache.stats().revalidation_failures, 0u);
  // A second Get sees the refreshed stamp: fresh, no second replay.
  EXPECT_TRUE(cache.Get(x, 0).has_value());
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

TEST(ExplainCacheTest, ConflictingDeltaBreaksTheKey) {
  ExplainCache cache(ExplainCache::Options{});  // alpha = 1: no violators
  Instance x{1, 2};
  cache.Put(x, 0, cache.delta_seq(), /*window_rows=*/2, MakeKey({0}));
  // Agrees with x on the key feature but carries the other label: a
  // violator under alpha = 1, so the cached key is no longer a key.
  cache.RecordAdd(Instance{1, 5}, 1);
  EXPECT_FALSE(cache.Get(x, 0).has_value());
  EXPECT_EQ(cache.stats().revalidation_failures, 1u);
  EXPECT_EQ(cache.size(), 0u) << "broken entry evicted on lookup";
}

TEST(ExplainCacheTest, RemovalOfViolatorRestoresHeadroom) {
  ExplainCache::Options options;
  options.alpha = 0.75;  // one violator tolerated per 4 rows
  ExplainCache cache(options);
  Instance x{1, 2};
  KeyResult key = MakeKey({0});
  key.achieved_alpha = 0.75;  // 1 violator among 4 rows at Put time
  cache.Put(x, 0, cache.delta_seq(), /*window_rows=*/4, key);
  // The window slides: the old violator leaves, a fresh one arrives.
  cache.RecordRemove(Instance{1, 8}, 1);
  cache.RecordAdd(Instance{1, 9}, 1);
  auto hit = cache.Get(x, 0);
  ASSERT_TRUE(hit.has_value()) << "still exactly one violator in 4 rows";
  EXPECT_EQ(cache.stats().revalidations, 1u);
  // A second conflicting arrival tips it over the alpha budget.
  cache.RecordAdd(Instance{1, 3}, 1);
  EXPECT_FALSE(cache.Get(x, 0).has_value());
  EXPECT_EQ(cache.stats().revalidation_failures, 1u);
}

TEST(ExplainCacheTest, DeltasBeyondTheRingDropTheEntry) {
  ExplainCache::Options options;
  options.revalidation_window = 2;
  ExplainCache cache(options);
  Instance x{7};
  cache.Put(x, 0, cache.delta_seq(), /*window_rows=*/1, MakeKey({0}));
  for (int i = 0; i < 3; ++i) cache.RecordAdd(Instance{7}, 0);
  EXPECT_FALSE(cache.Get(x, 0).has_value())
      << "3 deltas since the entry, ring holds 2: unverifiable";
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.stats().revalidation_failures, 0u)
      << "uncovered is not disproven — different counter";
  EXPECT_EQ(cache.size(), 0u) << "unverifiable entry evicted on lookup";
}

TEST(ExplainCacheTest, PutWithStaleStampIsSkipped) {
  ExplainCache cache(ExplainCache::Options{});
  Instance x{5};
  const uint64_t stamp = cache.delta_seq();
  // A record lands between the caller's snapshot and its Put: whether the
  // snapshot included that row is unknowable, so the entry is refused.
  cache.RecordAdd(Instance{5}, 0);
  cache.Put(x, 0, stamp, /*window_rows=*/1, MakeKey({0}));
  EXPECT_FALSE(cache.Get(x, 0).has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ExplainCacheTest, LruEviction) {
  ExplainCache::Options options;
  options.capacity = 2;
  ExplainCache cache(options);
  cache.Put(Instance{1}, 0, 0, 1, MakeKey({0}));
  cache.Put(Instance{2}, 0, 0, 1, MakeKey({1}));
  EXPECT_TRUE(cache.Get(Instance{1}, 0).has_value());  // 1 now MRU
  cache.Put(Instance{3}, 0, 0, 1, MakeKey({2}));       // evicts 2
  EXPECT_TRUE(cache.Get(Instance{1}, 0).has_value());
  EXPECT_FALSE(cache.Get(Instance{2}, 0).has_value());
  EXPECT_TRUE(cache.Get(Instance{3}, 0).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ExplainCacheTest, PutRefreshesExistingEntry) {
  ExplainCache cache(ExplainCache::Options{});
  Instance x{5};
  cache.Put(x, 0, 0, 1, MakeKey({0}));
  cache.Put(x, 0, 0, 1, MakeKey({1}));
  auto hit = cache.Get(x, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->key, (FeatureSet{1}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ExplainCacheTest, ClearDropsEntriesAndDeltas) {
  ExplainCache cache(ExplainCache::Options{});
  cache.Put(Instance{1}, 0, 0, 1, MakeKey({0}));
  cache.RecordAdd(Instance{2}, 0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(Instance{1}, 0).has_value());
  // The ring restarts too: a fresh Put at the new stamp is accepted.
  cache.Put(Instance{3}, 0, cache.delta_seq(), 1, MakeKey({1}));
  EXPECT_TRUE(cache.Get(Instance{3}, 0).has_value());
}

TEST(ExplainCacheTest, ZeroCapacityDisables) {
  ExplainCache::Options options;
  options.capacity = 0;
  ExplainCache cache(options);
  cache.Put(Instance{1}, 0, 0, 1, MakeKey({0}));
  cache.RecordAdd(Instance{1}, 0);
  EXPECT_FALSE(cache.Get(Instance{1}, 0).has_value());
  EXPECT_EQ(cache.delta_seq(), 0u) << "disabled cache records no deltas";
}

// ----------------------------------------------------- OverloadController --

OverloadController::Options BaseOptions(ManualClock* clock) {
  OverloadController::Options options;
  options.enabled = true;
  options.clock = clock->fn();
  return options;
}

TEST(OverloadControllerTest, CheapClassesHaveIndependentBuckets) {
  ManualClock clock;
  OverloadController::Options options = BaseOptions(&clock);
  options.predict_bucket.refill_per_sec = 10.0;
  options.predict_bucket.burst = 2.0;
  // record_bucket left unlimited.
  OverloadController controller(options);
  EXPECT_TRUE(controller.AdmitCheap(RequestClass::kPredict).ok());
  EXPECT_TRUE(controller.AdmitCheap(RequestClass::kPredict).ok());
  Status shed = controller.AdmitCheap(RequestClass::kPredict);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ParseRetryAfterMs(shed), 1);
  // A predict flood must not consume record's budget.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(controller.AdmitCheap(RequestClass::kRecord).ok());
  }
  OverloadController::Stats stats = controller.stats();
  EXPECT_EQ(stats.admitted_predicts, 2u);
  EXPECT_EQ(stats.admitted_records, 100u);
  EXPECT_EQ(stats.shed_rate_limited, 1u);
}

TEST(OverloadControllerTest, ExpensiveRateLimitShedsWithRetryAfter) {
  ManualClock clock;
  OverloadController::Options options = BaseOptions(&clock);
  options.explain_bucket.refill_per_sec = 10.0;
  options.explain_bucket.burst = 1.0;
  OverloadController controller(options);
  auto first =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite());
  EXPECT_TRUE(first.ok());
  auto second =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ParseRetryAfterMs(second.status()), 100);
  clock.Advance(milliseconds(100));
  EXPECT_TRUE(
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite())
          .ok());
}

TEST(OverloadControllerTest, QueueFullSheds) {
  ManualClock clock;
  OverloadController::Options options = BaseOptions(&clock);
  options.concurrency.initial = 1;
  options.max_queue = 0;  // no waiting: reject once slots are gone
  OverloadController controller(options);
  auto held =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite());
  ASSERT_TRUE(held.ok());
  auto rejected =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_queue_full, 1u);
}

TEST(OverloadControllerTest, ExpiredDeadlineInQueueIsDeadlineExceeded) {
  ManualClock clock;
  OverloadController::Options options = BaseOptions(&clock);
  options.concurrency.initial = 1;
  options.shed_unmeetable_deadlines = false;  // isolate the queue path
  OverloadController controller(options);
  auto held =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite());
  ASSERT_TRUE(held.ok());
  auto expired =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Expired());
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(controller.stats().shed_queue_deadline, 1u);
}

TEST(OverloadControllerTest, UnmeetableDeadlineShedsOnArrival) {
  ManualClock clock;
  OverloadController::Options options = BaseOptions(&clock);
  options.concurrency.initial = 1;
  OverloadController controller(options);
  {
    // Teach the EWMA a 10s service time.
    auto permit = controller.AdmitExpensive(RequestClass::kExplain,
                                            Deadline::Infinite());
    ASSERT_TRUE(permit.ok());
    clock.Advance(milliseconds(10000));
  }
  EXPECT_GE(controller.stats().explain_latency_ewma_us, 9000000);
  auto hopeless = controller.AdmitExpensive(
      RequestClass::kExplain, Deadline::After(milliseconds(5)));
  ASSERT_FALSE(hopeless.ok());
  EXPECT_EQ(hopeless.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ParseRetryAfterMs(hopeless.status()), 1);
  EXPECT_EQ(controller.stats().shed_deadline_unmeetable, 1u);
  // A generous deadline is still admitted.
  EXPECT_TRUE(controller
                  .AdmitExpensive(RequestClass::kExplain,
                                  Deadline::After(std::chrono::seconds(60)))
                  .ok());
}

TEST(OverloadControllerTest, ReleaseFeedsAimdAndFreesSlot) {
  ManualClock clock;
  OverloadController::Options options = BaseOptions(&clock);
  options.concurrency.initial = 2;
  options.concurrency.min = 1;
  options.concurrency.latency_target = milliseconds(100);
  options.max_queue = 0;
  OverloadController controller(options);
  {
    auto permit = controller.AdmitExpensive(RequestClass::kExplain,
                                            Deadline::Infinite());
    ASSERT_TRUE(permit.ok());
    clock.Advance(milliseconds(500));  // slow completion
  }
  OverloadController::Stats stats = controller.stats();
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_EQ(stats.concurrency_limit, 1) << "multiplicative decrease applied";
  EXPECT_EQ(stats.concurrency_decreases, 1u);
}

TEST(OverloadControllerTest, QueuedWaiterAdmittedWhenSlotFrees) {
  // Real clock: a waiter blocked on the admission queue must wake when the
  // in-flight permit releases its slot.
  OverloadController::Options options;
  options.enabled = true;
  options.concurrency.initial = 1;
  options.concurrency.latency_target = std::chrono::seconds(10);
  OverloadController controller(options);
  auto held =
      controller.AdmitExpensive(RequestClass::kExplain, Deadline::Infinite());
  ASSERT_TRUE(held.ok());
  std::optional<OverloadController::Permit> permit(std::move(held).value());
  std::optional<Status> waiter_status;
  std::thread waiter([&] {
    auto admitted = controller.AdmitExpensive(
        RequestClass::kExplain, Deadline::After(std::chrono::seconds(30)));
    waiter_status = admitted.ok() ? Status::Ok() : admitted.status();
  });
  // Give the waiter time to reach the queue, then free the slot.
  while (controller.stats().queue_waits == 0) {
    std::this_thread::yield();
  }
  permit.reset();
  waiter.join();
  ASSERT_TRUE(waiter_status.has_value());
  EXPECT_TRUE(waiter_status->ok()) << waiter_status->ToString();
  OverloadController::Stats stats = controller.stats();
  EXPECT_EQ(stats.admitted_explains, 2u);
  EXPECT_EQ(stats.queue_waits, 1u);
}

TEST(ParseRetryAfterMsTest, RoundTripAndAbsent) {
  EXPECT_EQ(ParseRetryAfterMs(Status::ResourceExhausted(
                "overload: x rate limit; retry_after_ms=42")),
            42);
  EXPECT_EQ(ParseRetryAfterMs(Status::ResourceExhausted("no hint")), -1);
  EXPECT_EQ(ParseRetryAfterMs(Status::Ok()), -1);
}

}  // namespace
}  // namespace cce::serving
