// Proxy-level overload protection: per-class admission, the
// full -> cached -> degraded -> shed degradation ladder, input hardening
// at every boundary, edge-case contexts (empty / single record), Explain
// racing Record across WAL compaction generations, and a mixed-traffic
// stress against an overload-bursting backend (scaled up under CCE_STRESS
// for the tier-2 TSan suite).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "serving/fault_model.h"
#include "serving/overload.h"
#include "serving/proxy.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

using std::chrono::milliseconds;

/// Cheap deterministic backend: tests isolate admission behaviour from
/// model cost.
class ParityModel : public Model {
 public:
  Label Predict(const Instance& x) const override {
    return static_cast<Label>(x.empty() ? 0 : x[0] % 2);
  }
};

ExplainableProxy::Options QuietOptions() {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.sleep = [](milliseconds) {};
  return options;
}

int StressScale() {
  const char* env = std::getenv("CCE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 4 : 1;
}

TEST(ProxyOverloadTest, PredictRateLimitShedsWithRetryAfter) {
  testing::Fig2Context fig2;
  ParityModel model;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;
  options.overload.predict_bucket.refill_per_sec = 0.001;  // no refill in-test
  options.overload.predict_bucket.burst = 3.0;
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, options);
  ASSERT_TRUE(proxy.ok());
  const Instance& x = fig2.context.instance(0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*proxy)->Predict(x).ok()) << "burst budget admit " << i;
  }
  auto shed = (*proxy)->Predict(x);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ParseRetryAfterMs(shed.status()), 1);
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.admitted_predicts, 3u);
  EXPECT_EQ(health.shed_rate_limited, 1u);
  EXPECT_EQ((*proxy)->recorded(), 3u) << "shed predicts are not recorded";
  // Record has its own (unlimited) bucket: unaffected by the predict shed.
  EXPECT_TRUE((*proxy)->Record(x, fig2.denied).ok());
}

TEST(ProxyOverloadTest, ShedExplainServedFromCacheThenRejectedCold) {
  testing::Fig2Context fig2;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;
  options.overload.explain_bucket.refill_per_sec = 0.001;
  options.overload.explain_bucket.burst = 1.0;
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  const Instance& x0 = fig2.context.instance(0);
  // First Explain spends the only token and warms the cache.
  auto full = (*proxy)->Explain(x0, fig2.denied);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->cached);
  EXPECT_EQ(full->key, (FeatureSet{fig2.income, fig2.credit}));
  // Second identical request is rate-shed but served from the cache: the
  // cached rung of the ladder, a real key rather than an error.
  auto cached = (*proxy)->Explain(x0, fig2.denied);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cached);
  EXPECT_EQ(cached->key, full->key);
  // A different instance finds a cold cache: the shed surfaces.
  auto shed = (*proxy)->Explain(fig2.context.instance(1), fig2.approved);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ParseRetryAfterMs(shed.status()), 1);
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.cache_served_explains, 1u);
  EXPECT_EQ(health.cache_hits, 1u);
  EXPECT_EQ(health.admitted_explains, 1u);
  EXPECT_EQ(health.shed_rate_limited, 2u);
  EXPECT_EQ(health.explains, 3u);
}

TEST(ProxyOverloadTest, CachedKeyRevalidatesAcrossBenignSlide) {
  testing::Fig2Context fig2;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;
  options.overload.explain_bucket.refill_per_sec = 0.001;
  options.overload.explain_bucket.burst = 1.0;
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  const Instance& x0 = fig2.context.instance(0);
  auto full = (*proxy)->Explain(x0, fig2.denied);
  ASSERT_TRUE(full.ok());
  // The window slides with a row that agrees with x0 on the cached key's
  // features AND its label: the key provably still holds, so the shed
  // request is served from the cache after a delta replay.
  CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(3), fig2.denied));
  auto cached = (*proxy)->Explain(x0, fig2.denied);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cached);
  EXPECT_EQ(cached->key, full->key);
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.cache_revalidations, 1u);
  EXPECT_EQ(health.cache_revalidation_failures, 0u);
  EXPECT_EQ(health.cache_served_explains, 1u);
}

TEST(ProxyOverloadTest, ConflictingRecordBreaksCachedKey) {
  testing::Fig2Context fig2;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;
  options.overload.explain_bucket.refill_per_sec = 0.001;
  options.overload.explain_bucket.burst = 1.0;
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  const Instance& x0 = fig2.context.instance(0);
  ASSERT_TRUE((*proxy)->Explain(x0, fig2.denied).ok());
  // x3 matches x0 on Income and Credit; recording it with the OTHER label
  // makes it a violator of the cached key {Income, Credit}. Revalidation
  // must notice the break and refuse to serve the stale key.
  CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(3), fig2.approved));
  auto shed = (*proxy)->Explain(x0, fig2.denied);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.cache_revalidation_failures, 1u);
  EXPECT_EQ(health.cache_served_explains, 0u)
      << "a disproven key must never be served";
}

TEST(ProxyOverloadTest, CachedKeyDropsWhenDeltaRingOverruns) {
  testing::Fig2Context fig2;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;
  options.overload.explain_bucket.refill_per_sec = 0.001;
  options.overload.explain_bucket.burst = 1.0;
  options.explain_cache.revalidation_window = 2;
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  const Instance& x0 = fig2.context.instance(0);
  ASSERT_TRUE((*proxy)->Explain(x0, fig2.denied).ok());
  // Three records outrun the 2-delta ring: the entry can no longer be
  // proven fresh, so it is dropped rather than served.
  for (int i = 0; i < 3; ++i) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(3), fig2.denied));
  }
  auto shed = (*proxy)->Explain(x0, fig2.denied);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*proxy)->Health().cache_stale_drops, 1u);
}

TEST(ProxyOverloadTest, InputHardeningRejectsPoisonedInstances) {
  testing::Fig2Context fig2;
  ParityModel model;
  ExplainableProxy::Options options = QuietOptions();
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, options);
  ASSERT_TRUE(proxy.ok());
  const Instance& good = fig2.context.instance(0);
  CCE_CHECK_OK((*proxy)->Record(good, fig2.denied));

  Instance out_of_range = good;
  out_of_range[fig2.credit] = 999;  // far outside Credit's domain
  Instance truncated(good.begin(), good.end() - 1);

  EXPECT_EQ((*proxy)->Predict(out_of_range).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*proxy)->Predict(truncated).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*proxy)->Record(out_of_range, fig2.denied).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*proxy)->Record(good, /*y=*/77).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*proxy)->Explain(out_of_range, fig2.denied).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*proxy)->Explain(good, /*y=*/77).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      (*proxy)->Counterfactuals(out_of_range, fig2.denied).status().code(),
      StatusCode::kInvalidArgument);

  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.validation_rejects, 7u);
  EXPECT_EQ((*proxy)->recorded(), 1u)
      << "no poisoned instance reached the context";
}

TEST(ProxyOverloadTest, PoisonedInstanceNeverReachesTheWal) {
  testing::Fig2Context fig2;
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.path();
  ExplainableProxy::Options options = QuietOptions();
  options.durability.dir = dir;
  size_t logged = 0;
  {
    auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
    ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();
    CCE_CHECK_OK(
        (*proxy)->Record(fig2.context.instance(0), fig2.denied));
    Instance poisoned = fig2.context.instance(0);
    poisoned[0] = 12345;
    EXPECT_FALSE((*proxy)->Record(poisoned, fig2.denied).ok());
    logged = (*proxy)->Health().wal_records_logged;
  }
  EXPECT_EQ(logged, 1u);
  auto revived = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->recorded(), 1u);
  EXPECT_EQ((*revived)->Health().wal_records_dropped, 0u);
}

TEST(ProxyOverloadTest, EmptyContextGivesCleanErrors) {
  testing::Fig2Context fig2;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;  // admission runs before the window check
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  const Instance& x = fig2.context.instance(0);
  EXPECT_EQ((*proxy)->Explain(x, fig2.denied).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*proxy)->Counterfactuals(x, fig2.denied).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProxyOverloadTest, SingleRecordContextExplainsAndCounterfactuals) {
  testing::Fig2Context fig2;
  ExplainableProxy::Options options = QuietOptions();
  options.overload.enabled = true;
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  const Instance& x = fig2.context.instance(0);
  CCE_CHECK_OK((*proxy)->Record(x, fig2.denied));
  // Explaining the only record: the empty key is already conformant.
  auto key = (*proxy)->Explain(x, fig2.denied);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_TRUE(key->satisfied);
  // Explaining a *different* label against a one-record context must be a
  // clean answer too (every feature may be needed, or none suffice).
  auto other = (*proxy)->Explain(fig2.context.instance(1), fig2.approved);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  // No opposite-label witness exists in a one-record context: a clean
  // NotFound, not a crash.
  auto witnesses = (*proxy)->Counterfactuals(x, fig2.denied);
  ASSERT_FALSE(witnesses.ok());
  EXPECT_EQ(witnesses.status().code(), StatusCode::kNotFound);
}

TEST(ProxyOverloadTest, ExplainRacesRecordAcrossCompactionGenerations) {
  Dataset data = testing::RandomContext(400, 5, 3, 7, /*noise=*/0.0);
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.path();
  ExplainableProxy::Options options = QuietOptions();
  options.durability.dir = dir;
  options.durability.sync_every = 0;  // keep the race tight, not disk-bound
  options.durability.compact_threshold_bytes = 512;  // many generations
  options.context_capacity = 64;
  options.overload.enabled = true;
  options.overload.concurrency.initial = 2;
  const int scale = StressScale();
  size_t total = 0;
  {
    auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();
    for (size_t row = 0; row < 16; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
    }
    std::atomic<uint64_t> recorded{16};
    std::atomic<uint64_t> explained{0};
    std::thread writer([&] {
      for (int i = 0; i < 300 * scale; ++i) {
        const size_t row = static_cast<size_t>(i) % data.size();
        if ((*proxy)->Record(data.instance(row), data.label(row)).ok()) {
          recorded.fetch_add(1);
        }
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        for (int i = 0; i < 60 * scale; ++i) {
          const size_t row = static_cast<size_t>(r * 31 + i) % 16;
          auto key = (*proxy)->Explain(data.instance(row), data.label(row));
          if (key.ok()) {
            explained.fetch_add(1);
          } else {
            // Every non-OK outcome must be a clean, expected code.
            const StatusCode code = key.status().code();
            EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                        code == StatusCode::kDeadlineExceeded ||
                        code == StatusCode::kFailedPrecondition)
                << key.status().ToString();
          }
        }
      });
    }
    writer.join();
    for (auto& reader : readers) reader.join();
    EXPECT_GT(explained.load(), 0u);
    EXPECT_EQ((*proxy)->recorded(), recorded.load());
    EXPECT_GE((*proxy)->Health().wal_compactions, 1u)
        << "the race must actually cross compaction generations";
    total = (*proxy)->recorded();
  }
  // The generations the race produced recover cleanly.
  auto revived = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recorded(), total);
}

TEST(ProxyOverloadTest, MixedTrafficAgainstOverloadBurstingBackend) {
  Dataset data = testing::RandomContext(400, 5, 3, 11, /*noise=*/0.0);
  ParityModel model;
  FaultInjectingModel::Options fault_options;
  fault_options.failure_rate = 0.02;
  fault_options.burst_length = 3;
  fault_options.overload_burst_rate = 0.05;
  fault_options.overload_burst_length = 6;
  fault_options.overload_latency = milliseconds(1);
  std::atomic<uint64_t> slept_ms{0};
  FaultInjectingModel flaky(&model, fault_options, [&](milliseconds d) {
    slept_ms.fetch_add(static_cast<uint64_t>(d.count()));
    // Stall without sleeping for real: the stress stays fast while the
    // backend still "takes time" from the caller's perspective.
    std::this_thread::yield();
  });
  ExplainableProxy::Options options = QuietOptions();
  options.retry.max_attempts = 2;
  options.breaker.failure_threshold = 1000;  // keep the breaker out of it
  options.context_capacity = 128;
  options.overload.enabled = true;
  options.overload.explain_bucket.refill_per_sec = 20000.0;
  options.overload.explain_bucket.burst = 64.0;
  options.overload.concurrency.initial = 2;
  options.overload.concurrency.latency_target = milliseconds(50);
  options.overload.max_queue = 4;
  const int scale = StressScale();
  auto proxy =
      ExplainableProxy::CreateWithEndpoint(data.schema_ptr(), &flaky, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 32; ++row) {
    CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
  }
  std::atomic<uint64_t> predict_ok{0};
  std::atomic<uint64_t> explain_ok{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 200 * scale; ++i) {
        const size_t row = static_cast<size_t>(w * 131 + i) % data.size();
        if ((*proxy)->Predict(data.instance(row)).ok()) {
          predict_ok.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < 80 * scale; ++i) {
        const size_t row = static_cast<size_t>(r * 17 + i) % 32;
        const Deadline deadline = i % 4 == 0
                                      ? Deadline::After(milliseconds(50))
                                      : Deadline::Infinite();
        auto key =
            (*proxy)->Explain(data.instance(row), data.label(row), deadline);
        if (key.ok()) explain_ok.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(predict_ok.load(), 0u);
  EXPECT_GT(explain_ok.load(), 0u);
  HealthSnapshot health = (*proxy)->Health();
  // No Counterfactuals or Predict sheds in this workload, so every Explain
  // is exactly one of: admitted, or shed by exactly one cause (a shed may
  // additionally be served from the cache).
  EXPECT_EQ(health.admitted_explains + health.shed_rate_limited +
                health.shed_queue_full + health.shed_deadline_unmeetable +
                health.shed_queue_deadline + health.shed_codel,
            health.explains)
      << "every Explain is accounted for exactly once";
  // Every cache-served answer (shed fallback or admitted-under-pressure)
  // came from a cache hit.
  EXPECT_LE(health.cache_served_explains, health.cache_hits);
  EXPECT_GE(health.concurrency_limit, 1);
  EXPECT_GT(flaky.stats().overload_bursts, 0u)
      << "the overload-burst fault must actually fire";
  EXPECT_GE(slept_ms.load(), flaky.stats().overloaded_calls)
      << "every overloaded call stalls for its injected latency";
}

}  // namespace
}  // namespace cce::serving
