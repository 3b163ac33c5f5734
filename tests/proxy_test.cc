#include "serving/proxy.h"

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/logging.h"
#include "core/conformity.h"
#include "data/drift.h"
#include "ml/gbdt.h"
#include "serving/fault_model.h"
#include "serving/resilience.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

class ProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_unique<Dataset>(
        cce::testing::RandomContext(800, 5, 3, 99, /*noise=*/0.0));
    ml::Gbdt::Options options;
    options.num_trees = 30;
    auto model = ml::Gbdt::Train(*data_, options);
    CCE_CHECK_OK(model.status());
    model_ = std::move(model).value();
  }

  std::unique_ptr<Dataset> data_;
  std::unique_ptr<ml::Gbdt> model_;
};

TEST_F(ProxyTest, CreateValidatesArguments) {
  ExplainableProxy::Options options;
  EXPECT_FALSE(ExplainableProxy::Create(nullptr, model_.get(), options)
                   .ok());
  options.alpha = 0.0;
  EXPECT_FALSE(
      ExplainableProxy::Create(data_->schema_ptr(), model_.get(), options)
          .ok());
}

TEST_F(ProxyTest, PredictRecordsAndMatchesModel) {
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), model_.get(), {});
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 50; ++row) {
    auto served = (*proxy)->Predict(data_->instance(row));
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(*served, model_->Predict(data_->instance(row)));
  }
  EXPECT_EQ((*proxy)->recorded(), 50u);
  Context snapshot = (*proxy)->ContextSnapshot();
  EXPECT_EQ(snapshot.size(), 50u);
  EXPECT_EQ(snapshot.instance(0), data_->instance(0));
}

TEST_F(ProxyTest, ModelFreeModeRecordsExternalPredictions) {
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, {});
  ASSERT_TRUE(proxy.ok());
  EXPECT_EQ((*proxy)->Predict(data_->instance(0)).status().code(),
            StatusCode::kFailedPrecondition);
  CCE_CHECK_OK((*proxy)->Record(data_->instance(0), 1));
  EXPECT_EQ((*proxy)->recorded(), 1u);
}

TEST_F(ProxyTest, ExplanationsAreConformantOverTheSnapshot) {
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), model_.get(), {});
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 200; ++row) {
    ASSERT_TRUE((*proxy)->Predict(data_->instance(row)).ok());
  }
  const Instance& x0 = data_->instance(0);
  Label y0 = model_->Predict(x0);
  auto key = (*proxy)->Explain(x0, y0);
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(key->satisfied);
  Context snapshot = (*proxy)->ContextSnapshot();
  ConformityChecker checker(&snapshot);
  EXPECT_TRUE(checker.IsAlphaConformant(x0, y0, key->key, 1.0));
}

TEST_F(ProxyTest, ExplainBeforeAnyTrafficFails) {
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), model_.get(), {});
  ASSERT_TRUE(proxy.ok());
  EXPECT_EQ((*proxy)->Explain(data_->instance(0), 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      (*proxy)->Counterfactuals(data_->instance(0), 0).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ProxyTest, RollingCapacityEvictsOldTraffic) {
  ExplainableProxy::Options options;
  options.context_capacity = 32;
  auto proxy = ExplainableProxy::Create(data_->schema_ptr(), model_.get(),
                                        options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 100; ++row) {
    ASSERT_TRUE((*proxy)->Predict(data_->instance(row)).ok());
  }
  Context snapshot = (*proxy)->ContextSnapshot();
  EXPECT_EQ(snapshot.size(), 32u);
  // The snapshot holds the most recent traffic.
  EXPECT_EQ(snapshot.instance(31), data_->instance(99));
  EXPECT_EQ((*proxy)->recorded(), 100u);
}

TEST_F(ProxyTest, CounterfactualsComeFromRecordedTraffic) {
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), model_.get(), {});
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 300; ++row) {
    ASSERT_TRUE((*proxy)->Predict(data_->instance(row)).ok());
  }
  const Instance& x0 = data_->instance(0);
  Label y0 = model_->Predict(x0);
  auto witnesses = (*proxy)->Counterfactuals(x0, y0);
  ASSERT_TRUE(witnesses.ok());
  ASSERT_FALSE(witnesses->empty());
  Context snapshot = (*proxy)->ContextSnapshot();
  for (const auto& w : *witnesses) {
    EXPECT_NE(snapshot.label(w.witness_row), y0);
  }
}

/// Options preset that never really sleeps: backoff delays are recorded
/// into `slept` instead, keeping the fault-tolerance tests fast and
/// deterministic.
ExplainableProxy::Options NoSleepOptions(
    std::vector<std::chrono::milliseconds>* slept) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.sleep = [slept](std::chrono::milliseconds d) {
    if (slept != nullptr) slept->push_back(d);
  };
  return options;
}

TEST_F(ProxyTest, RetriesAbsorbTransientFaultsWithNoClientVisibleErrors) {
  FaultInjectingModel::Options fault_options;
  fault_options.failure_rate = 0.3;  // 30% transient failures
  fault_options.seed = 17;
  FaultInjectingModel flaky(model_.get(), fault_options);

  std::vector<std::chrono::milliseconds> slept;
  ExplainableProxy::Options options = NoSleepOptions(&slept);
  options.retry.max_attempts = 8;
  auto proxy = ExplainableProxy::CreateWithEndpoint(data_->schema_ptr(),
                                                    &flaky, options);
  ASSERT_TRUE(proxy.ok());

  for (size_t row = 0; row < 300; ++row) {
    auto served = (*proxy)->Predict(data_->instance(row));
    ASSERT_TRUE(served.ok()) << "row " << row << ": "
                             << served.status().ToString();
    EXPECT_EQ(*served, model_->Predict(data_->instance(row)));
  }

  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.predict_failures, 0u) << health.ToString();
  EXPECT_GT(health.retries, 0u) << "a 30% fault rate must cause retries";
  EXPECT_EQ(health.breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(slept.size(), health.retries) << "every retry backs off";
  EXPECT_EQ((*proxy)->recorded(), 300u);
}

TEST_F(ProxyTest, PermanentOutageOpensBreakerAndExplainKeepsServing) {
  FaultInjectingModel::Options fault_options;
  fault_options.fail_forever = true;
  FaultInjectingModel dead(model_.get(), fault_options);

  ExplainableProxy::Options options = NoSleepOptions(nullptr);
  options.retry.max_attempts = 2;
  options.breaker.failure_threshold = 3;
  options.breaker.open_cooldown = std::chrono::hours(1);
  auto proxy = ExplainableProxy::CreateWithEndpoint(data_->schema_ptr(),
                                                    &dead, options);
  ASSERT_TRUE(proxy.ok());

  // Context recorded before the outage (e.g. from the healthy era or an
  // external feed).
  for (size_t row = 0; row < 200; ++row) {
    CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                  model_->Predict(data_->instance(row))));
  }

  // Three operations fail (each after its retries) and trip the breaker.
  for (int i = 0; i < 3; ++i) {
    auto served = (*proxy)->Predict(data_->instance(0));
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ((*proxy)->Health().breaker_state, CircuitBreaker::State::kOpen);

  // Open breaker: Predict fails fast without touching the endpoint.
  const uint64_t calls_before = dead.stats().calls;
  auto rejected = (*proxy)->Predict(data_->instance(1));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dead.stats().calls, calls_before);

  // Record-only degradation: explanations still come from the context.
  const Instance& x0 = data_->instance(0);
  Label y0 = model_->Predict(x0);
  auto key = (*proxy)->Explain(x0, y0);
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(key->satisfied);
  EXPECT_FALSE(key->degraded);
  Context snapshot = (*proxy)->ContextSnapshot();
  ConformityChecker checker(&snapshot);
  EXPECT_TRUE(checker.IsAlphaConformant(x0, y0, key->key, 1.0));

  HealthSnapshot health = (*proxy)->Health();
  EXPECT_GE(health.breaker_rejections, 1u);
  EXPECT_GE(health.fallback_serves, 1u);
  EXPECT_EQ(health.breaker_trips, 1u);
}

TEST_F(ProxyTest, BreakerHalfOpensAndRecoversWhenTheBackendHeals) {
  // A backend that is down, then heals: scripted through fail_forever
  // toggling is not possible on a const options struct, so use two layers —
  // the test flips `healthy`.
  class ScriptedEndpoint : public ModelEndpoint {
   public:
    explicit ScriptedEndpoint(const Model* model) : model_(model) {}
    Result<Label> Predict(const Instance& x) override {
      if (!healthy) return Status::Unavailable("scripted outage");
      return model_->Predict(x);
    }
    bool healthy = false;

   private:
    const Model* model_;
  };

  ScriptedEndpoint endpoint(model_.get());
  auto now = std::chrono::steady_clock::time_point{} + std::chrono::hours(1);

  ExplainableProxy::Options options = NoSleepOptions(nullptr);
  options.retry.max_attempts = 1;  // isolate the breaker from retries
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown = std::chrono::milliseconds(50);
  options.breaker.successes_to_close = 2;
  options.clock = [&now] { return now; };
  auto proxy = ExplainableProxy::CreateWithEndpoint(data_->schema_ptr(),
                                                    &endpoint, options);
  ASSERT_TRUE(proxy.ok());

  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE((*proxy)->Predict(data_->instance(0)).ok());
  }
  ASSERT_EQ((*proxy)->Health().breaker_state, CircuitBreaker::State::kOpen);
  EXPECT_FALSE((*proxy)->Predict(data_->instance(0)).ok());

  endpoint.healthy = true;
  now += std::chrono::milliseconds(50);  // cooldown elapses -> half-open
  for (int i = 0; i < 2; ++i) {
    auto served = (*proxy)->Predict(data_->instance(0));
    ASSERT_TRUE(served.ok()) << "probe " << i << " must pass through";
  }
  EXPECT_EQ((*proxy)->Health().breaker_state,
            CircuitBreaker::State::kClosed);
}

TEST_F(ProxyTest, PredictDeadlineMissReportsDeadlineExceeded) {
  FaultInjectingModel::Options fault_options;
  fault_options.fail_forever = true;
  FaultInjectingModel dead(model_.get(), fault_options);

  ExplainableProxy::Options options = NoSleepOptions(nullptr);
  options.retry.max_attempts = 100;
  auto proxy = ExplainableProxy::CreateWithEndpoint(data_->schema_ptr(),
                                                    &dead, options);
  ASSERT_TRUE(proxy.ok());

  auto served = (*proxy)->Predict(data_->instance(0), Deadline::Expired());
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kDeadlineExceeded);
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.deadline_misses, 1u);
  // A client budget miss must not poison the breaker.
  EXPECT_EQ(health.breaker_state, CircuitBreaker::State::kClosed);
}

TEST_F(ProxyTest, ExpiredExplainDeadlineYieldsDegradedButConformantKey) {
  auto proxy = ExplainableProxy::Create(data_->schema_ptr(), model_.get(),
                                        NoSleepOptions(nullptr));
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 400; ++row) {
    ASSERT_TRUE((*proxy)->Predict(data_->instance(row)).ok());
  }
  const Instance& x0 = data_->instance(0);
  Label y0 = model_->Predict(x0);

  auto key = (*proxy)->Explain(x0, y0, Deadline::Expired());
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(key->degraded);
  EXPECT_TRUE(key->satisfied);
  Context snapshot = (*proxy)->ContextSnapshot();
  ConformityChecker checker(&snapshot);
  EXPECT_TRUE(checker.IsAlphaConformant(x0, y0, key->key, 1.0));

  auto unbounded = (*proxy)->Explain(x0, y0);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_FALSE(unbounded->degraded);
  EXPECT_LE(unbounded->succinctness(), key->succinctness())
      << "the degraded key is padded, never smaller than the greedy one";
  EXPECT_GE((*proxy)->Health().degraded_explains, 1u);
}

TEST(ProxyDeadlineTest, MillisecondExplainOverLargeContextDegradesNotBlocks) {
  // A budget far below the cost of reading a 300K-row index slice (tens
  // of microseconds on any host) expires before the first greedy round,
  // whatever the machine's speed: the deadline must cut the enumeration
  // short, not block or error. A millisecond budget would race the
  // sub-millisecond index search instead.
  Dataset data =
      cce::testing::RandomContext(300000, 24, 3, 1234, /*noise=*/0.0);
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < data.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
  }

  const Instance& x0 = data.instance(0);
  Label y0 = data.label(0);
  auto key = (*proxy)->Explain(
      x0, y0, Deadline::After(std::chrono::microseconds(1)));
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(key->degraded);
  EXPECT_TRUE(key->satisfied) << "noise-free context: the padded key must "
                                 "be perfectly conformant";
  Context snapshot = (*proxy)->ContextSnapshot();
  ConformityChecker checker(&snapshot);
  EXPECT_TRUE(checker.IsAlphaConformant(x0, y0, key->key, 1.0));
}

TEST_F(ProxyTest, DriftAlarmFiresOnScrambledTraffic) {
  ExplainableProxy::Options options;
  options.drift.probe_count = 4;
  options.drift.alarm_growth = 1.0;
  options.drift.alarm_window = 400;
  options.drift.warmup = 300;
  auto proxy = ExplainableProxy::Create(data_->schema_ptr(), model_.get(),
                                        options);
  ASSERT_TRUE(proxy.ok());
  Rng rng(5);
  Dataset noisy = data::InjectTailNoise(*data_, 0.5, 0.9, &rng);
  for (size_t row = 0; row < noisy.size(); ++row) {
    // Scrambled features with random labels simulate an upstream model
    // meltdown in the second half of the stream.
    Label y = row < noisy.size() / 2
                  ? model_->Predict(noisy.instance(row))
                  : static_cast<Label>(rng.Uniform(2));
    CCE_CHECK_OK((*proxy)->Record(noisy.instance(row), y));
  }
  EXPECT_TRUE((*proxy)->DriftAlarmed());
}

}  // namespace
}  // namespace cce::serving
