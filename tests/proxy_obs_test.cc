// Proxy-level observability (the DESIGN.md §9 integration): the
// cce_requests_total{op,outcome} matrix, request traces with phase timings
// and cause-of-outcome, Health() as a pure read of the registry, breaker
// transition counters, WAL fsync export, registry sharing across proxies,
// and Prometheus/JSON exposition of a live proxy.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "obs/exposition.h"
#include "serving/proxy.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

using std::chrono::milliseconds;

class ParityModel : public Model {
 public:
  Label Predict(const Instance& x) const override {
    return static_cast<Label>(x.empty() ? 0 : x[0] % 2);
  }
};

/// Fails the first `failures` calls with a retryable status, then serves 0.
class FlakyEndpoint : public ModelEndpoint {
 public:
  explicit FlakyEndpoint(int failures) : failures_(failures) {}
  Result<Label> Predict(const Instance&) override {
    if (failures_-- > 0) return Status::Unavailable("injected");
    return Label{0};
  }

 private:
  int failures_;
};

ExplainableProxy::Options QuietOptions() {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.sleep = [](milliseconds) {};
  return options;
}

uint64_t RequestCount(const ExplainableProxy& proxy, const char* op,
                      const char* outcome) {
  return proxy.registry()
      .GetCounter("cce_requests_total", "", {{"op", op}, {"outcome", outcome}})
      ->Value();
}

TEST(ProxyObsTest, RequestMatrixAndTracesFollowTheLadder) {
  testing::Fig2Context fig2;
  ParityModel model;
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, QuietOptions());
  ASSERT_TRUE(proxy.ok());
  const Instance& x0 = fig2.context.instance(0);
  // Seed the full Figure-2 context so both labels have witnesses.
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    ASSERT_TRUE((*proxy)
                    ->Record(fig2.context.instance(row),
                             fig2.context.label(row))
                    .ok());
  }
  EXPECT_EQ(RequestCount(**proxy, "record", "served_full"),
            fig2.context.size());

  ASSERT_TRUE((*proxy)->Predict(x0).ok());
  EXPECT_EQ(RequestCount(**proxy, "predict", "served_full"), 1u);

  ASSERT_TRUE((*proxy)->Explain(x0, fig2.denied).ok());
  EXPECT_EQ(RequestCount(**proxy, "explain", "served_full"), 1u);

  ASSERT_TRUE((*proxy)->Counterfactuals(x0, fig2.denied).ok());
  EXPECT_EQ(RequestCount(**proxy, "counterfactuals", "served_full"), 1u);

  // A malformed instance is an error outcome with the status as detail.
  Instance bad(1);
  EXPECT_FALSE((*proxy)->Explain(bad, fig2.denied).ok());
  EXPECT_EQ(RequestCount(**proxy, "explain", "error"), 1u);

  ASSERT_NE((*proxy)->traces(), nullptr);
  auto recent = (*proxy)->traces()->Recent();
  ASSERT_EQ(recent.size(), fig2.context.size() + 4);
  EXPECT_STREQ(recent[0].op, "explain");
  EXPECT_EQ(recent[0].outcome, obs::TraceOutcome::kError);
  EXPECT_FALSE(recent[0].detail.empty());
  // recent[3] is the successful Predict (then counterfactuals, explain,
  // error-explain above it); it timed its phases.
  EXPECT_STREQ(recent[3].op, "predict");
  EXPECT_EQ(recent[3].outcome, obs::TraceOutcome::kServedFull);
  ASSERT_GE(recent[3].num_phases, 3u);
  EXPECT_STREQ(recent[3].phases[0].name, "validate");
  EXPECT_STREQ(recent[3].phases[1].name, "model_call");
  EXPECT_STREQ(recent[3].phases[2].name, "record");
}

TEST(ProxyObsTest, RetriedPredictGetsItsOwnOutcome) {
  testing::Fig2Context fig2;
  FlakyEndpoint endpoint(2);
  ExplainableProxy::Options options = QuietOptions();
  options.retry.max_attempts = 5;
  auto proxy =
      ExplainableProxy::CreateWithEndpoint(fig2.schema, &endpoint, options);
  ASSERT_TRUE(proxy.ok());
  ASSERT_TRUE((*proxy)->Predict(fig2.context.instance(0)).ok());
  EXPECT_EQ(RequestCount(**proxy, "predict", "retried"), 1u);
  EXPECT_EQ(RequestCount(**proxy, "predict", "served_full"), 0u);
  EXPECT_EQ((*proxy)->Health().retries, 2u);
  auto recent = (*proxy)->traces()->Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].outcome, obs::TraceOutcome::kRetried);
}

TEST(ProxyObsTest, BreakerTripCountsTransitionsAndBrokeOutcomes) {
  testing::Fig2Context fig2;
  FlakyEndpoint endpoint(1000);
  ExplainableProxy::Options options = QuietOptions();
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  auto proxy =
      ExplainableProxy::CreateWithEndpoint(fig2.schema, &endpoint, options);
  ASSERT_TRUE(proxy.ok());
  const Instance& x0 = fig2.context.instance(0);
  EXPECT_FALSE((*proxy)->Predict(x0).ok());
  EXPECT_FALSE((*proxy)->Predict(x0).ok());  // second failure trips it
  auto broke = (*proxy)->Predict(x0);
  ASSERT_FALSE(broke.ok());
  EXPECT_EQ(broke.status().code(), StatusCode::kUnavailable);

  obs::Registry& reg = (*proxy)->registry();
  EXPECT_EQ(
      reg.GetCounter("cce_breaker_transitions_total", "", {{"to", "open"}})
          ->Value(),
      1u);
  EXPECT_EQ(reg.GetGauge("cce_breaker_state", "")->Value(),
            static_cast<int64_t>(CircuitBreaker::State::kOpen));
  EXPECT_EQ(RequestCount(**proxy, "predict", "broke"), 1u);
  EXPECT_EQ(RequestCount(**proxy, "predict", "error"), 2u);
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.breaker_trips, 1u);
  EXPECT_EQ(health.breaker_rejections, 1u);
  EXPECT_EQ(health.predict_failures, 2u);
}

TEST(ProxyObsTest, HealthIsAReadOfTheRegistry) {
  testing::Fig2Context fig2;
  ParityModel model;
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, QuietOptions());
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  ASSERT_TRUE((*proxy)->Predict(fig2.context.instance(0)).ok());
  ASSERT_TRUE((*proxy)->Explain(fig2.context.instance(0), fig2.denied).ok());
  HealthSnapshot health = (*proxy)->Health();
  obs::Registry& reg = (*proxy)->registry();
  EXPECT_EQ(health.predicts, reg.GetCounter("cce_predicts_total", "")->Value());
  EXPECT_EQ(health.explains, reg.GetCounter("cce_explains_total", "")->Value());
  EXPECT_EQ(health.validation_rejects,
            reg.GetCounter("cce_validation_rejects_total", "")->Value());
  // Gauges track live context state.
  EXPECT_EQ(reg.GetGauge("cce_context_window_size", "")->Value(),
            static_cast<int64_t>(fig2.context.size() + 1));
  EXPECT_EQ(reg.GetGauge("cce_recorded_pairs", "")->Value(),
            static_cast<int64_t>((*proxy)->recorded()));
  // The latency histograms saw the traffic.
  EXPECT_EQ(reg.GetHistogram("cce_predict_latency_us", "")
                ->TakeSnapshot()
                .count,
            1u);
  EXPECT_EQ(reg.GetHistogram("cce_explain_latency_us", "")
                ->TakeSnapshot()
                .count,
            1u);
}

TEST(ProxyObsTest, WalFsyncsAreExportedToTheRegistry) {
  testing::Fig2Context fig2;
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.path();
  ExplainableProxy::Options options = QuietOptions();
  options.durability.dir = dir;
  options.durability.sync_every = 1;
  auto proxy = ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (int i = 0; i < 3; ++i) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(i),
                                  fig2.context.label(i)));
  }
  HealthSnapshot health = (*proxy)->Health();
  obs::Registry& reg = (*proxy)->registry();
  EXPECT_EQ(health.wal_records_logged, 3u);
  EXPECT_GE(health.wal_fsyncs, 3u);
  EXPECT_EQ(health.wal_fsyncs,
            reg.GetCounter("cce_wal_fsyncs_total", "")->Value());
  EXPECT_EQ(health.wal_records_logged,
            reg.GetCounter("cce_wal_records_logged_total", "")->Value());
  EXPECT_EQ(reg.GetHistogram("cce_wal_append_us", "")->TakeSnapshot().count,
            3u);
}

TEST(ProxyObsTest, SharedRegistryAggregatesAcrossProxies) {
  testing::Fig2Context fig2;
  ParityModel model;
  auto registry = std::make_shared<obs::Registry>();
  ExplainableProxy::Options options = QuietOptions();
  options.observability.registry = registry;
  auto a = ExplainableProxy::Create(fig2.schema, &model, options);
  auto b = ExplainableProxy::Create(fig2.schema, &model, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*a)->Predict(fig2.context.instance(0)).ok());
  ASSERT_TRUE((*b)->Predict(fig2.context.instance(1)).ok());
  EXPECT_EQ(registry->GetCounter("cce_predicts_total", "")->Value(), 2u);
  EXPECT_EQ(&(*a)->registry(), registry.get());
}

TEST(ProxyObsTest, TracingCanBeDisabled) {
  testing::Fig2Context fig2;
  ParityModel model;
  ExplainableProxy::Options options = QuietOptions();
  options.observability.trace_capacity = 0;
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, options);
  ASSERT_TRUE(proxy.ok());
  EXPECT_EQ((*proxy)->traces(), nullptr);
  EXPECT_TRUE((*proxy)->Predict(fig2.context.instance(0)).ok())
      << "instrumented paths must not depend on the ring";
}

TEST(ProxyObsTest, ExpositionRendersLiveProxyMetrics) {
  testing::Fig2Context fig2;
  ParityModel model;
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, QuietOptions());
  ASSERT_TRUE(proxy.ok());
  ASSERT_TRUE((*proxy)->Predict(fig2.context.instance(0)).ok());
  const std::string text = obs::RenderPrometheusText((*proxy)->registry());
  EXPECT_NE(text.find("# TYPE cce_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "cce_requests_total{op=\"predict\",outcome=\"served_full\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("cce_predict_latency_us_count 1"), std::string::npos);
  const std::string json = obs::RenderJson((*proxy)->registry());
  EXPECT_NE(json.find("\"name\": \"cce_predicts_total\""),
            std::string::npos);
  ASSERT_NE((*proxy)->traces(), nullptr);
  const std::string traces = obs::RenderTracesJson(*(*proxy)->traces());
  EXPECT_NE(traces.find("\"op\": \"predict\""), std::string::npos);
}

}  // namespace
}  // namespace cce::serving
