// End-to-end tests of the network serving front end over real loopback
// sockets: typed roundtrips for all four request classes, per-tick
// pipelined batching, the proxy's admission sheds and cached rung as wire
// answers, queue-overflow sheds with RetryAfter hints, the HTTP /metrics
// surface, protocol-error handling, deadlines, and drain-on-stop. The
// adversarial byte-level attacks live in net_torture_test.cc.

#include "net/server.h"

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/model.h"
#include "net/client.h"
#include "obs/exposition.h"
#include "serving/proxy.h"
#include "serving/serving_group.h"
#include "tests/test_util.h"

namespace cce::net {
namespace {

using cce::serving::ExplainableProxy;
using cce::serving::ServingGroup;

/// Deterministic stand-in model: label = parity of the first feature.
class ParityModel : public Model {
 public:
  Label Predict(const Instance& x) const override {
    return x.empty() ? 0 : x[0] % 2;
  }
};

/// A parity endpoint whose Predict blocks until Release(): it holds a
/// server worker for exactly as long as a test needs, so queueing
/// outcomes do not depend on how fast the host runs.
class GatedEndpoint : public serving::ModelEndpoint {
 public:
  Result<Label> Predict(const Instance& x) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return x.empty() ? 0 : x[0] % 2;
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// A leader-only serving group with a primed context behind a NetServer
/// on an ephemeral loopback port. Predicts go to `endpoint` when one is
/// given, else to the parity model. The group shares the proxy's registry
/// when `proxy_options` names one (null: the group's default).
struct NetStack {
  Dataset data;
  ParityModel model;
  std::unique_ptr<ExplainableProxy> proxy;
  std::unique_ptr<ServingGroup> group;
  std::unique_ptr<NetServer> server;

  explicit NetStack(NetServer::Options options = {},
                    ExplainableProxy::Options proxy_options = {},
                    size_t rows = 120,
                    serving::ModelEndpoint* endpoint = nullptr)
      : data(cce::testing::RandomContext(200, 4, 3, 11, /*noise=*/0.0)) {
    proxy_options.monitor_drift = false;
    auto proxy_or =
        endpoint != nullptr
            ? ExplainableProxy::CreateWithEndpoint(data.schema_ptr(),
                                                   endpoint, proxy_options)
            : ExplainableProxy::Create(data.schema_ptr(), &model,
                                       proxy_options);
    CCE_CHECK_OK(proxy_or.status());
    proxy = std::move(proxy_or).value();
    for (size_t i = 0; i < rows; ++i) {
      CCE_CHECK_OK(
          proxy->Record(data.instance(i), model.Predict(data.instance(i))));
    }
    ServingGroup::Options group_options;
    group_options.policy = serving::RoutePolicy::kLeaderOnly;
    group_options.registry = proxy_options.observability.registry;
    auto group_or = ServingGroup::Create(proxy.get(), {}, group_options);
    CCE_CHECK_OK(group_or.status());
    group = std::move(group_or).value();
    options.port = 0;
    auto server_or = NetServer::Create(group.get(), options);
    CCE_CHECK_OK(server_or.status());
    server = std::move(server_or).value();
    CCE_CHECK_OK(server->Start());
  }

  NetClient Connect() {
    NetClient::Options client_options;
    client_options.recv_timeout = std::chrono::milliseconds(10000);
    auto client = NetClient::Connect("127.0.0.1", server->port(),
                                     client_options);
    CCE_CHECK_OK(client.status());
    return std::move(client).value();
  }

  Request MakeRequest(MessageType type, uint64_t id, size_t row) const {
    Request request;
    request.type = type;
    request.request_id = id;
    request.instance = data.instance(row);
    request.label = model.Predict(request.instance);
    return request;
  }
};

TEST(NetServerTest, PredictRoundtrip) {
  NetStack stack;
  NetClient client = stack.Connect();
  for (size_t row = 0; row < 8; ++row) {
    auto response = client.Call(
        stack.MakeRequest(MessageType::kPredictRequest, 100 + row, row));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->type, MessageType::kPredictResponse);
    EXPECT_EQ(response->status, WireStatus::kOk);
    EXPECT_EQ(response->request_id, 100 + row);
    EXPECT_EQ(response->label,
              stack.model.Predict(stack.data.instance(row)));
  }
}

TEST(NetServerTest, RecordThenExplain) {
  NetStack stack;
  NetClient client = stack.Connect();

  auto recorded = client.Call(
      stack.MakeRequest(MessageType::kRecordRequest, 1, /*row=*/150));
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_EQ(recorded->type, MessageType::kRecordResponse);
  EXPECT_EQ(recorded->status, WireStatus::kOk);

  auto explained = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 2, /*row=*/0));
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained->type, MessageType::kExplainResponse);
  EXPECT_EQ(explained->status, WireStatus::kOk);
  EXPECT_GT(explained->achieved_alpha, 0.0);
  EXPECT_GT(explained->view_seq, 0u);
  EXPECT_EQ(explained->backend, 0u);  // leader-only
}

TEST(NetServerTest, CounterfactualsRoundtrip) {
  NetStack stack;
  NetClient client = stack.Connect();
  auto response = client.Call(
      stack.MakeRequest(MessageType::kCounterfactualsRequest, 3, /*row=*/1));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, MessageType::kCounterfactualsResponse);
  EXPECT_EQ(response->status, WireStatus::kOk);
  for (const Response::Witness& witness : response->witnesses) {
    EXPECT_LT(witness.row, stack.proxy->PublishedSequence());
  }
}

TEST(NetServerTest, PipelinedBatchAnswersEveryRequest) {
  NetStack stack;
  NetClient client = stack.Connect();
  constexpr size_t kBatch = 64;
  const MessageType kTypes[] = {
      MessageType::kPredictRequest, MessageType::kRecordRequest,
      MessageType::kExplainRequest, MessageType::kCounterfactualsRequest};
  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(client
                    .Send(stack.MakeRequest(kTypes[i % 4], /*id=*/1000 + i,
                                            /*row=*/i % 100))
                    .ok());
  }
  std::map<uint64_t, Response> by_id;
  for (size_t i = 0; i < kBatch; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    by_id[response->request_id] = std::move(response).value();
  }
  ASSERT_EQ(by_id.size(), kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    const auto it = by_id.find(1000 + i);
    ASSERT_NE(it, by_id.end()) << "request " << i << " unanswered";
    EXPECT_EQ(it->second.status, WireStatus::kOk);
    EXPECT_EQ(it->second.type, ResponseTypeFor(kTypes[i % 4]));
  }
  const NetServer::Stats stats = stack.server->GetStats();
  EXPECT_GE(stats.requests, kBatch);
  EXPECT_GE(stats.responses, kBatch);
}

/// Proxy admission with one explain token, then a ~17-minute refill:
/// every Explain after the first is shed by the token bucket with a
/// retry-after hint, unless the explain cache holds a fresh key for it.
ExplainableProxy::Options OneExplainToken() {
  ExplainableProxy::Options proxy_options;
  proxy_options.overload.enabled = true;
  proxy_options.overload.explain_bucket.refill_per_sec = 0.001;
  proxy_options.overload.explain_bucket.burst = 1.0;
  return proxy_options;
}

uint64_t CounterTotal(const obs::Registry& registry, const std::string& name,
                      const obs::Labels& labels = {}) {
  uint64_t total = 0;
  for (const auto& family : registry.Collect()) {
    if (family.name != name) continue;
    for (const auto& sample : family.samples) {
      if (labels.empty() || sample.labels == labels) {
        total += static_cast<uint64_t>(sample.value);
      }
    }
  }
  return total;
}

TEST(NetServerTest, AdmissionShedBecomesTypedWireResponse) {
  NetStack stack({}, OneExplainToken());
  NetClient client = stack.Connect();

  auto first = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 1, /*row=*/0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, WireStatus::kOk);

  auto shed = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 2, /*row=*/1));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->type, MessageType::kExplainResponse);
  EXPECT_EQ(shed->status, WireStatus::kResourceExhausted);
  EXPECT_GT(shed->retry_after_ms, 0u);
  EXPECT_FALSE(shed->message.empty());
  // The shed is a response, not a disconnect: the connection still works.
  auto after = client.Call(
      stack.MakeRequest(MessageType::kPredictRequest, 3, /*row=*/0));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status, WireStatus::kOk);

  EXPECT_EQ(CounterTotal(stack.proxy->registry(), "cce_shed_total",
                         {{"cause", "rate_limited"}}),
            1u);
}

TEST(NetServerTest, ProxyShedsFallBackToTheCachedRungOverTheWire) {
  NetStack stack({}, OneExplainToken());
  NetClient client = stack.Connect();
  auto first = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 1, /*row=*/0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->status, WireStatus::kOk);
  EXPECT_EQ(first->flags & kFlagCached, 0);

  // Uncached instances are shed with the proxy's hint, call after call:
  // a shed is an answer, so it never opens the leader's breaker.
  for (uint64_t i = 0; i < 6; ++i) {
    auto shed = client.Call(
        stack.MakeRequest(MessageType::kExplainRequest, 10 + i, 1 + i));
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    EXPECT_EQ(shed->status, WireStatus::kResourceExhausted)
        << i << ": " << shed->message;
    EXPECT_GT(shed->retry_after_ms, 0u) << i;
  }
  // A shed with a fresh cached key is the cached rung: the same key.
  auto cached = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 20, /*row=*/0));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_EQ(cached->status, WireStatus::kOk) << cached->message;
  EXPECT_NE(cached->flags & kFlagCached, 0);
  EXPECT_EQ(cached->key, first->key);

  // In a frame, each shed item falls back to the cache on its own.
  Request frame;
  frame.type = MessageType::kBatchExplainRequest;
  frame.request_id = 30;
  for (size_t row : {size_t{0}, size_t{7}}) {
    Request::BatchItem item;
    item.instance = stack.data.instance(row);
    item.label = stack.model.Predict(item.instance);
    frame.batch.push_back(std::move(item));
  }
  auto answered = client.Call(frame);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->status, WireStatus::kOk);
  ASSERT_EQ(answered->batch.size(), 2u);
  EXPECT_EQ(answered->batch[0].status, WireStatus::kOk);
  EXPECT_NE(answered->batch[0].flags & kFlagCached, 0);
  EXPECT_EQ(answered->batch[0].key, first->key);
  EXPECT_EQ(answered->batch[1].status, WireStatus::kResourceExhausted);
  EXPECT_GT(answered->batch[1].retry_after_ms, 0u);
  EXPECT_EQ(stack.server->GetStats().sheds, 0u) << "no queue_overflow";
}

TEST(NetServerTest, OneWireExplainIsAdmittedOnce) {
  // The documented one-/metrics wiring: proxy, group and server share one
  // registry, where every admission must be counted exactly once.
  auto registry = std::make_shared<obs::Registry>();
  NetServer::Options options;
  options.registry = registry;
  ExplainableProxy::Options proxy_options;
  proxy_options.overload.enabled = true;
  proxy_options.observability.registry = registry;
  NetStack stack(options, proxy_options);
  NetClient client = stack.Connect();
  const obs::Labels explain = {{"class", "explain"}};
  const uint64_t admitted_before =
      CounterTotal(*registry, "cce_admitted_total", explain);
  const uint64_t health_before = stack.proxy->Health().admitted_explains;
  auto response = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 1, /*row=*/0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, WireStatus::kOk);
  EXPECT_EQ(CounterTotal(*registry, "cce_admitted_total", explain),
            admitted_before + 1);
  EXPECT_EQ(stack.proxy->Health().admitted_explains, health_before + 1);
}

TEST(NetServerTest, DefaultWiredMetricsShowTheProxyAdmission) {
  // No registry passed anywhere: the group aliases the proxy's and the
  // server the group's, so the wire scrape covers the admission point.
  ExplainableProxy::Options proxy_options;
  proxy_options.overload.enabled = true;
  NetStack stack({}, proxy_options);
  NetClient client = stack.Connect();
  auto body = client.HttpGet("/metrics");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("cce_explains_total"), std::string::npos);
  EXPECT_NE(body->find("cce_shed_total"), std::string::npos);
  EXPECT_NE(body->find("cce_net_requests_total"), std::string::npos);
}

TEST(NetServerTest, QueueOverflowShedsCarryRetryAfterHint) {
  NetServer::Options options;
  options.worker_threads = 1;
  options.max_pending = 1;
  options.overflow_retry_after = std::chrono::milliseconds(7);
  GatedEndpoint gate;
  NetStack stack(options, {}, /*rows=*/120, &gate);
  NetClient client = stack.Connect();

  // The only pending slot goes to a Predict held at the gate, so every
  // Explain that arrives meanwhile overflows, however fast the host runs.
  constexpr uint64_t kPredictId = 1000;
  ASSERT_TRUE(
      client.Send(stack.MakeRequest(MessageType::kPredictRequest, kPredictId,
                                    /*row=*/0))
          .ok());
  gate.WaitEntered();
  constexpr size_t kBatch = 64;
  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(
        client
            .Send(stack.MakeRequest(MessageType::kExplainRequest, i, i % 100))
            .ok());
  }
  for (size_t i = 0; i < kBatch; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, WireStatus::kResourceExhausted);
    EXPECT_EQ(response->retry_after_ms, 7u);
  }
  gate.Release();
  auto predicted = client.Receive();
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_EQ(predicted->request_id, kPredictId);
  EXPECT_EQ(predicted->status, WireStatus::kOk);
  // The slot is free again once its answer is out: the next Explain runs.
  auto explained = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, kBatch, /*row=*/0));
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained->status, WireStatus::kOk);
  EXPECT_EQ(stack.server->GetStats().sheds, kBatch);
}

/// The deadline flood at one micro-batch size: 48 Explains with a 1 ms
/// budget, plus a BATCH_EXPLAIN frame of 1 ms items, queue behind a Predict
/// held at the gate. Every item has expired by the time a worker takes it,
/// so each must come back kDeadlineExceeded — answered at the wire before
/// the proxy's admission, which neither admits nor sheds anything — even
/// though that controller already has a latency estimate that would shed
/// an expired batch as unmeetable.
void RunDeadlineFlood(size_t max_explain_batch) {
  NetServer::Options options;
  options.worker_threads = 1;
  options.max_explain_batch = max_explain_batch;
  ExplainableProxy::Options proxy_options;
  proxy_options.overload.enabled = true;
  GatedEndpoint gate;
  NetStack stack(options, proxy_options, /*rows=*/120, &gate);
  NetClient client = stack.Connect();
  // Warm-up: one completed Explain gives the proxy's controller a latency
  // estimate.
  auto warm = client.Call(
      stack.MakeRequest(MessageType::kExplainRequest, 2000, /*row=*/0));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->status, WireStatus::kOk);
  const obs::Registry& registry = stack.proxy->registry();
  const uint64_t admitted_before =
      CounterTotal(registry, "cce_admitted_total", {{"class", "explain"}});
  ASSERT_EQ(admitted_before, 1u) << "the warm-up passed proxy admission";
  const uint64_t shed_before = CounterTotal(registry, "cce_shed_total");

  // Occupy the only worker with a Predict held at the gate: the flood
  // queues behind it, so every 1 ms budget runs out before a worker can
  // take the request, however fast the host searches.
  constexpr uint64_t kPredictId = 1000;
  ASSERT_TRUE(
      client.Send(stack.MakeRequest(MessageType::kPredictRequest, kPredictId,
                                    /*row=*/0))
          .ok());
  gate.WaitEntered();
  constexpr size_t kBatch = 48;
  for (size_t i = 0; i < kBatch; ++i) {
    Request request =
        stack.MakeRequest(MessageType::kExplainRequest, i, i % 100);
    request.deadline_ms = 1;
    ASSERT_TRUE(client.Send(request).ok());
  }
  constexpr uint64_t kFrameId = 3000;
  constexpr size_t kFrameItems = 3;
  Request frame;
  frame.type = MessageType::kBatchExplainRequest;
  frame.request_id = kFrameId;
  for (size_t row = 0; row < kFrameItems; ++row) {
    Request::BatchItem item;
    item.deadline_ms = 1;
    item.instance = stack.data.instance(row);
    item.label = stack.model.Predict(item.instance);
    frame.batch.push_back(std::move(item));
  }
  ASSERT_TRUE(client.Send(frame).ok());
  // Deadlines start at dispatch; once every request is dispatched, wait
  // out the budget before freeing the worker.
  while (stack.server->GetStats().requests < 1 + 1 + kBatch + 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.Release();
  size_t expired = 0;
  for (size_t i = 0; i < kBatch + 2; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->request_id == kPredictId) {
      EXPECT_EQ(response->status, WireStatus::kOk);
      continue;
    }
    if (response->request_id == kFrameId) {
      EXPECT_EQ(response->status, WireStatus::kOk)
          << WireStatusName(response->status);
      ASSERT_EQ(response->batch.size(), kFrameItems);
      for (const Response::BatchExplainItem& item : response->batch) {
        EXPECT_EQ(item.status, WireStatus::kDeadlineExceeded)
            << WireStatusName(item.status);
      }
      continue;
    }
    EXPECT_EQ(response->status, WireStatus::kDeadlineExceeded)
        << WireStatusName(response->status);
    ++expired;
  }
  EXPECT_EQ(expired, kBatch);
  EXPECT_EQ(
      CounterTotal(registry, "cce_admitted_total", {{"class", "explain"}}),
      admitted_before);
  EXPECT_EQ(CounterTotal(registry, "cce_shed_total"), shed_before);
}

TEST(NetServerTest, DeadlineFloodProducesDeadlineResponses) {
  for (size_t max_explain_batch : {size_t{1}, size_t{16}}) {
    SCOPED_TRACE("max_explain_batch " + std::to_string(max_explain_batch));
    RunDeadlineFlood(max_explain_batch);
  }
}

TEST(NetServerTest, BatchExplainFrameAnswersEveryItemPositionally) {
  NetStack stack;
  NetClient client = stack.Connect();
  // Scalar answers first: the batch frame must reproduce them exactly.
  std::vector<Response> want;
  for (size_t row = 0; row < 6; ++row) {
    auto scalar = client.Call(
        stack.MakeRequest(MessageType::kExplainRequest, 50 + row, row));
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ASSERT_EQ(scalar->status, WireStatus::kOk);
    want.push_back(std::move(scalar).value());
  }
  Request request;
  request.type = MessageType::kBatchExplainRequest;
  request.request_id = 99;
  for (size_t row = 0; row < 6; ++row) {
    Request::BatchItem item;
    item.instance = stack.data.instance(row);
    item.label = stack.model.Predict(item.instance);
    request.batch.push_back(std::move(item));
  }
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, MessageType::kBatchExplainResponse);
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_EQ(response->request_id, 99u);
  ASSERT_EQ(response->batch.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const Response::BatchExplainItem& item = response->batch[i];
    EXPECT_EQ(item.status, WireStatus::kOk) << "item " << i;
    EXPECT_EQ(item.key, want[i].key) << "item " << i;
    EXPECT_EQ(item.achieved_alpha, want[i].achieved_alpha) << "item " << i;
    EXPECT_EQ(item.backend, 0u);  // leader-only
  }
  // The whole frame was one shared-read execution on the proxy.
  EXPECT_GE(stack.proxy->Health().batch_executions, 1u);
}

TEST(NetServerTest, BatchExplainPoisonedItemFailsAlone) {
  NetStack stack;
  NetClient client = stack.Connect();
  Request request;
  request.type = MessageType::kBatchExplainRequest;
  request.request_id = 7;
  for (size_t row = 0; row < 3; ++row) {
    Request::BatchItem item;
    item.instance = stack.data.instance(row);
    item.label = stack.model.Predict(item.instance);
    if (row == 1) item.instance[0] = 999;  // outside the schema's domain
    request.batch.push_back(std::move(item));
  }
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, WireStatus::kOk) << "outer frame succeeded";
  ASSERT_EQ(response->batch.size(), 3u);
  EXPECT_EQ(response->batch[0].status, WireStatus::kOk);
  EXPECT_EQ(response->batch[1].status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(response->batch[1].message.empty());
  EXPECT_EQ(response->batch[2].status, WireStatus::kOk);
}

TEST(NetServerTest, BatchedFloodMeetsDeadlines) {
  NetServer::Options options;
  options.worker_threads = 1;  // workers lag the loop: queue depth forms
  NetStack stack(options);
  NetClient client = stack.Connect();
  constexpr size_t kBatch = 48;
  for (size_t i = 0; i < kBatch; ++i) {
    Request request =
        stack.MakeRequest(MessageType::kExplainRequest, i, i % 100);
    request.deadline_ms = 200;
    ASSERT_TRUE(client.Send(request).ok());
  }
  size_t ok = 0;
  for (size_t i = 0; i < kBatch; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->status == WireStatus::kOk) ++ok;
  }
  // The queued flood drains through shared reads: item throughput per
  // execution > 1, visible in the proxy's amortization counters.
  EXPECT_EQ(ok, kBatch) << "batching absorbed the flood within deadline";
  const serving::HealthSnapshot health = stack.proxy->Health();
  EXPECT_GT(health.batch_items, health.batch_executions)
      << "at least one drain carried more than one item";
}

TEST(NetServerTest, HttpMetricsHealthzAndNotFound) {
  NetStack stack;
  {
    NetClient client = stack.Connect();
    (void)client.Call(
        stack.MakeRequest(MessageType::kPredictRequest, 1, /*row=*/0));
  }
  {
    NetClient client = stack.Connect();
    auto body = client.HttpGet("/metrics");
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_NE(body->find("# TYPE"), std::string::npos);
    EXPECT_NE(body->find("cce_net_requests_total"), std::string::npos);
    EXPECT_NE(body->find("cce_net_open_connections"), std::string::npos);
  }
  {
    NetClient client = stack.Connect();
    auto body = client.HttpGet("/healthz");
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_NE(body->find("ok"), std::string::npos);
  }
  {
    NetClient client = stack.Connect();
    EXPECT_EQ(client.HttpGet("/nope").status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_GE(stack.server->GetStats().metrics_scrapes, 1u);
}

TEST(NetServerTest, HealthzNeverBlocksTheEventLoop) {
  // A Predict held at the gate keeps the leader proxy's lock, which the
  // /healthz probe needs. The probe must wait for it on a worker: the
  // event loop keeps answering every other connection meanwhile.
  NetServer::Options options;
  options.worker_threads = 3;
  GatedEndpoint gate;
  NetStack stack(options, {}, /*rows=*/120, &gate);
  NetClient predictor = stack.Connect();
  ASSERT_TRUE(predictor
                  .Send(stack.MakeRequest(MessageType::kPredictRequest,
                                          /*id=*/1, /*row=*/0))
                  .ok());
  gate.WaitEntered();

  const obs::Registry& registry = stack.server->registry();
  const uint64_t read_before =
      CounterTotal(registry, "cce_net_bytes_read_total");
  NetClient prober = stack.Connect();
  Result<std::string> probe = Status::Internal("probe never ran");
  std::thread probe_thread([&] { probe = prober.HttpGet("/healthz"); });
  // Once the byte counter moves, the loop has read the probe's head.
  while (CounterTotal(registry, "cce_net_bytes_read_total") == read_before) {
    std::this_thread::yield();
  }
  NetClient recorder = stack.Connect();
  auto recorded = recorder.Call(
      stack.MakeRequest(MessageType::kRecordRequest, /*id=*/2, /*row=*/1));
  // Release before asserting, so a failure still unblocks the probe.
  gate.Release();
  probe_thread.join();
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_EQ(recorded->status, WireStatus::kOk);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(*probe, "ok\n");
  auto predicted = predictor.Receive();
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_EQ(predicted->status, WireStatus::kOk);
}

TEST(NetServerTest, BadMagicAnsweredThenClosed) {
  NetStack stack;
  NetClient client = stack.Connect();
  uint8_t junk[kFrameHeaderBytes] = {0x42, 0x42};
  ASSERT_TRUE(client.SendRaw(junk, sizeof(junk)).ok());
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, MessageType::kErrorResponse);
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  // The server closes a desynced stream after answering.
  EXPECT_EQ(client.Receive().status().code(), StatusCode::kUnavailable);
}

TEST(NetServerTest, VersionMismatchAnsweredWithUnimplemented) {
  NetStack stack;
  NetClient client = stack.Connect();
  Request request = stack.MakeRequest(MessageType::kPredictRequest, 77, 0);
  std::string frame = EncodeRequest(request);
  frame[2] = static_cast<char>(kProtocolVersion + 1);
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, MessageType::kErrorResponse);
  EXPECT_EQ(response->status, WireStatus::kUnimplemented);
  EXPECT_EQ(response->request_id, 77u);  // echoed from the raw header
  EXPECT_EQ(client.Receive().status().code(), StatusCode::kUnavailable);
}

TEST(NetServerTest, OversizedBodyRejectedWithoutBuffering) {
  NetServer::Options options;
  options.max_body_bytes = 1024;
  NetStack stack(options);
  NetClient client = stack.Connect();
  FrameHeader header;
  header.type = static_cast<uint8_t>(MessageType::kExplainRequest);
  header.request_id = 55;
  header.body_len = 64u * 1024 * 1024;  // claims 64MB; never sends it
  uint8_t wire[kFrameHeaderBytes];
  EncodeFrameHeader(header, wire);
  ASSERT_TRUE(client.SendRaw(wire, sizeof(wire)).ok());
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, MessageType::kErrorResponse);
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  EXPECT_EQ(response->request_id, 55u);
  EXPECT_EQ(client.Receive().status().code(), StatusCode::kUnavailable);
  EXPECT_GE(stack.server->GetStats().protocol_errors, 1u);
}

TEST(NetServerTest, UnknownTypeAndGarbageBodyAreProtocolErrors) {
  NetStack stack;
  {
    NetClient client = stack.Connect();
    FrameHeader header;
    header.type = 200;  // not in the vocabulary
    header.request_id = 9;
    header.body_len = 0;
    uint8_t wire[kFrameHeaderBytes];
    EncodeFrameHeader(header, wire);
    ASSERT_TRUE(client.SendRaw(wire, sizeof(wire)).ok());
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->type, MessageType::kErrorResponse);
    EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  }
  {
    NetClient client = stack.Connect();
    // Valid header claiming 4 body bytes that do not parse as a request.
    FrameHeader header;
    header.type = static_cast<uint8_t>(MessageType::kPredictRequest);
    header.request_id = 10;
    header.body_len = 4;
    uint8_t wire[kFrameHeaderBytes + 4];
    EncodeFrameHeader(header, wire);
    wire[kFrameHeaderBytes] = 0xFF;
    wire[kFrameHeaderBytes + 1] = 0xFF;
    wire[kFrameHeaderBytes + 2] = 0xFF;
    wire[kFrameHeaderBytes + 3] = 0xFF;
    ASSERT_TRUE(client.SendRaw(wire, sizeof(wire)).ok());
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->type, MessageType::kErrorResponse);
    EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
    EXPECT_EQ(response->request_id, 10u);
  }
  EXPECT_GE(stack.server->GetStats().protocol_errors, 2u);
}

TEST(NetServerTest, StopDrainsInFlightWork) {
  NetStack stack;
  NetClient client = stack.Connect();
  constexpr size_t kBatch = 16;
  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(client
                    .Send(stack.MakeRequest(MessageType::kExplainRequest,
                                            /*id=*/i, /*row=*/i))
                    .ok());
  }
  // Wait for dispatch (not completion): drain must then finish and flush
  // the in-flight work before any connection is closed.
  while (stack.server->GetStats().requests < kBatch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stack.server->Stop();
  size_t answered = 0;
  for (size_t i = 0; i < kBatch; ++i) {
    auto response = client.Receive();
    if (!response.ok()) break;
    ++answered;
  }
  EXPECT_EQ(answered, kBatch);
  EXPECT_EQ(stack.server->GetStats().open, 0u);
}

TEST(NetServerTest, StatsAndInstrumentsEagerlyRegistered) {
  NetStack stack;
  const NetServer::Stats before = stack.server->GetStats();
  EXPECT_EQ(before.requests, 0u);
  // Every family exists before any traffic — metrics_doc_test and cold
  // Prometheus scrapes depend on this.
  const std::string text =
      obs::RenderPrometheusText(stack.server->registry());
  for (const char* family :
       {"cce_net_connections_accepted_total", "cce_net_connections_closed_total",
        "cce_net_open_connections", "cce_net_requests_total",
        "cce_net_responses_total", "cce_net_sheds_total",
        "cce_net_protocol_errors_total", "cce_net_bytes_read_total",
        "cce_net_bytes_written_total", "cce_net_dropped_responses_total",
        "cce_net_metrics_scrapes_total", "cce_net_tick_requests",
        "cce_net_flush_frames", "cce_net_request_latency_us"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

TEST(NetServerTest, ConnectionLimitClosesOverflow) {
  NetServer::Options options;
  options.max_connections = 2;
  NetStack stack(options);
  NetClient a = stack.Connect();
  NetClient b = stack.Connect();
  ASSERT_TRUE(a.Call(stack.MakeRequest(MessageType::kPredictRequest, 1, 0))
                  .ok());
  ASSERT_TRUE(b.Call(stack.MakeRequest(MessageType::kPredictRequest, 2, 0))
                  .ok());
  NetClient c = stack.Connect();  // accepted then immediately closed
  EXPECT_EQ(c.Receive().status().code(), StatusCode::kUnavailable);
  // The survivors still serve.
  EXPECT_TRUE(a.Call(stack.MakeRequest(MessageType::kPredictRequest, 3, 0))
                  .ok());
}

}  // namespace
}  // namespace cce::net
