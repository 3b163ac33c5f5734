// Adversarial byte-level torture of the network front end — the SUITE=net
// ASan gate. A seeded attacker hammers the server with garbage frames,
// mid-frame disconnects (FIN and RST), body_len lies, slow-loris partial
// frames, dropped-response aborts and half-closed sockets while a
// well-behaved client keeps trading pipelined batches in the background.
// The contract under attack (server.h): the loop never crashes, never
// blocks the tick for the well-behaved client, and leaks no fds — the
// /proc/self/fd census at the end must match the pre-attack baseline.
//
// CCE_NET_ITERS scales the attack count (default 40; SUITE=net runs 200);
// CCE_NET_SEED reruns a specific schedule.

#include <dirent.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/model.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/proxy.h"
#include "serving/serving_group.h"
#include "tests/test_util.h"

namespace cce::net {
namespace {

using cce::serving::ExplainableProxy;
using cce::serving::ServingGroup;

size_t EnvCount(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

size_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

class ParityModel : public Model {
 public:
  Label Predict(const Instance& x) const override {
    return x.empty() ? 0 : x[0] % 2;
  }
};

struct TortureStack {
  Dataset data;
  ParityModel model;
  std::unique_ptr<ExplainableProxy> proxy;
  std::unique_ptr<ServingGroup> group;
  std::unique_ptr<NetServer> server;

  TortureStack()
      : data(cce::testing::RandomContext(150, 4, 3, 17, /*noise=*/0.0)) {
    ExplainableProxy::Options proxy_options;
    proxy_options.monitor_drift = false;
    // The stack's one admission point, armed with unlimited buckets so
    // every attack also passes admission and its metrics.
    proxy_options.overload.enabled = true;
    auto proxy_or =
        ExplainableProxy::Create(data.schema_ptr(), &model, proxy_options);
    CCE_CHECK_OK(proxy_or.status());
    proxy = std::move(proxy_or).value();
    for (size_t i = 0; i < 100; ++i) {
      CCE_CHECK_OK(
          proxy->Record(data.instance(i), model.Predict(data.instance(i))));
    }
    ServingGroup::Options group_options;
    group_options.policy = serving::RoutePolicy::kLeaderOnly;
    auto group_or = ServingGroup::Create(proxy.get(), {}, group_options);
    CCE_CHECK_OK(group_or.status());
    group = std::move(group_or).value();
    NetServer::Options options;
    options.port = 0;
    // Fast slow-loris reaping so abandoned partial frames are collected
    // within the test's lifetime.
    options.stalled_frame_timeout = std::chrono::milliseconds(200);
    options.idle_timeout = std::chrono::milliseconds(10000);
    auto server_or = NetServer::Create(group.get(), options);
    CCE_CHECK_OK(server_or.status());
    server = std::move(server_or).value();
    CCE_CHECK_OK(server->Start());
  }

  Result<NetClient> Connect() {
    NetClient::Options client_options;
    client_options.recv_timeout = std::chrono::milliseconds(10000);
    client_options.send_timeout = std::chrono::milliseconds(10000);
    return NetClient::Connect("127.0.0.1", server->port(), client_options);
  }

  Request MakeRequest(MessageType type, uint64_t id, size_t row) const {
    Request request;
    request.type = type;
    request.request_id = id;
    request.instance = data.instance(row % data.size());
    request.label = model.Predict(request.instance);
    return request;
  }

  bool WaitForOpenConnections(uint64_t want,
                              std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (server->GetStats().open != want) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
  }
};

/// Force an RST instead of a FIN on close — exercises the EPOLLERR path.
void ArmAbortiveClose(int fd) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

TEST(NetTortureTest, AdversarialClientsNeverCrashLeakOrBlock) {
  TortureStack stack;

  // Warm up one full exchange, then census fds with zero connections open.
  {
    auto client = stack.Connect();
    ASSERT_TRUE(client.ok());
    auto response =
        client->Call(stack.MakeRequest(MessageType::kPredictRequest, 1, 0));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  ASSERT_TRUE(stack.WaitForOpenConnections(0, std::chrono::seconds(5)));
  const size_t fd_baseline = CountOpenFds();

  // Well-behaved client trading pipelined batches throughout the attack:
  // its exchanges completing proves the attackers never block the tick.
  // It keeps going after `stop_background` until one exchange has
  // completed (or failed), so a fast attack loop cannot leave it with none.
  std::atomic<bool> stop_background{false};
  std::atomic<uint64_t> background_ok{0};
  std::atomic<uint64_t> background_errors{0};
  std::thread background([&] {
    uint64_t id = 1 << 20;
    while (!stop_background.load() ||
           (background_ok.load() == 0 && background_errors.load() == 0)) {
      auto client = stack.Connect();
      if (!client.ok()) {
        ++background_errors;
        continue;
      }
      constexpr size_t kBatch = 8;
      bool sent = true;
      for (size_t i = 0; i < kBatch && sent; ++i) {
        const MessageType type = (i % 3 == 0) ? MessageType::kExplainRequest
                                              : MessageType::kPredictRequest;
        sent = client->Send(stack.MakeRequest(type, ++id, i)).ok();
      }
      if (!sent) {
        ++background_errors;
        continue;
      }
      for (size_t i = 0; i < kBatch; ++i) {
        auto response = client->Receive();
        if (response.ok() && (response->status == WireStatus::kOk ||
                              response->status ==
                                  WireStatus::kResourceExhausted)) {
          ++background_ok;
        } else {
          ++background_errors;
        }
      }
    }
  });

  const size_t iters = EnvCount("CCE_NET_ITERS", 40);
  uint64_t rng = EnvCount("CCE_NET_SEED", 0x7051CE);
  std::vector<NetClient> loris;  // left open mid-frame; the sweep reaps them
  for (size_t iteration = 0; iteration < iters; ++iteration) {
    auto client_or = stack.Connect();
    ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
    NetClient client = std::move(client_or).value();
    switch (XorShift64(&rng) % 7) {
      case 0: {  // pure garbage, then close
        uint8_t junk[64];
        for (uint8_t& b : junk) b = static_cast<uint8_t>(XorShift64(&rng));
        (void)client.SendRaw(junk, sizeof(junk));
        if (XorShift64(&rng) % 2 == 0) ArmAbortiveClose(client.fd());
        break;
      }
      case 1: {  // honest header, body never arrives: kill mid-frame
        FrameHeader header;
        header.type = static_cast<uint8_t>(MessageType::kExplainRequest);
        header.request_id = iteration;
        header.body_len = 512 * 1024;
        uint8_t wire[kFrameHeaderBytes + 8] = {};
        EncodeFrameHeader(header, wire);
        (void)client.SendRaw(wire, sizeof(wire));
        if (XorShift64(&rng) % 2 == 0) ArmAbortiveClose(client.fd());
        break;
      }
      case 2: {  // body_len lie beyond the cap
        FrameHeader header;
        header.type = static_cast<uint8_t>(MessageType::kPredictRequest);
        header.request_id = iteration;
        header.body_len = 0xFFFFFF00u;
        uint8_t wire[kFrameHeaderBytes];
        EncodeFrameHeader(header, wire);
        (void)client.SendRaw(wire, sizeof(wire));
        (void)client.Receive();  // ERROR_RESPONSE, then server closes
        break;
      }
      case 3: {  // slow loris: park a partial frame and walk away
        const std::string frame = EncodeRequest(
            stack.MakeRequest(MessageType::kExplainRequest, iteration, 0));
        (void)client.SendRaw(frame.data(),
                             1 + XorShift64(&rng) % (frame.size() - 1));
        loris.push_back(std::move(client));
        continue;  // no close: the stalled-frame sweep must reap it
      }
      case 4: {  // real work, then vanish without reading the answers
        for (size_t i = 0; i < 4; ++i) {
          (void)client.Send(stack.MakeRequest(
              MessageType::kExplainRequest, 4096 + iteration * 4 + i, i));
        }
        if (XorShift64(&rng) % 2 == 0) ArmAbortiveClose(client.fd());
        break;
      }
      case 5: {  // partial HTTP head, then close
        static const char kPartial[] = "GET /metrics HTTP/1.0\r\nHos";
        (void)client.SendRaw(kPartial, sizeof(kPartial) - 1);
        break;
      }
      case 6: {  // well-behaved exchange ending in immediate close
        auto response = client.Call(stack.MakeRequest(
            MessageType::kCounterfactualsRequest, 9000 + iteration, 2));
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        break;
      }
    }
    client.Close();
  }

  stop_background.store(true);
  background.join();
  EXPECT_GT(background_ok.load(), 0u);
  EXPECT_EQ(background_errors.load(), 0u);

  // The parked slow-loris connections must be reaped by the stalled-frame
  // sweep even while the client side holds them open.
  ASSERT_TRUE(stack.WaitForOpenConnections(0, std::chrono::seconds(10)))
      << "open=" << stack.server->GetStats().open;
  for (NetClient& parked : loris) parked.Close();

  // Attack dust has settled: the server must still serve...
  {
    auto client = stack.Connect();
    ASSERT_TRUE(client.ok());
    auto response = client->Call(
        stack.MakeRequest(MessageType::kExplainRequest, 424242, 0));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, WireStatus::kOk);
  }
  ASSERT_TRUE(stack.WaitForOpenConnections(0, std::chrono::seconds(5)));

  // ...and hold exactly the fds it started with.
  EXPECT_EQ(CountOpenFds(), fd_baseline);

  const NetServer::Stats stats = stack.server->GetStats();
  EXPECT_EQ(stats.open, 0u);
  EXPECT_EQ(stats.accepted, stats.closed);
  stack.server->Stop();
}

TEST(NetTortureTest, StopUnderFireClosesEverything) {
  TortureStack stack;
  const size_t fd_before_server = CountOpenFds();
  std::vector<NetClient> clients;
  uint64_t rng = 0xF1DE;
  for (size_t i = 0; i < 12; ++i) {
    auto client = stack.Connect();
    ASSERT_TRUE(client.ok());
    if (i % 3 == 0) {
      // Leave a partial frame parked across the Stop().
      const std::string frame = EncodeRequest(
          stack.MakeRequest(MessageType::kExplainRequest, i, i));
      (void)client->SendRaw(frame.data(), frame.size() / 2);
    } else {
      for (size_t j = 0; j < 3; ++j) {
        (void)client->Send(stack.MakeRequest(
            (XorShift64(&rng) % 2 == 0) ? MessageType::kPredictRequest
                                        : MessageType::kExplainRequest,
            i * 8 + j, i + j));
      }
    }
    clients.push_back(std::move(*client));
  }
  stack.server->Stop();
  EXPECT_EQ(stack.server->GetStats().open, 0u);
  clients.clear();
  // Stop() released the listen/epoll/wake fds too, so the census returns
  // to the pre-attack level minus the server's own descriptors.
  EXPECT_LE(CountOpenFds(), fd_before_server);
}

}  // namespace
}  // namespace cce::net
