// The network serving front end, end to end: train a model on a synthetic
// dataset, wrap it in an ExplainableProxy + ServingGroup, and serve the
// CCE wire protocol (plus /metrics and /healthz over HTTP) on loopback.
// Pair with cce_loadgen started with the same --dataset/--data-seed/--rows
// flags — it regenerates the identical dataset, so its instances are valid
// for this server's schema. See README.md "Serving over the network".

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "data/generators.h"
#include "ml/gbdt.h"
#include "net/server.h"
#include "serving/proxy.h"
#include "serving/serving_group.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace cce;

  std::string dataset_name = "Compas";
  uint64_t data_seed = 7;
  size_t rows = 0;
  uint16_t port = 7411;
  int64_t duration_ms = 0;  // 0 = run until SIGINT/SIGTERM
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--dataset") dataset_name = value;
    else if (flag == "--data-seed") data_seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--rows") rows = std::strtoull(value, nullptr, 10);
    else if (flag == "--port") port = static_cast<uint16_t>(std::atoi(value));
    else if (flag == "--duration-ms") duration_ms = std::atoll(value);
    else {
      std::fprintf(stderr,
                   "usage: %s [--dataset NAME] [--data-seed S] [--rows N] "
                   "[--port P] [--duration-ms D]\n",
                   argv[0]);
      return 2;
    }
  }

  auto dataset = data::GenerateByName(dataset_name, data_seed, rows);
  CCE_CHECK_OK(dataset.status());
  ml::Gbdt::Options gbdt_options;
  gbdt_options.num_trees = 30;
  auto model = ml::Gbdt::Train(*dataset, gbdt_options);
  CCE_CHECK_OK(model.status());

  serving::ExplainableProxy::Options proxy_options;
  proxy_options.context_capacity = 0;
  // The proxy's admission controller is the stack's one admission point,
  // and it arms the explain cache its sheds fall back to. No registry is
  // passed anywhere: the group aliases the proxy's and the server the
  // group's, so /metrics shows admission beside the wire counters.
  proxy_options.overload.enabled = true;
  auto proxy = serving::ExplainableProxy::Create(dataset->schema_ptr(),
                                                 model->get(), proxy_options);
  CCE_CHECK_OK(proxy.status());
  // Prime the context so Explains have something to be relative to.
  for (size_t row = 0; row < dataset->size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(dataset->instance(row),
                                  dataset->label(row)));
  }

  serving::ServingGroup::Options group_options;
  group_options.policy = serving::RoutePolicy::kLeaderOnly;
  auto group =
      serving::ServingGroup::Create(proxy->get(), {}, group_options);
  CCE_CHECK_OK(group.status());

  net::NetServer::Options server_options;
  server_options.port = port;
  auto server = net::NetServer::Create(group->get(), server_options);
  CCE_CHECK_OK(server.status());
  CCE_CHECK_OK((*server)->Start());

  std::printf(
      "cce net server on 127.0.0.1:%u\n"
      "  dataset %s (seed %llu, %zu rows recorded) — point cce_loadgen at\n"
      "  it with the same --dataset/--data-seed/--rows flags\n"
      "  curl http://127.0.0.1:%u/metrics for Prometheus text\n",
      (*server)->port(), dataset_name.c_str(),
      static_cast<unsigned long long>(data_seed), dataset->size(),
      (*server)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_ms > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::milliseconds(duration_ms)) {
      break;
    }
  }
  std::printf("draining...\n");
  (*server)->Stop();
  const auto stats = (*server)->GetStats();
  std::printf(
      "served %llu requests over %llu connections (%llu queue-overflow "
      "sheds)\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.sheds));
  return 0;
}
