// Network front-end benchmark (BENCH_net.json): the wire protocol's two
// load stories, measured end to end over real loopback sockets with the
// in-process load generator.
//
//   sustained — closed-loop pipelined Explain traffic over a small
//   instance pool, so after warm-up the proxy's explanation cache
//   answers every request (the cached rung of the ladder at wire
//   speed). Pins the >= 100k Explain-class req/s acceptance floor and
//   the p50/p99 a pipelined client sees.
//
//   flood20x — open-loop arrivals at 20x the provisioned Explain rate
//   (the proxy's token bucket, the stack's one admission point, is
//   configured to a known refill, and its cache is off so nothing falls
//   back to the cached rung). The server must answer EVERY request —
//   admitted ones with keys, the rest with typed RESOURCE_EXHAUSTED sheds
//   carrying the proxy's retry_after_ms hints — and drop no connection.
//   Measures honest shedding, not collapse.
//
// Plain main (not google-benchmark): whole-distribution percentiles and
// loadgen reports need full control. Prints BENCH-schema JSON on stdout;
// scripts/bench_net.sh redirects it into BENCH_net.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/model.h"
#include "net/loadgen/loadgen.h"
#include "net/server.h"
#include "serving/proxy.h"
#include "serving/serving_group.h"
#include "tests/test_util.h"

namespace cce::net {
namespace {

constexpr size_t kContextRows = 512;
constexpr size_t kPoolSize = 32;
constexpr int kSustainedRuns = 3;
constexpr auto kSustainedRunLength = std::chrono::milliseconds(1500);
constexpr double kProvisionedExplainRps = 500.0;
constexpr double kFloodMultiplier = 20.0;

class ParityModel : public Model {
 public:
  Label Predict(const Instance& x) const override {
    return x.empty() ? 0 : x[0] % 2;
  }
};

/// Proxy options with admission — the stack's one admission point —
/// provisioned to an Explain bucket of `refill_per_sec` and `burst`.
/// overload.enabled also arms the explanation cache: a shed with a warm
/// cache entry IS the cached rung, a real key (witnesses and all) flagged
/// `cached` instead of a recompute.
serving::ExplainableProxy::Options ExplainBudget(double refill_per_sec,
                                                 double burst) {
  serving::ExplainableProxy::Options proxy_options;
  proxy_options.monitor_drift = false;
  proxy_options.overload.enabled = true;
  proxy_options.overload.explain_bucket.refill_per_sec = refill_per_sec;
  proxy_options.overload.explain_bucket.burst = burst;
  return proxy_options;
}

/// Serving stack + NetServer on an ephemeral loopback port.
struct Stack {
  Dataset data;
  ParityModel model;
  std::unique_ptr<serving::ExplainableProxy> proxy;
  std::unique_ptr<serving::ServingGroup> group;
  std::unique_ptr<NetServer> server;

  Stack(const NetServer::Options& server_options,
        const serving::ExplainableProxy::Options& proxy_options)
      : data(cce::testing::RandomContext(kContextRows, 4, 3, 29,
                                         /*noise=*/0.0)) {
    auto proxy_or = serving::ExplainableProxy::Create(data.schema_ptr(),
                                                      &model, proxy_options);
    CCE_CHECK_OK(proxy_or.status());
    proxy = std::move(proxy_or).value();
    for (size_t i = 0; i < data.size(); ++i) {
      CCE_CHECK_OK(
          proxy->Record(data.instance(i), model.Predict(data.instance(i))));
    }
    serving::ServingGroup::Options group_options;
    group_options.policy = serving::RoutePolicy::kLeaderOnly;
    auto group_or =
        serving::ServingGroup::Create(proxy.get(), {}, group_options);
    CCE_CHECK_OK(group_or.status());
    group = std::move(group_or).value();
    NetServer::Options options = server_options;
    options.port = 0;
    auto server_or = NetServer::Create(group.get(), options);
    CCE_CHECK_OK(server_or.status());
    server = std::move(server_or).value();
    CCE_CHECK_OK(server->Start());
  }

  /// Explains every pool instance once in-process (inside the bucket's
  /// burst budget) so the cache holds a fresh key per pool entry before
  /// any wire traffic arrives.
  void WarmCache() {
    for (size_t i = 0; i < kPoolSize; ++i) {
      CCE_CHECK_OK(
          proxy->Explain(data.instance(i), model.Predict(data.instance(i)))
              .status());
    }
  }

  loadgen::Options BaseLoad() const {
    loadgen::Options options;
    options.port = server->port();
    options.mix = {0.0, 0.0, 1.0, 0.0};  // Explain-class only
    for (size_t i = 0; i < kPoolSize; ++i) {
      options.instances.push_back(data.instance(i));
      options.labels.push_back(model.Predict(data.instance(i)));
    }
    return options;
  }
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int64_t Median(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct SustainedResult {
  double rps = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  double cached_fraction = 0;
};

SustainedResult RunSustained() {
  NetServer::Options server_options;
  server_options.worker_threads = 2;
  // Both connections' full windows must fit between loop and workers:
  // the scenario measures the served rate, not queue_overflow sheds.
  server_options.max_pending = 4096;
  // The proxy admits ~100 full searches/s; everything past that is
  // served from the warm cache (still a real key, flagged `cached`).
  Stack stack(server_options, ExplainBudget(100.0, 2.0 * kPoolSize));
  stack.WarmCache();

  loadgen::Options load = stack.BaseLoad();
  load.connections = 2;
  load.window = 256;

  // Warm-up pass: fault in the wire path end to end before measuring.
  load.duration = std::chrono::milliseconds(500);
  CCE_CHECK_OK(loadgen::Run(load).status());

  std::vector<double> rps;
  std::vector<int64_t> p50;
  std::vector<int64_t> p99;
  std::vector<double> cached;
  load.duration = kSustainedRunLength;
  for (int run = 0; run < kSustainedRuns; ++run) {
    auto report = loadgen::Run(load);
    CCE_CHECK_OK(report.status());
    CCE_CHECK(report->other_error == 0 && report->unanswered == 0);
    if (std::getenv("CCE_BENCH_DEBUG")) {
      std::fprintf(stderr, "%s\n", report->ToString().c_str());
    }
    // The metric is SERVED keys per second — OK responses only, so a
    // shed storm can never inflate the number.
    rps.push_back(report->elapsed_s > 0
                      ? static_cast<double>(report->ok) / report->elapsed_s
                      : 0.0);
    p50.push_back(report->p50_us);
    p99.push_back(report->p99_us);
    const auto& explain =
        report->per_class[static_cast<int>(serving::RequestClass::kExplain)];
    cached.push_back(explain.ok == 0
                         ? 0.0
                         : static_cast<double>(explain.cached) /
                               static_cast<double>(explain.ok));
  }
  stack.server->Stop();
  return {Median(rps), Median(p50), Median(p99), Median(cached)};
}

struct FloodResult {
  double offered_rps = 0;
  double admitted_rps = 0;
  double shed_fraction = 0;
  double answered_fraction = 0;
  uint64_t retry_after_hints = 0;
  uint64_t connection_failures = 0;
  double mean_hint_ms = 0;
};

FloodResult RunFlood() {
  NetServer::Options server_options;
  server_options.worker_threads = 2;
  // Provision the proxy's Explain budget explicitly so the flood factor
  // is known: refill 500/s with a 50-token burst. The cache is off, so
  // every Explain past that rate is a hinted shed (the cached rung is
  // what `sustained` measures).
  serving::ExplainableProxy::Options proxy_options =
      ExplainBudget(kProvisionedExplainRps, 50.0);
  proxy_options.explain_cache.capacity = 0;
  Stack stack(server_options, proxy_options);

  loadgen::Options load = stack.BaseLoad();
  load.connections = 4;
  load.open_rate_rps = kProvisionedExplainRps * kFloodMultiplier;
  load.duration = std::chrono::milliseconds(2000);
  auto report = loadgen::Run(load);
  CCE_CHECK_OK(report.status());

  FloodResult result;
  result.offered_rps = report->offered_rps;
  result.admitted_rps =
      report->elapsed_s > 0
          ? static_cast<double>(report->ok) / report->elapsed_s
          : 0.0;
  result.shed_fraction =
      report->sent > 0 ? static_cast<double>(report->shed) /
                             static_cast<double>(report->sent)
                       : 0.0;
  result.answered_fraction =
      report->sent > 0 ? static_cast<double>(report->sent -
                                             report->unanswered) /
                             static_cast<double>(report->sent)
                       : 0.0;
  result.retry_after_hints = report->retry_after_hints;
  result.connection_failures = report->connect_failures;
  result.mean_hint_ms =
      report->retry_after_hints > 0
          ? static_cast<double>(report->retry_after_ms_total) /
                static_cast<double>(report->retry_after_hints)
          : 0.0;
  stack.server->Stop();
  return result;
}

int Main() {
  const SustainedResult sustained = RunSustained();
  const FloodResult flood = RunFlood();

  std::printf("{\n");
  std::printf(
      "  \"note\": \"Network front end over loopback (bench_net, "
      "RelWithDebInfo, in-process loadgen). sustained: closed-loop "
      "pipelined Explain-only traffic (2 connections, window 256) over a "
      "%zu-instance pool against a %zu-row context with the explanation "
      "cache armed, medians of %d runs after a warm-up pass — the cached "
      "ladder rung at wire speed; >= 100k req/s is the acceptance floor. "
      "flood20x: open-loop arrivals at %.0fx the provisioned Explain "
      "rate (the proxy's token bucket, the stack's one admission point: "
      "refill %.0f/s, burst 50; explanation cache off) for 2s; the "
      "server answers every request — admitted ones with keys, the rest "
      "with the proxy's typed RESOURCE_EXHAUSTED sheds carrying "
      "retry_after_ms hints — and drops no connection (answered_fraction "
      "pins it).\",\n",
      kPoolSize, kContextRows, kSustainedRuns, kFloodMultiplier,
      kProvisionedExplainRps);
  std::printf("  \"machine\": {\n");
  std::printf("    \"num_cpus\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("    \"mhz_per_cpu\": 2100,\n");
  std::printf(
      "    \"caveat\": \"shared container host: server loop, workers "
      "and loadgen threads run in one process on these CPUs, beside "
      "other tenants, so sustained throughput understates a real "
      "deployment (client and server each pay the other's cycles). The "
      "flood's answered_fraction and connection_failures are "
      "schedule-independent; its admitted rate is not, since one token "
      "admits a whole drained batch and batch depth follows the "
      "schedule.\"\n");
  std::printf("  },\n");
  std::printf("  \"benchmarks\": [\n");
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/sustained/achieved_rps\""
      ",\n      \"ratio\": %.1f,\n      \"acceptance_floor\": 100000.0\n"
      "    },\n",
      sustained.rps);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/sustained/p50\",\n"
      "      \"median_real_time_ns\": %.1f\n    },\n",
      static_cast<double>(sustained.p50_us) * 1000.0);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/sustained/p99\",\n"
      "      \"median_real_time_ns\": %.1f\n    },\n",
      static_cast<double>(sustained.p99_us) * 1000.0);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/sustained/"
      "cached_fraction\",\n      \"ratio\": %.4f,\n"
      "      \"acceptance_floor\": 0.9\n    },\n",
      sustained.cached_fraction);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/offered_rps\""
      ",\n      \"ratio\": %.1f\n    },\n",
      flood.offered_rps);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/admitted_rps\""
      ",\n      \"ratio\": %.1f\n    },\n",
      flood.admitted_rps);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/shed_fraction\""
      ",\n      \"ratio\": %.4f,\n      \"acceptance_floor\": 0.5\n"
      "    },\n",
      flood.shed_fraction);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/"
      "answered_fraction\",\n      \"ratio\": %.4f,\n"
      "      \"acceptance_floor\": 1.0\n    },\n",
      flood.answered_fraction);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/"
      "retry_after_hints\",\n      \"ratio\": %.1f,\n"
      "      \"acceptance_floor\": 1.0\n    },\n",
      static_cast<double>(flood.retry_after_hints));
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/mean_hint_ms\""
      ",\n      \"ratio\": %.2f\n    },\n",
      flood.mean_hint_ms);
  std::printf(
      "    {\n      \"name\": \"NetServer_Explain/flood20x/"
      "connection_failures\",\n      \"ratio\": %.1f\n    }\n",
      static_cast<double>(flood.connection_failures));
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace cce::net

int main() { return cce::net::Main(); }
