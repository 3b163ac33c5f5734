// docs/metrics.md cannot drift (satellite 2): this test boots a proxy with
// every subsystem enabled (overload, cache, durability, tracing), adds the
// thread-pool gauges, collects the live registry, and fails if the doc
// table and the registry disagree in either direction — an undocumented
// metric or a documented ghost both break tier 1.

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "serving/serving_group.h"
#include "serving/supervisor.h"
#include "tests/test_util.h"

#ifndef CCE_SOURCE_DIR
#error "tests must be compiled with CCE_SOURCE_DIR"
#endif

namespace cce::serving {
namespace {

class ParityModel : public Model {
 public:
  Label Predict(const Instance& x) const override {
    return static_cast<Label>(x.empty() ? 0 : x[0] % 2);
  }
};

/// Parses the doc's metric tables: rows of the form
///   | `cce_name` | type | labels | description |
/// anywhere in the file. Returns name -> declared type string.
std::map<std::string, std::string> ParseDocumentedMetrics(
    const std::string& path) {
  std::map<std::string, std::string> documented;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `cce_", 0) != 0) continue;
    // Column 1: metric name between the first backtick pair.
    const size_t name_start = line.find('`') + 1;
    const size_t name_end = line.find('`', name_start);
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(name_start, name_end - name_start);
    // Column 2: the type word between the next two pipes.
    size_t col = line.find('|', name_end);
    if (col == std::string::npos) continue;
    size_t col_end = line.find('|', col + 1);
    if (col_end == std::string::npos) continue;
    std::string type = line.substr(col + 1, col_end - col - 1);
    // Trim surrounding spaces.
    const size_t first = type.find_first_not_of(' ');
    const size_t last = type.find_last_not_of(' ');
    type = first == std::string::npos
               ? ""
               : type.substr(first, last - first + 1);
    documented[name] = type;
  }
  return documented;
}

TEST(MetricsDocTest, DocAndLiveRegistryAgreeExactly) {
  // A proxy with everything on registers every serving-layer family at
  // construction; no traffic is needed.
  testing::Fig2Context fig2;
  ParityModel model;
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.File("leader");
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.overload.enabled = true;
  options.durability.dir = dir;
  auto proxy = ExplainableProxy::Create(fig2.schema, &model, options);
  ASSERT_TRUE(proxy.ok());
  obs::Registry& registry = (*proxy)->registry();
  // The batch explain pool gauges live in whatever registry the binder is
  // given; bind them here so the doc must cover them too.
  ThreadPool pool(1);
  obs::ThreadPoolGauges pool_gauges(&registry, &pool, "explain_many");

  // The replication pair registers its families in the same registry; one
  // ship + catch-up cycle also creates the lazy per-shard tail gauge.
  const std::string ship_dir = tmp.File("ship");
  ShardLogShipper::Options ship_options;
  ship_options.source_dir = dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = 1;
  ship_options.registry = &registry;
  ShardLogShipper shipper(ship_options);
  ASSERT_TRUE(shipper.Ship((*proxy)->PublishedSequence()).ok());
  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = ship_dir;
  // Non-owning alias: the replica reports into the proxy's registry.
  replica_options.registry =
      std::shared_ptr<obs::Registry>(std::shared_ptr<void>(), &registry);
  auto replica = ReplicaProxy::Create(fig2.schema, replica_options);
  ASSERT_TRUE(replica.ok());

  // The serving group and its supervisor register the cce_group_* and
  // cce_supervisor_* families; one tick populates the labeled fault and
  // ladder-level cells.
  ServingGroup::Options group_options;
  group_options.registry =
      std::shared_ptr<obs::Registry>(std::shared_ptr<void>(), &registry);
  auto group = ServingGroup::Create(proxy->get(), {replica->get()},
                                    group_options);
  ASSERT_TRUE(group.ok());
  Supervisor supervisor(group->get());
  supervisor.TickOnce();

  // The network front end registers every cce_net_* family eagerly at
  // Create (no Start, no traffic), reporting into the same registry.
  net::NetServer::Options net_options;
  net_options.port = 0;
  net_options.registry =
      std::shared_ptr<obs::Registry>(std::shared_ptr<void>(), &registry);
  auto net_server = net::NetServer::Create(group->get(), net_options);
  ASSERT_TRUE(net_server.ok());

  std::map<std::string, std::string> live;
  for (const auto& family : registry.Collect()) {
    live[family.name] = obs::MetricTypeName(family.type);
  }
  ASSERT_GE(live.size(), 30u) << "expected the full instrument set";

  const std::map<std::string, std::string> documented =
      ParseDocumentedMetrics(std::string(CCE_SOURCE_DIR) +
                             "/docs/metrics.md");

  for (const auto& [name, type] : live) {
    auto it = documented.find(name);
    EXPECT_TRUE(it != documented.end())
        << "metric `" << name << "` (" << type
        << ") exists in the registry but is missing from docs/metrics.md";
    if (it != documented.end()) {
      EXPECT_EQ(it->second, type)
          << "docs/metrics.md declares `" << name << "` as " << it->second
          << " but the registry says " << type;
    }
  }
  for (const auto& [name, type] : documented) {
    EXPECT_TRUE(live.count(name) == 1)
        << "docs/metrics.md documents `" << name << "` (" << type
        << ") but no such metric is registered — stale doc entry";
  }
}

}  // namespace
}  // namespace cce::serving
