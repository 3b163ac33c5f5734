// Google-benchmark coverage for WAL-shipping replication: follower
// bootstrap catch-up throughput as a function of shipped log length
// (apply + digest verification + feeding the served view), steady-state
// incremental tailing (ship + catch-up per write batch), and follower
// Explain latency against the leader's. Both answer through an
// ExplainableProxy's shard-index read path — the replica's is its fed,
// one-shard view — so neither rebuilds anything per request.
// scripts/bench_replica.sh records BENCH_replication.json from this.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "io/env.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

constexpr size_t kShards = 4;

std::string BenchDir(const std::string& name) {
  return "/tmp/cce_bench_replication." + name;
}

void CleanDir(const std::string& dir) {
  std::vector<std::string> names;
  if (io::Env::Default()->ListDir(dir, &names).ok()) {
    for (const std::string& entry : names) {
      (void)io::Env::Default()->RemoveFile(dir + "/" + entry);
    }
  }
}

std::unique_ptr<ExplainableProxy> MakeLeader(const Dataset& data,
                                             const std::string& dir,
                                             size_t capacity) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = kShards;
  options.context_capacity = capacity;
  options.durability.dir = dir;
  options.durability.sync_every = 0;  // fixture build speed, not fsync cost
  options.durability.compact_threshold_bytes = 1ull << 40;
  auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(proxy.status());
  return std::move(proxy).value();
}

/// Bootstrap catch-up: a fresh follower applies a shipped directory of
/// Arg records (snapshot-free: WAL replay + digest verification) and
/// feeds them into its served view. items/s = records applied per second.
void BM_ReplicaCatchUp_Bootstrap(benchmark::State& state) {
  const size_t records = static_cast<size_t>(state.range(0));
  const std::string tag = "boot." + std::to_string(records);
  const std::string leader_dir = BenchDir(tag + ".leader");
  const std::string ship_dir = BenchDir(tag + ".ship");
  CleanDir(leader_dir);
  CleanDir(ship_dir);
  Dataset data = cce::testing::RandomContext(records, 8, 5, 42);
  auto leader = MakeLeader(data, leader_dir, 0);
  for (size_t row = 0; row < data.size(); ++row) {
    CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
  }
  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = kShards;
  ShardLogShipper shipper(ship_options);
  CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));

  for (auto _ : state) {
    ReplicaProxy::Options options;
    options.ship_dir = ship_dir;
    auto replica = ReplicaProxy::Create(data.schema_ptr(), options);
    CCE_CHECK_OK(replica.status());
    CCE_CHECK((*replica)->published_seq() == records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  CleanDir(leader_dir);
  CleanDir(ship_dir);
}
BENCHMARK(BM_ReplicaCatchUp_Bootstrap)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Steady-state tailing: each iteration records a batch on the leader,
/// ships it, and catches the follower up — the full leader-to-replica
/// pipeline per batch. items/s = replicated records per second.
void BM_ReplicaCatchUp_Incremental(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const std::string tag = "tail." + std::to_string(batch);
  const std::string leader_dir = BenchDir(tag + ".leader");
  const std::string ship_dir = BenchDir(tag + ".ship");
  CleanDir(leader_dir);
  CleanDir(ship_dir);
  Dataset data = cce::testing::RandomContext(4096, 8, 5, 42);
  auto leader = MakeLeader(data, leader_dir, /*capacity=*/4096);
  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = kShards;
  ShardLogShipper shipper(ship_options);
  CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = ship_dir;
  replica_options.context_capacity = 4096;
  auto replica = ReplicaProxy::Create(data.schema_ptr(), replica_options);
  CCE_CHECK_OK(replica.status());

  size_t row = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
      row = row + 1 < data.size() ? row + 1 : 0;
    }
    CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
    CCE_CHECK_OK((*replica)->CatchUp());
  }
  CCE_CHECK((*replica)->published_seq() == leader->PublishedSequence());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  CleanDir(leader_dir);
  CleanDir(ship_dir);
}
BENCHMARK(BM_ReplicaCatchUp_Incremental)->Arg(64)->Arg(512);

/// Explain latency over the same 2048-row view: Arg 0 = leader (4 shard
/// indexes), 1 = caught-up follower (its one-shard view). Identical keys
/// by construction; the delta is the replica's view lookup and the
/// leader's per-shard slice merge.
void BM_Explain_LeaderVsReplica(benchmark::State& state) {
  static std::unique_ptr<Dataset> data;
  static std::unique_ptr<ExplainableProxy> leader;
  static std::unique_ptr<ReplicaProxy> replica;
  const std::string leader_dir = BenchDir("explain.leader");
  const std::string ship_dir = BenchDir("explain.ship");
  if (data == nullptr) {
    CleanDir(leader_dir);
    CleanDir(ship_dir);
    data = std::make_unique<Dataset>(
        cce::testing::RandomContext(2048, 8, 5, 42));
    leader = MakeLeader(*data, leader_dir, 0);
    for (size_t row = 0; row < data->size(); ++row) {
      CCE_CHECK_OK(leader->Record(data->instance(row), data->label(row)));
    }
    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir;
    ship_options.ship_dir = ship_dir;
    ship_options.shards = kShards;
    ShardLogShipper shipper(ship_options);
    CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
    ReplicaProxy::Options replica_options;
    replica_options.ship_dir = ship_dir;
    auto created = ReplicaProxy::Create(data->schema_ptr(), replica_options);
    CCE_CHECK_OK(created.status());
    replica = std::move(created).value();
    CCE_CHECK(replica->published_seq() == data->size());
  }
  const bool on_replica = state.range(0) == 1;
  size_t probe = 0;
  for (auto _ : state) {
    auto key = on_replica
                   ? replica->Explain(data->instance(probe),
                                      data->label(probe))
                   : leader->Explain(data->instance(probe),
                                     data->label(probe));
    CCE_CHECK_OK(key.status());
    benchmark::DoNotOptimize(key->key);
    probe = probe + 7 < data->size() ? probe + 7 : 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (on_replica) {  // Arg(1) runs last: tear down the statics
    replica.reset();
    leader.reset();
    data.reset();
    CleanDir(leader_dir);
    CleanDir(ship_dir);
  }
}
BENCHMARK(BM_Explain_LeaderVsReplica)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cce::serving

BENCHMARK_MAIN();
