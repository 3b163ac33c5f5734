#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "serving/context_shard.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// The supervisor's repair actions must be safe to fire against a domain
/// that is not actually sick (probes race real state): RepairShard() on a
/// healthy shard is a kFailedPrecondition no-op and ForceResync() on an
/// in-sync replica atomically swaps in an identical view — in both cases
/// concurrent Explains keep succeeding with bit-identical keys. Runs in
/// the tier-2 SUITE=stress gate under ThreadSanitizer, so the
/// no-transient-empty-view property of the atomic-swap resync is raced
/// for real.

size_t StressScale() { return std::getenv("CCE_STRESS") != nullptr ? 4 : 1; }

void ExpectSameKey(const KeyResult& actual, const KeyResult& expected,
                   const char* when) {
  EXPECT_EQ(actual.key, expected.key) << when;
  EXPECT_EQ(actual.pick_order, expected.pick_order) << when;
  EXPECT_EQ(actual.achieved_alpha, expected.achieved_alpha) << when;
  EXPECT_EQ(actual.satisfied, expected.satisfied) << when;
}

TEST(RepairIdempotencyTest, RepairShardOnHealthyShardIsANoOp) {
  const size_t kShards = 4;
  Dataset data = cce::testing::RandomContext(200, 4, 3, 23, /*noise=*/0.1);
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.File("leader");
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = kShards;
  options.durability.dir = dir;
  options.durability.sync_every = 0;
  auto proxy_or = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(proxy_or.status());
  ExplainableProxy& proxy = **proxy_or;
  for (size_t i = 0; i < 96; ++i) {
    CCE_CHECK_OK(proxy.Record(data.instance(i), data.label(i)));
  }

  auto before = proxy.Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t recorded_before = proxy.recorded();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const size_t kThreads = 2 * StressScale();
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&proxy, &data, &stop, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        auto key = proxy.Explain(data.instance(i % 96), data.label(i % 96));
        EXPECT_TRUE(key.ok()) << key.status().ToString();
        ++i;
      }
    });
  }
  for (size_t round = 0; round < 8 * StressScale(); ++round) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      Status repaired = proxy.RepairShard(shard);
      EXPECT_EQ(repaired.code(), StatusCode::kFailedPrecondition)
          << "repairing a healthy shard must refuse, not rebuild: "
          << repaired.ToString();
    }
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(proxy.recorded(), recorded_before);
  HealthSnapshot health = proxy.Health();
  for (size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(health.shards[shard].state, ContextShard::State::kActive);
  }
  auto after = proxy.Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameKey(*after, *before, "after benign RepairShard sweep");
}

TEST(RepairIdempotencyTest, ForceResyncOnInSyncReplicaIsInvisible) {
  const size_t kShards = 4;
  Dataset data = cce::testing::RandomContext(200, 4, 3, 29, /*noise=*/0.1);
  cce::testing::ScopedTestDir tmp;
  const std::string leader_dir = tmp.File("leader");
  const std::string ship_dir = tmp.File("ship");
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = kShards;
  options.durability.dir = leader_dir;
  options.durability.sync_every = 0;
  auto leader_or = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(leader_or.status());
  ExplainableProxy& leader = **leader_or;
  for (size_t i = 0; i < 96; ++i) {
    CCE_CHECK_OK(leader.Record(data.instance(i), data.label(i)));
  }
  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = kShards;
  ShardLogShipper shipper(ship_options);
  CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = ship_dir;
  auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
  CCE_CHECK_OK(replica_or.status());
  ReplicaProxy& replica = **replica_or;
  ASSERT_EQ(replica.published_seq(), leader.PublishedSequence());

  auto before = replica.Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->degraded);

  // Readers must never observe a transient empty view (kFailedPrecondition)
  // while resyncs rebuild-and-swap underneath them.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const size_t kThreads = 2 * StressScale();
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&replica, &data, &stop, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        auto key = replica.Explain(data.instance(i % 96), data.label(i % 96));
        EXPECT_TRUE(key.ok())
            << "a resync of an in-sync replica leaked an inconsistent "
            << "view: " << key.status().ToString();
        if (key.ok()) EXPECT_FALSE(key->degraded);
        ++i;
      }
    });
  }
  const uint64_t view_before = replica.published_seq();
  for (size_t round = 0; round < 8 * StressScale(); ++round) {
    CCE_CHECK_OK(replica.ForceResync());
    EXPECT_EQ(replica.published_seq(), view_before)
        << "an in-sync resync must land on the same watermark";
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  ReplicaProxy::Health health = replica.GetHealth();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.view_published, view_before);
  EXPECT_GE(health.resyncs, 8u);
  auto after = replica.Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameKey(*after, *before, "after in-sync ForceResync sweep");
}

}  // namespace
}  // namespace cce::serving
