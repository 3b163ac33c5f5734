#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// The bounded-staleness contract, raced: while the leader absorbs write
/// bursts and a shipper publishes mid-burst cycles, every view the
/// follower serves is a *prefix window* of the leader's acknowledged
/// history — rows 0..P of the recorded stream for the view's published
/// sequence P, never a torn or interleaved mix. The follower may be
/// stale (P behind the leader), never inconsistent.
///
/// Runs with background tailing + scrubbing enabled so CatchUp, Scrub and
/// Explain race for real; `scripts/check.sh SUITE=stress` rebuilds this
/// under TSan with CCE_STRESS=1 for a larger burst.

bool StressMode() {
  const char* raw = std::getenv("CCE_STRESS");
  return raw != nullptr && raw[0] != '\0' && raw[0] != '0';
}

TEST(ReplicaStalenessTest, FollowerViewsArePrefixWindowsDuringWriteBursts) {
  const size_t kShards = 4;
  const size_t kRows = StressMode() ? 600 : 200;
  cce::testing::ScopedTestDir tmp;
  const std::string leader_dir = tmp.File("leader");
  const std::string ship_dir = tmp.File("ship");

  Dataset data = cce::testing::RandomContext(kRows, 5, 3, 23, /*noise=*/0.1);

  ExplainableProxy::Options leader_options;
  leader_options.monitor_drift = false;
  leader_options.shards = kShards;
  leader_options.durability.dir = leader_dir;
  leader_options.durability.sync_every = 1;
  // Small threshold: compactions race the shipper's snapshot+wal reads,
  // exercising the generation fence mid-burst.
  leader_options.durability.compact_threshold_bytes = 8 * 1024;
  auto leader_or =
      ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
  CCE_CHECK_OK(leader_or.status());
  ExplainableProxy& leader = **leader_or;

  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = ship_dir;
  replica_options.poll_interval = std::chrono::milliseconds(1);
  replica_options.scrub_every = 4;
  auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
  CCE_CHECK_OK(replica_or.status());
  ReplicaProxy& replica = **replica_or;
  replica.Start();

  std::atomic<bool> writer_done{false};

  // Writer: the burst. One thread, so the leader's global sequence order
  // is exactly the dataset order — the oracle for the prefix check.
  std::thread writer([&] {
    for (size_t row = 0; row < data.size(); ++row) {
      CCE_CHECK_OK(leader.Record(data.instance(row), data.label(row)));
      if (row % 16 == 15) std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Shipper: publishes whatever watermark the leader exposes, mid-burst.
  std::thread shipper_thread([&] {
    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir;
    ship_options.ship_dir = ship_dir;
    ship_options.shards = kShards;
    ShardLogShipper shipper(ship_options);
    while (!writer_done.load(std::memory_order_acquire)) {
      CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
      std::this_thread::yield();
    }
    CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
  });

  // Checker: every follower view observed mid-burst must be data[0..P).
  uint64_t last_view_size = 0;
  size_t probes_served = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    const Context view = replica.ContextSnapshot();
    ASSERT_LE(view.size(), data.size());
    ASSERT_GE(view.size(), last_view_size)
        << "the follower view went backwards mid-burst";
    last_view_size = view.size();
    for (size_t row = 0; row < view.size(); ++row) {
      ASSERT_EQ(view.instance(row), data.instance(row))
          << "view of size " << view.size() << " is not a prefix at row "
          << row;
      ASSERT_EQ(view.label(row), data.label(row))
          << "view of size " << view.size() << " is not a prefix at row "
          << row;
    }
    if (view.size() > 0) {
      auto key = replica.Explain(data.instance(0), data.label(0));
      // The view can only grow, so once non-empty Explain must serve.
      ASSERT_TRUE(key.ok()) << key.status().ToString();
      ++probes_served;
    }
    std::this_thread::yield();
  }
  writer.join();
  shipper_thread.join();

  // Drain: the final ship cycle carries the full burst; the background
  // tailer must converge to it.
  const uint64_t final_published = leader.PublishedSequence();
  EXPECT_EQ(final_published, data.size());
  for (int spin = 0; spin < 2000 && replica.published_seq() < final_published;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  replica.Stop();
  CCE_CHECK_OK(replica.CatchUp());
  CCE_CHECK_OK(replica.Scrub());

  ReplicaProxy::Health health = replica.GetHealth();
  EXPECT_EQ(health.view_published, final_published);
  EXPECT_EQ(health.lag_seq, 0u);
  EXPECT_FALSE(health.degraded);
  EXPECT_GT(probes_served, 0u) << "the checker never raced a live view";

  // Caught up, the follower is bit-identical to the leader.
  const Context leader_ctx = leader.ContextSnapshot();
  const Context replica_ctx = replica.ContextSnapshot();
  ASSERT_EQ(leader_ctx.size(), replica_ctx.size());
  for (size_t row = 0; row < leader_ctx.size(); ++row) {
    ASSERT_EQ(leader_ctx.instance(row), replica_ctx.instance(row));
    ASSERT_EQ(leader_ctx.label(row), replica_ctx.label(row));
  }
  for (size_t probe = 0; probe < 8; ++probe) {
    auto expected = leader.Explain(data.instance(probe), data.label(probe));
    auto actual = replica.Explain(data.instance(probe), data.label(probe));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->key, expected->key) << "probe " << probe;
    EXPECT_EQ(actual->pick_order, expected->pick_order) << "probe " << probe;
    EXPECT_EQ(actual->achieved_alpha, expected->achieved_alpha)
        << "probe " << probe;
    EXPECT_EQ(actual->satisfied, expected->satisfied) << "probe " << probe;
  }
}

TEST(ReplicaStalenessTest, ExplainBatchRacesFeedsAndResyncs) {
  // Readers batch-Explain against the replica's view while the leader
  // records and ships, one thread feeds the view (CatchUp) and another
  // rebuilds and swaps it (ForceResync). Once a view is published every
  // answer is a key — never a torn or transiently empty view — and at
  // quiescence the replica serves the leader's keys.
  const size_t kShards = 4;
  const size_t kRows = StressMode() ? 1200 : 300;
  cce::testing::ScopedTestDir tmp;
  const std::string leader_dir = tmp.File("leader");
  const std::string ship_dir = tmp.File("ship");
  Dataset data = cce::testing::RandomContext(kRows, 5, 3, 41, /*noise=*/0.1);

  ExplainableProxy::Options leader_options;
  leader_options.monitor_drift = false;
  leader_options.shards = kShards;
  // The window slides, so feeds evict from the view readers search.
  leader_options.context_capacity = 64;
  leader_options.durability.dir = leader_dir;
  leader_options.durability.sync_every = 0;
  leader_options.durability.compact_threshold_bytes = 0;
  auto leader_or =
      ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
  CCE_CHECK_OK(leader_or.status());
  ExplainableProxy& leader = **leader_or;

  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = kShards;
  ShardLogShipper shipper(ship_options);

  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = ship_dir;
  replica_options.context_capacity = 64;
  auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
  CCE_CHECK_OK(replica_or.status());
  ReplicaProxy& replica = **replica_or;

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (size_t row = 0; row < data.size(); ++row) {
      CCE_CHECK_OK(leader.Record(data.instance(row), data.label(row)));
      if (row % 8 == 7) CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
    }
    CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
    writer_done.store(true, std::memory_order_release);
  });
  std::thread feeder([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      CCE_CHECK_OK(replica.CatchUp());
      std::this_thread::yield();
    }
  });
  std::thread resyncer([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      CCE_CHECK_OK(replica.ForceResync());
      std::this_thread::yield();
    }
  });
  std::atomic<size_t> served{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      size_t row = t;
      while (!writer_done.load(std::memory_order_acquire)) {
        const bool published = replica.published_seq() > 0;
        std::vector<BatchQuery> items;
        for (size_t i = 0; i < 3; ++i, row += 5) {
          items.push_back({data.instance(row % data.size()),
                           data.label(row % data.size()),
                           Deadline::Infinite()});
        }
        const auto keys = replica.ExplainBatch(items);
        ASSERT_EQ(keys.size(), items.size());
        if (!published) continue;
        for (const auto& key : keys) {
          ASSERT_TRUE(key.ok()) << key.status().ToString();
          EXPECT_FALSE(key->degraded);
        }
        served.fetch_add(keys.size(), std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  feeder.join();
  resyncer.join();
  for (std::thread& reader : readers) reader.join();

  CCE_CHECK_OK(replica.CatchUp());
  ASSERT_EQ(replica.published_seq(), leader.PublishedSequence());
  EXPECT_GT(replica.GetHealth().resyncs, 0u);
  const Context leader_ctx = leader.ContextSnapshot();
  const Context replica_ctx = replica.ContextSnapshot();
  ASSERT_EQ(leader_ctx.size(), replica_ctx.size());
  for (size_t row = 0; row < leader_ctx.size(); ++row) {
    ASSERT_EQ(leader_ctx.instance(row), replica_ctx.instance(row));
    ASSERT_EQ(leader_ctx.label(row), replica_ctx.label(row));
  }
  std::vector<BatchQuery> items;
  for (size_t row = 0; row < 12; ++row) {
    items.push_back({data.instance(row * 7 % data.size()),
                     data.label(row * 7 % data.size()), Deadline::Infinite()});
  }
  const auto want = leader.ExplainBatch(items);
  const auto got = replica.ExplainBatch(items);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(want[i].ok()) << want[i].status().ToString();
    ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
    EXPECT_EQ(got[i]->key, want[i]->key) << "item " << i;
    EXPECT_EQ(got[i]->pick_order, want[i]->pick_order) << "item " << i;
    EXPECT_EQ(got[i]->achieved_alpha, want[i]->achieved_alpha) << "item " << i;
    EXPECT_EQ(got[i]->satisfied, want[i]->satisfied) << "item " << i;
    EXPECT_FALSE(got[i]->degraded) << "item " << i;
  }
}

}  // namespace
}  // namespace cce::serving
