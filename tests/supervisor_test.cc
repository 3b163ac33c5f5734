#include "serving/supervisor.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "serving/serving_group.h"
#include "serving/shard_layout.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Supervisor options tuned for deterministic single-tick tests: act on
/// the first confirmed observation, no jittered waiting between attempts,
/// no action rate limit.
Supervisor::Options FastSupervisor() {
  Supervisor::Options options;
  options.observe_threshold = 1;
  options.repair_backoff.initial_backoff = std::chrono::milliseconds(0);
  options.repair_backoff.max_backoff = std::chrono::milliseconds(0);
  options.action_rate.refill_per_sec = 0.0;  // unlimited
  return options;
}

uint64_t SupervisorCounter(ServingGroup& group, const char* name) {
  return group.registry().GetCounter(name, "")->Value();
}

/// A durable leader + clean shipped replica, with helpers to corrupt the
/// replication path.
struct SupervisedStack {
  cce::testing::ScopedTestDir tmp;  // declared first: outlives every file user
  Dataset data;
  std::string leader_dir;
  std::string ship_dir;
  std::unique_ptr<ExplainableProxy> leader;
  std::unique_ptr<ShardLogShipper> shipper;
  std::unique_ptr<ReplicaProxy> replica;
  std::unique_ptr<ServingGroup> group;

  SupervisedStack()
      : data(cce::testing::RandomContext(200, 4, 3, 13, /*noise=*/0.1)),
        leader_dir(tmp.File("leader")),
        ship_dir(tmp.File("ship")) {
    ExplainableProxy::Options options;
    options.monitor_drift = false;
    options.shards = 4;
    options.durability.dir = leader_dir;
    options.durability.sync_every = 0;
    auto leader_or =
        ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
    CCE_CHECK_OK(leader_or.status());
    leader = std::move(leader_or).value();
    for (size_t i = 0; i < 64; ++i) {
      CCE_CHECK_OK(leader->Record(data.instance(i), data.label(i)));
    }
    Ship();
    ReplicaProxy::Options replica_options;
    replica_options.ship_dir = ship_dir;
    auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
    CCE_CHECK_OK(replica_or.status());
    replica = std::move(replica_or).value();
    ServingGroup::Options group_options;
    group_options.hedge = false;
    auto group_or =
        ServingGroup::Create(leader.get(), {replica.get()}, group_options);
    CCE_CHECK_OK(group_or.status());
    group = std::move(group_or).value();
  }

  void Ship() {
    if (shipper == nullptr) {
      ShardLogShipper::Options ship;
      ship.source_dir = leader_dir;
      ship.ship_dir = ship_dir;
      ship.shards = 4;
      shipper = std::make_unique<ShardLogShipper>(ship);
    }
    CCE_CHECK_OK(shipper->Ship(leader->PublishedSequence()));
  }

  /// Scribbles over every shipped WAL so each catch-up / resync
  /// quarantines every tail until the next clean Ship().
  void CorruptShippedWals() {
    for (size_t shard = 0; shard < 4; ++shard) {
      WriteFileBytes(ship_dir + "/" + ShippedShardFileName(shard, "wal"),
                     "this is not a wal segment");
    }
  }
};

Supervisor::Level DomainLevel(Supervisor& supervisor,
                              const std::string& name) {
  for (const Supervisor::DomainStatus& domain : supervisor.Domains()) {
    if (domain.name == name) return domain.level;
  }
  ADD_FAILURE() << "no such domain: " << name;
  return Supervisor::Level::kHealthy;
}

TEST(SupervisorTest, LevelNames) {
  EXPECT_STREQ(Supervisor::LevelName(Supervisor::Level::kHealthy), "healthy");
  EXPECT_STREQ(Supervisor::LevelName(Supervisor::Level::kObserving),
               "observing");
  EXPECT_STREQ(Supervisor::LevelName(Supervisor::Level::kRepairing),
               "repairing");
  EXPECT_STREQ(Supervisor::LevelName(Supervisor::Level::kEvicted), "evicted");
  EXPECT_STREQ(Supervisor::LevelName(Supervisor::Level::kParked), "parked");
}

TEST(SupervisorTest, RepairsQuarantinedLeaderShardWithoutManualCalls) {
  Dataset data = cce::testing::RandomContext(120, 4, 3, 7, /*noise=*/0.1);
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.File("leader");
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = 4;
  options.durability.dir = dir;
  options.durability.sync_every = 0;
  {
    auto first = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
    CCE_CHECK_OK(first.status());
    for (size_t i = 0; i < 48; ++i) {
      CCE_CHECK_OK((*first)->Record(data.instance(i), data.label(i)));
    }
    // Killed here without a clean shutdown.
  }
  WriteFileBytes(dir + "/context.1.snapshot", "CCESNAP 1\ncovers zaphod\n");
  auto leader_or = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(leader_or.status());
  ExplainableProxy& leader = **leader_or;
  ASSERT_EQ(leader.Health().shards[1].state,
            ContextShard::State::kQuarantined);

  ServingGroup::Options group_options;
  group_options.hedge = false;
  auto group_or = ServingGroup::Create(&leader, {}, group_options);
  CCE_CHECK_OK(group_or.status());
  ServingGroup& group = **group_or;
  Supervisor supervisor(&group, FastSupervisor());

  bool healed = false;
  for (int tick = 0; tick < 8 && !healed; ++tick) {
    supervisor.TickOnce();
    healed = leader.Health().shards[1].state == ContextShard::State::kActive;
  }
  EXPECT_TRUE(healed) << "supervisor never repaired the quarantined shard";
  supervisor.TickOnce();  // the healthy probe resets the domain
  EXPECT_EQ(DomainLevel(supervisor, "leader_shard_1"),
            Supervisor::Level::kHealthy);
  EXPECT_GE(SupervisorCounter(group, "cce_supervisor_repair_shards_total"),
            1u);
  EXPECT_TRUE(group.Health().fully_healthy);
}

TEST(SupervisorTest, WalksTheFullLadderOnAnUnhealableReplica) {
  SupervisedStack stack;
  stack.CorruptShippedWals();
  CCE_CHECK_OK(stack.replica->CatchUp());
  ASSERT_TRUE(stack.replica->GetHealth().degraded);

  Supervisor::Options options = FastSupervisor();
  options.repair_attempts = 2;
  options.park_ticks = 2;
  Supervisor supervisor(stack.group.get(), options);

  // While the ship directory stays corrupt the ladder must escalate:
  // observe -> repair (2 failed resyncs) -> evict -> 2 more failed
  // resyncs -> park.
  bool evicted = false;
  bool parked = false;
  for (int tick = 0; tick < 12 && !parked; ++tick) {
    supervisor.TickOnce();
    const Supervisor::Level level = DomainLevel(supervisor, "replica_0");
    evicted = evicted || level == Supervisor::Level::kEvicted;
    parked = level == Supervisor::Level::kParked;
  }
  EXPECT_TRUE(evicted);
  EXPECT_TRUE(parked);
  EXPECT_TRUE(stack.group->Health().backends[1].evicted);
  EXPECT_GE(SupervisorCounter(*stack.group,
                              "cce_supervisor_force_resyncs_total"),
            3u);
  EXPECT_GE(SupervisorCounter(*stack.group, "cce_supervisor_evictions_total"),
            1u);
  EXPECT_GE(SupervisorCounter(*stack.group, "cce_supervisor_give_ups_total"),
            1u);

  // Fix the underlying fault; the parked domain must un-park, resync and
  // be readmitted with zero manual repair calls.
  stack.Ship();
  bool healthy = false;
  for (int tick = 0; tick < 12 && !healthy; ++tick) {
    supervisor.TickOnce();
    healthy = stack.group->Health().fully_healthy;
  }
  EXPECT_TRUE(healthy) << "group never converged after the fault cleared";
  EXPECT_FALSE(stack.group->Health().backends[1].evicted);
  EXPECT_EQ(DomainLevel(supervisor, "replica_0"),
            Supervisor::Level::kHealthy);
  EXPECT_GE(SupervisorCounter(*stack.group,
                              "cce_supervisor_readmissions_total"),
            1u);
}

TEST(SupervisorTest, TokenBucketLimitsActionsAcrossDomains) {
  Dataset data = cce::testing::RandomContext(120, 4, 3, 9, /*noise=*/0.1);
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.File("leader");
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = 4;
  options.durability.dir = dir;
  options.durability.sync_every = 0;
  {
    auto first = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
    CCE_CHECK_OK(first.status());
    for (size_t i = 0; i < 48; ++i) {
      CCE_CHECK_OK((*first)->Record(data.instance(i), data.label(i)));
    }
  }
  WriteFileBytes(dir + "/context.1.snapshot", "CCESNAP 1\ncovers zaphod\n");
  WriteFileBytes(dir + "/context.2.snapshot", "CCESNAP 1\ncovers zaphod\n");
  auto leader_or = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(leader_or.status());

  ServingGroup::Options group_options;
  group_options.hedge = false;
  auto group_or = ServingGroup::Create((*leader_or).get(), {}, group_options);
  CCE_CHECK_OK(group_or.status());
  ServingGroup& group = **group_or;

  // A frozen clock: the bucket starts with one token and never refills,
  // so of the two quarantined shards wanting repair in the same cycle
  // exactly one acts and the other is rate-limited.
  std::chrono::steady_clock::time_point frozen{};
  Supervisor::Options sup = FastSupervisor();
  sup.action_rate.refill_per_sec = 0.001;
  sup.action_rate.burst = 1.0;
  sup.clock = [&frozen] { return frozen; };
  Supervisor supervisor(&group, sup);

  supervisor.TickOnce();  // both domains: healthy -> observing
  supervisor.TickOnce();  // both domains: observing -> repairing
  supervisor.TickOnce();  // one repair fires, the other hits the bucket
  EXPECT_EQ(SupervisorCounter(group, "cce_supervisor_repair_shards_total"),
            1u);
  EXPECT_GE(SupervisorCounter(group, "cce_supervisor_rate_limited_total"),
            1u);
}

TEST(SupervisorTest, JitteredBackoffGatesRepeatedRepairs) {
  SupervisedStack stack;
  stack.CorruptShippedWals();
  CCE_CHECK_OK(stack.replica->CatchUp());

  std::chrono::steady_clock::time_point frozen{};
  Supervisor::Options options = FastSupervisor();
  options.repair_attempts = 10;
  options.repair_backoff.initial_backoff = std::chrono::seconds(60);
  options.repair_backoff.max_backoff = std::chrono::seconds(120);
  options.clock = [&frozen] { return frozen; };
  Supervisor supervisor(stack.group.get(), options);

  supervisor.TickOnce();  // observing
  supervisor.TickOnce();  // repairing
  supervisor.TickOnce();  // first resync fires, arms a >= 60s backoff
  supervisor.TickOnce();  // frozen clock: the gate must hold the action
  supervisor.TickOnce();
  EXPECT_EQ(SupervisorCounter(*stack.group,
                              "cce_supervisor_force_resyncs_total"),
            1u);
  EXPECT_GE(SupervisorCounter(*stack.group,
                              "cce_supervisor_backoff_holds_total"),
            2u);
}

TEST(SupervisorTest, StartStopIsIdempotentAndTicksInBackground) {
  SupervisedStack stack;
  Supervisor::Options options = FastSupervisor();
  options.poll_interval = std::chrono::milliseconds(5);
  Supervisor supervisor(stack.group.get(), options);
  supervisor.Start();
  supervisor.Start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  supervisor.Stop();
  supervisor.Stop();  // idempotent
  EXPECT_GE(SupervisorCounter(*stack.group, "cce_supervisor_cycles_total"),
            1u);
  supervisor.Start();  // restartable; the destructor stops it
}

}  // namespace
}  // namespace cce::serving
