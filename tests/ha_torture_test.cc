#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "serving/context_shard.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "serving/serving_group.h"
#include "serving/supervisor.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// HA torture for the self-healing serving group: every iteration builds a
/// fresh leader + shipper + replica + group + supervisor over the same
/// directories (randomized kill-and-recover — nothing gets a clean
/// shutdown), with *independent* seeded fault schedules on the leader I/O
/// path and the replica catch-up path. Invariants:
///
///   1. No Create() ever fails and no group call crashes — damage
///      quarantines and degrades, it never kills the group.
///   2. The group keeps answering Explains whenever any backend holds a
///      non-empty view; a failure is only acceptable when both backends
///      are genuinely empty or broken, and then it is a clean status.
///   3. A non-degraded answer is never wrong: on fault-free iterations,
///      when its view_seq equals the leader's published sequence
///      (quiescent check), the key is bit-identical to the leader's own
///      Explain. (Mid-fault, a torn write can leave leader memory ahead
///      of the durable log at the same watermark, so equality is only
///      the contract once I/O is clean — same as replica_torture_test.)
///   4. With faults off, a fresh stack converges back to
///      GroupHealth::fully_healthy with ZERO manual repair calls — every
///      RepairShard/ForceResync/evict/readmit comes from the supervisor.
///
/// Iterations default to 25 (tier-1 budget); `SUITE=ha scripts/check.sh`
/// exports CCE_HA_ITERS=200 for the full ASan gate. Replay a CI failure
/// with CCE_FAULT_SEED=<seed>.

size_t IterationBudget() {
  const char* raw = std::getenv("CCE_HA_ITERS");
  if (raw == nullptr) return 25;
  const long parsed = std::strtol(raw, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : 25;
}

/// Supervisor tuned for tick-driven torture: act on the first confirmed
/// fault, no wall-clock waits, no rate limit (determinism beats realism
/// here — the rate limiter has its own test).
Supervisor::Options TortureSupervisor() {
  Supervisor::Options options;
  options.observe_threshold = 1;
  options.repair_attempts = 2;
  options.park_ticks = 2;
  options.lag_budget_seq = 1u << 20;  // lag is expected mid-torture
  options.repair_backoff.initial_backoff = std::chrono::milliseconds(0);
  options.repair_backoff.max_backoff = std::chrono::milliseconds(0);
  options.action_rate.refill_per_sec = 0.0;  // unlimited
  return options;
}

TEST(HaTortureTest, GroupSurvivesDualFaultsAndSelfHeals) {
  const size_t kShards = 4;
  const size_t kIterations = IterationBudget();
  cce::testing::ScopedTestDir tmp;
  const std::string leader_dir = tmp.File("leader");
  const std::string ship_dir = tmp.File("ship");

  Dataset data = cce::testing::RandomContext(300, 4, 2, 31, /*noise=*/0.1);
  Rng rng(20260807);
  const uint64_t base_seed = cce::testing::FaultScheduleSeed(7000);

  size_t served = 0;
  size_t degraded_serves = 0;
  size_t hedges_fired = 0;
  size_t supervisor_actions = 0;

  for (size_t iter = 0; iter < kIterations; ++iter) {
    const uint64_t leader_seed = base_seed + 2 * iter;
    const uint64_t follower_seed = base_seed + 2 * iter + 1;
    io::FaultInjectingEnv::Options leader_faults;
    leader_faults.seed = leader_seed;
    io::FaultInjectingEnv::Options follower_faults;
    follower_faults.seed = follower_seed;
    if (iter % 4 != 3) {  // every 4th iteration runs fault-free
      leader_faults.write_error_probability = 0.02;
      leader_faults.torn_write_probability = 0.02;
      leader_faults.sync_error_probability = 0.01;
      leader_faults.read_error_probability = 0.01;
      follower_faults.read_error_probability = 0.03;
      follower_faults.short_read_probability = 0.02;
    }
    io::FaultInjectingEnv leader_env(io::Env::Default(), leader_faults);
    io::FaultInjectingEnv follower_env(io::Env::Default(), follower_faults);

    ExplainableProxy::Options leader_options;
    leader_options.monitor_drift = false;
    leader_options.shards = kShards;
    leader_options.durability.dir = leader_dir;
    leader_options.durability.sync_every = 1;
    leader_options.durability.compact_threshold_bytes = 8 * 1024;
    leader_options.durability.env = &leader_env;
    auto leader_or =
        ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
    ASSERT_TRUE(leader_or.ok())
        << "iteration " << iter << " (CCE_FAULT_SEED=" << leader_seed
        << "): " << leader_or.status().ToString();
    ExplainableProxy& leader = **leader_or;

    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir;
    ship_options.ship_dir = ship_dir;
    ship_options.shards = kShards;
    ship_options.env = &leader_env;
    ShardLogShipper shipper(ship_options);

    ReplicaProxy::Options replica_options;
    replica_options.ship_dir = ship_dir;
    replica_options.env = &follower_env;
    auto replica_or =
        ReplicaProxy::Create(data.schema_ptr(), replica_options);
    ASSERT_TRUE(replica_or.ok())
        << "iteration " << iter << " (CCE_FAULT_SEED=" << follower_seed
        << "): " << replica_or.status().ToString();
    ReplicaProxy& replica = **replica_or;

    ServingGroup::Options group_options;
    group_options.hedge_min_delay = std::chrono::milliseconds(0);
    group_options.hedge_max_delay = std::chrono::milliseconds(2);
    auto group_or =
        ServingGroup::Create(&leader, {&replica}, group_options);
    ASSERT_TRUE(group_or.ok()) << group_or.status().ToString();
    ServingGroup& group = **group_or;
    Supervisor supervisor(&group, TortureSupervisor());

    const size_t rounds = 2 + rng.Uniform(4);
    for (size_t round = 0; round < rounds; ++round) {
      // Writes through the group land on the leader; injected I/O
      // failures must surface as clean backend errors.
      const size_t burst = 4 + rng.Uniform(12);
      for (size_t i = 0; i < burst; ++i) {
        const size_t row = rng.Uniform(data.size());
        Status recorded = group.Record(data.instance(row), data.label(row));
        if (!recorded.ok()) {
          ASSERT_TRUE(recorded.code() == StatusCode::kUnavailable ||
                      recorded.code() == StatusCode::kIoError)
              << recorded.ToString();
        }
      }
      // Replication machinery (normally background loops, driven here so
      // the schedule is deterministic). These are NOT repair calls.
      Status shipped = shipper.Ship(leader.PublishedSequence());
      if (!shipped.ok()) {
        ASSERT_EQ(shipped.code(), StatusCode::kIoError)
            << shipped.ToString();
      }
      CCE_CHECK_OK(replica.CatchUp());
      supervisor.TickOnce();

      // Invariants 2 + 3 on routed, hedged Explains.
      const bool leader_has_rows = leader.ContextSnapshot().size() > 0;
      const bool replica_has_rows = replica.published_seq() > 0;
      for (size_t probe = 0; probe < 3; ++probe) {
        const size_t row = rng.Uniform(data.size());
        auto result = group.Explain(data.instance(row), data.label(row));
        if (!result.ok()) {
          EXPECT_FALSE(leader_has_rows || replica_has_rows)
              << "iteration " << iter << " round " << round
              << " (CCE_FAULT_SEED=" << leader_seed
              << "): the group went dark while a backend held rows: "
              << result.status().ToString();
          EXPECT_TRUE(result.status().code() == StatusCode::kUnavailable ||
                      result.status().code() ==
                          StatusCode::kFailedPrecondition)
              << result.status().ToString();
          continue;
        }
        ++served;
        if (result->key.degraded) ++degraded_serves;
        if (iter % 4 == 3 && !result->key.degraded &&
            result->view_seq == leader.PublishedSequence()) {
          // Quiescent bit-identity check: same published sequence, same
          // key — wherever the answer was routed or hedged from. Only on
          // fault-free iterations: a torn write can leave the leader's
          // memory ahead of its durable log at the same watermark, and
          // the replica replays the log (replica_torture_test pins the
          // same contract — bit-identity holds once I/O is clean).
          auto expected = leader.Explain(data.instance(row), data.label(row));
          if (expected.ok() && !expected->degraded) {
            EXPECT_EQ(result->key.key, expected->key)
                << "iteration " << iter << " backend " << result->backend;
            EXPECT_EQ(result->key.pick_order, expected->pick_order);
            EXPECT_EQ(result->key.achieved_alpha, expected->achieved_alpha);
            EXPECT_EQ(result->key.satisfied, expected->satisfied);
          }
        }
      }
    }
    ServingGroup::GroupHealth group_health = group.Health();
    hedges_fired += group_health.hedges;
    supervisor_actions +=
        group.registry()
            .GetCounter("cce_supervisor_repair_shards_total", "")
            ->Value() +
        group.registry()
            .GetCounter("cce_supervisor_force_resyncs_total", "")
            ->Value();
    // Everything dropped here with no clean shutdown — the kill point.
  }
  EXPECT_GT(served, 0u) << "the torture never exercised a served Explain";

  // Invariant 4: faults off, a fresh stack must converge to fully-healthy
  // routing with zero manual repair calls — the supervisor does it all.
  ExplainableProxy::Options leader_options;
  leader_options.monitor_drift = false;
  leader_options.shards = kShards;
  leader_options.durability.dir = leader_dir;
  leader_options.durability.sync_every = 1;
  auto leader_or =
      ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
  ASSERT_TRUE(leader_or.ok()) << leader_or.status().ToString();
  ExplainableProxy& leader = **leader_or;
  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = kShards;
  ShardLogShipper shipper(ship_options);
  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = ship_dir;
  auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
  ASSERT_TRUE(replica_or.ok()) << replica_or.status().ToString();
  ReplicaProxy& replica = **replica_or;
  ServingGroup::Options group_options;
  auto group_or = ServingGroup::Create(&leader, {&replica}, group_options);
  ASSERT_TRUE(group_or.ok()) << group_or.status().ToString();
  ServingGroup& group = **group_or;
  Supervisor supervisor(&group, TortureSupervisor());

  bool converged = false;
  for (size_t round = 0; round < 200 && !converged; ++round) {
    supervisor.TickOnce();
    const size_t row = round % data.size();
    Status recorded = group.Record(data.instance(row), data.label(row));
    if (!recorded.ok()) {
      ASSERT_EQ(recorded.code(), StatusCode::kUnavailable)
          << recorded.ToString();
    }
    CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
    CCE_CHECK_OK(replica.CatchUp());
    converged = group.Health().fully_healthy;
  }
  ASSERT_TRUE(converged)
      << "the group never self-healed to fully-healthy routing";

  auto final_key = group.Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(final_key.ok()) << final_key.status().ToString();
  EXPECT_FALSE(final_key->key.degraded);
  auto expected = leader.Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(final_key->key.key, expected->key);

  if (kIterations >= 200) {
    // Over a full gate budget the machinery must actually have fired.
    EXPECT_GT(supervisor_actions, 0u)
        << "200 faulty iterations never triggered a supervised repair";
    EXPECT_GT(degraded_serves + hedges_fired, 0u);
  }
}

}  // namespace
}  // namespace cce::serving
