#include "serving/serving_group.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "serving/overload.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// A durable leader with `rows` recorded, one clean ship cycle, and one
/// caught-up replica — the minimal two-backend group substrate. `options`
/// configures the leader beyond its shards and durability.
struct GroupStack {
  cce::testing::ScopedTestDir tmp;  // declared first: outlives every file user
  Dataset data;
  std::string leader_dir;
  std::string ship_dir;
  std::unique_ptr<ExplainableProxy> leader;
  std::unique_ptr<ShardLogShipper> shipper;
  std::unique_ptr<ReplicaProxy> replica;

  explicit GroupStack(size_t rows = 64, ExplainableProxy::Options options = {})
      : data(cce::testing::RandomContext(200, 4, 3, 11, /*noise=*/0.1)),
        leader_dir(tmp.File("leader")),
        ship_dir(tmp.File("ship")) {
    options.monitor_drift = false;
    options.shards = 4;
    options.durability.dir = leader_dir;
    options.durability.sync_every = 0;
    auto leader_or =
        ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
    CCE_CHECK_OK(leader_or.status());
    leader = std::move(leader_or).value();
    for (size_t i = 0; i < rows; ++i) {
      CCE_CHECK_OK(leader->Record(data.instance(i), data.label(i)));
    }
    Ship();
    ReplicaProxy::Options replica_options;
    replica_options.ship_dir = ship_dir;
    auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
    CCE_CHECK_OK(replica_or.status());
    replica = std::move(replica_or).value();
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

  std::unique_ptr<ServingGroup> MakeGroup(ServingGroup::Options options) {
    auto group_or =
        ServingGroup::Create(leader.get(), {replica.get()}, options);
    CCE_CHECK_OK(group_or.status());
    return std::move(group_or).value();
  }
};

void ExpectSameKey(const KeyResult& actual, const KeyResult& expected) {
  EXPECT_EQ(actual.key, expected.key);
  EXPECT_EQ(actual.pick_order, expected.pick_order);
  EXPECT_EQ(actual.achieved_alpha, expected.achieved_alpha);
  EXPECT_EQ(actual.satisfied, expected.satisfied);
}

TEST(ServingGroupTest, RoutePolicyNames) {
  EXPECT_STREQ(RoutePolicyName(RoutePolicy::kLeaderOnly), "leader-only");
  EXPECT_STREQ(RoutePolicyName(RoutePolicy::kPreferFresh), "prefer-fresh");
  EXPECT_STREQ(RoutePolicyName(RoutePolicy::kPreferAvailable),
               "prefer-available");
}

TEST(ServingGroupTest, CreateValidatesArguments) {
  GroupStack stack;
  ServingGroup::Options options;
  EXPECT_FALSE(ServingGroup::Create(nullptr, {}, options).ok());
  EXPECT_FALSE(
      ServingGroup::Create(stack.leader.get(), {nullptr}, options).ok());
  options.hedge_deadline_fraction = 0.0;
  EXPECT_FALSE(
      ServingGroup::Create(stack.leader.get(), {}, options).ok());
}

TEST(ServingGroupTest, LeaderOnlyNeverConsultsReplica) {
  GroupStack stack;
  ServingGroup::Options options;
  options.policy = RoutePolicy::kLeaderOnly;
  auto group = stack.MakeGroup(options);

  auto result = group->Explain(stack.data.instance(0), stack.data.label(0));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->backend, 0u);
  EXPECT_FALSE(result->hedged);
  EXPECT_EQ(result->view_seq, stack.leader->PublishedSequence());

  // Under leader-only an evicted leader means no routable backend at all:
  // the replica is never a fallback.
  group->EvictBackend(0);
  auto unroutable =
      group->Explain(stack.data.instance(0), stack.data.label(0));
  EXPECT_EQ(unroutable.status().code(), StatusCode::kUnavailable);
  ServingGroup::GroupHealth health = group->Health();
  EXPECT_EQ(health.hedges, 0u);
  EXPECT_GE(health.errors, 1u);
}

TEST(ServingGroupTest, PreferFreshFailsOverToReplicaWhenLeaderEvicted) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge = false;
  auto group = stack.MakeGroup(options);
  group->EvictBackend(0);
  group->RefreshProbes();

  auto expected =
      stack.leader->Explain(stack.data.instance(3), stack.data.label(3));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto result = group->Explain(stack.data.instance(3), stack.data.label(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->backend, 1u);
  EXPECT_FALSE(result->key.degraded);
  EXPECT_EQ(result->view_seq, stack.leader->PublishedSequence());
  ExpectSameKey(result->key, *expected);

  group->ReadmitBackend(0);
  group->RefreshProbes();
  auto back = group->Explain(stack.data.instance(3), stack.data.label(3));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->backend, 0u);
}

TEST(ServingGroupTest, HedgesToReplicaWhenLeaderIsSlow) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge_min_delay = std::chrono::milliseconds(1);
  options.hedge_max_delay = std::chrono::milliseconds(2);
  options.explain_interceptor = [](size_t backend) {
    if (backend == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
  };
  auto group = stack.MakeGroup(options);
  group->RefreshProbes();

  auto expected =
      stack.leader->Explain(stack.data.instance(5), stack.data.label(5));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto result = group->Explain(stack.data.instance(5), stack.data.label(5));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->backend, 1u);
  EXPECT_TRUE(result->hedged);
  EXPECT_FALSE(result->key.degraded);
  ExpectSameKey(result->key, *expected);

  ServingGroup::GroupHealth health = group->Health();
  EXPECT_GE(health.hedges, 1u);
  EXPECT_GE(health.hedge_wins, 1u);
  EXPECT_EQ(health.stale_hedge_rejects, 0u);
}

TEST(ServingGroupTest, StaleHedgeIsFencedOut) {
  GroupStack stack;
  // Advance the leader past the shipped state so the replica's view is
  // strictly behind the fence.
  for (size_t i = 64; i < 96; ++i) {
    CCE_CHECK_OK(stack.leader->Record(stack.data.instance(i),
                                      stack.data.label(i)));
  }
  ServingGroup::Options options;
  options.hedge_min_delay = std::chrono::milliseconds(1);
  options.hedge_max_delay = std::chrono::milliseconds(2);
  options.explain_interceptor = [](size_t backend) {
    if (backend == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  };
  auto group = stack.MakeGroup(options);
  group->RefreshProbes();

  auto result = group->Explain(stack.data.instance(2), stack.data.label(2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The hedge fired (the leader was slow) but its answer came from a view
  // behind the fence, so the slow-but-fresh primary was served instead.
  EXPECT_EQ(result->backend, 0u);
  EXPECT_FALSE(result->hedged);
  EXPECT_FALSE(result->key.degraded);
  EXPECT_EQ(result->view_seq, stack.leader->PublishedSequence());

  ServingGroup::GroupHealth health = group->Health();
  EXPECT_GE(health.hedges, 1u);
  EXPECT_GE(health.stale_hedge_rejects, 1u);
  EXPECT_EQ(health.hedge_wins, 0u);
}

TEST(ServingGroupTest, ServedFloorKeepsNonDegradedViewsMonotonic) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge = false;
  auto group = stack.MakeGroup(options);
  uint64_t last_seq = 0;
  for (size_t round = 0; round < 4; ++round) {
    auto result =
        group->Explain(stack.data.instance(round), stack.data.label(round));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!result->key.degraded) {
      EXPECT_GE(result->view_seq, last_seq);
      last_seq = result->view_seq;
    }
    CCE_CHECK_OK(stack.leader->Record(stack.data.instance(100 + round),
                                      stack.data.label(100 + round)));
    stack.Ship();
    CCE_CHECK_OK(stack.replica->CatchUp());
    group->RefreshProbes();
  }
  EXPECT_GT(last_seq, 0u);
}

TEST(ServingGroupTest, RecordGoesToLeaderAndCounterfactualsRoute) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge = false;
  auto group = stack.MakeGroup(options);
  const uint64_t before = stack.leader->PublishedSequence();
  CCE_CHECK_OK(group->Record(stack.data.instance(99), stack.data.label(99)));
  EXPECT_GT(stack.leader->PublishedSequence(), before);

  auto witnesses =
      group->Counterfactuals(stack.data.instance(0), stack.data.label(0));
  EXPECT_TRUE(witnesses.ok()) << witnesses.status().ToString();
}

TEST(ServingGroupTest, InvalidArgumentDoesNotTripTheBreaker) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge = false;
  options.breaker.failure_threshold = 2;
  auto group = stack.MakeGroup(options);
  Instance wrong_arity(2);
  for (int i = 0; i < 6; ++i) {
    auto result = group->Explain(wrong_arity, stack.data.label(0));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  ServingGroup::GroupHealth health = group->Health();
  EXPECT_EQ(health.backends[0].breaker, CircuitBreaker::State::kClosed);
  auto good = group->Explain(stack.data.instance(0), stack.data.label(0));
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

/// A group over a leader whose admission holds one explain token and
/// then refills for ~17 minutes, with no cache to fall back to: every
/// Explain after the first is shed. The leader is one record ahead of the
/// replica, so it always routes first; `dispatches[b]` counts backend b's
/// calls.
struct ShedStack {
  GroupStack stack;
  std::atomic<int> dispatches[2] = {0, 0};
  std::unique_ptr<ServingGroup> group;  // last: its hedge pool dies first

  static ExplainableProxy::Options OneExplainToken() {
    ExplainableProxy::Options options;
    options.overload.enabled = true;
    options.overload.explain_bucket.refill_per_sec = 0.001;
    options.overload.explain_bucket.burst = 1.0;
    options.explain_cache.capacity = 0;
    return options;
  }

  explicit ShedStack(ServingGroup::Options options)
      : stack(/*rows=*/64, OneExplainToken()) {
    CCE_CHECK_OK(stack.leader->Record(stack.data.instance(100),
                                      stack.data.label(100)));
    options.breaker.failure_threshold = 2;
    options.explain_interceptor = [this](size_t backend) {
      ++dispatches[backend];
    };
    group = stack.MakeGroup(options);
  }

  /// One admitted Explain, then six that the leader must shed: each comes
  /// back as the leader's shed, hint intact, from the leader alone.
  void ExpectShedsAreAnswers() {
    auto admitted = group->Explain(stack.data.instance(0), stack.data.label(0));
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    EXPECT_EQ(admitted->backend, 0u);
    for (int i = 0; i < 6; ++i) {
      auto shed = group->Explain(stack.data.instance(0), stack.data.label(0));
      ASSERT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
          << i << ": " << shed.status().ToString();
      EXPECT_GT(ParseRetryAfterMs(shed.status()), 0) << i;
    }
    EXPECT_EQ(group->Health().backends[0].breaker,
              CircuitBreaker::State::kClosed);
    EXPECT_EQ(dispatches[0], 7);
    EXPECT_EQ(dispatches[1], 0) << "a shed is never failed over";
  }
};

TEST(ServingGroupTest, LeaderShedsNeitherTripTheBreakerNorFailOver) {
  ServingGroup::Options options;
  options.hedge = false;
  ShedStack shed(options);
  shed.ExpectShedsAreAnswers();
}

TEST(ServingGroupTest, LeaderShedIsNotFailedOverByTheHedgeRace) {
  // A head start far longer than any shed: the primary has always
  // answered when the race decides whether to fail over.
  ServingGroup::Options options;
  options.hedge_min_delay = std::chrono::milliseconds(60000);
  options.hedge_max_delay = std::chrono::milliseconds(60000);
  ShedStack shed(options);
  shed.ExpectShedsAreAnswers();
  EXPECT_EQ(shed.group->Health().hedges, 0u);
}

TEST(ServingGroupTest, BreakerOpensOnPersistentBackendFailure) {
  // An empty replica (nothing ever shipped) fails every Explain with
  // kFailedPrecondition; with the leader evicted the group has only that
  // broken backend, so its breaker must open and fail fast.
  Dataset data = cce::testing::RandomContext(64, 4, 3, 12, /*noise=*/0.1);
  cce::testing::ScopedTestDir tmp;
  const std::string empty_ship = tmp.File("empty_ship");
  ExplainableProxy::Options leader_options;
  leader_options.monitor_drift = false;
  auto leader_or =
      ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
  CCE_CHECK_OK(leader_or.status());
  ReplicaProxy::Options replica_options;
  replica_options.ship_dir = empty_ship;
  auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
  CCE_CHECK_OK(replica_or.status());

  ServingGroup::Options options;
  options.hedge = false;
  options.breaker.failure_threshold = 3;
  auto group_or = ServingGroup::Create(
      (*leader_or).get(), {(*replica_or).get()}, options);
  CCE_CHECK_OK(group_or.status());
  ServingGroup& group = **group_or;
  group.EvictBackend(0);

  for (int i = 0; i < 3; ++i) {
    auto result = group.Explain(data.instance(0), data.label(0));
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition) << i;
  }
  ServingGroup::GroupHealth health = group.Health();
  EXPECT_EQ(health.backends[1].breaker, CircuitBreaker::State::kOpen);
  auto shed = group.Explain(data.instance(0), data.label(0));
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
}

TEST(ServingGroupTest, LoneBatchItemIsHedgedLikeAScalarExplain) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge_min_delay = std::chrono::milliseconds(1);
  options.hedge_max_delay = std::chrono::milliseconds(2);
  options.explain_interceptor = [](size_t backend) {
    if (backend == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
  };
  auto group = stack.MakeGroup(options);
  group->RefreshProbes();

  auto expected =
      stack.leader->Explain(stack.data.instance(5), stack.data.label(5));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::vector<BatchQuery> items = {
      {stack.data.instance(5), stack.data.label(5), Deadline::Infinite()}};
  auto results = group->ExplainBatch(items);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->backend, 1u);
  EXPECT_TRUE(results[0]->hedged);
  EXPECT_FALSE(results[0]->key.degraded);
  ExpectSameKey(results[0]->key, *expected);
  EXPECT_GE(group->Health().hedge_wins, 1u);
}

TEST(ServingGroupTest, BatchFailsOverToReplicaWhenLeaderEvicted) {
  GroupStack stack;
  ServingGroup::Options options;
  auto group = stack.MakeGroup(options);
  group->EvictBackend(0);
  group->RefreshProbes();

  std::vector<BatchQuery> items;
  for (size_t row = 0; row < 5; ++row) {
    items.push_back({stack.data.instance(row), stack.data.label(row),
                     Deadline::Infinite()});
  }
  auto results = group->ExplainBatch(items);
  ASSERT_EQ(results.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto expected = stack.leader->Explain(items[i].x, items[i].y);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->backend, 1u) << i;
    EXPECT_FALSE(results[i]->hedged) << i;
    EXPECT_FALSE(results[i]->key.degraded) << i;
    EXPECT_EQ(results[i]->view_seq, stack.leader->PublishedSequence()) << i;
    ExpectSameKey(results[i]->key, *expected);
  }
  EXPECT_EQ(group->Health().hedges, 0u);
}

TEST(ServingGroupTest, BatchOnAReplicaIsOneReplicaCall) {
  // A batch routed to a replica is one ReplicaProxy::ExplainBatch: one
  // latency sample for the call, one explain count per item.
  GroupStack stack;
  auto group = stack.MakeGroup(ServingGroup::Options{});
  group->EvictBackend(0);
  group->RefreshProbes();
  obs::Registry& registry = stack.replica->registry();
  obs::Histogram* latency =
      registry.GetHistogram("cce_replica_explain_latency_us", "");
  obs::Counter* explains = registry.GetCounter("cce_replica_explains_total", "");
  const uint64_t calls_before = latency->TakeSnapshot().count;
  const uint64_t items_before = explains->Value();

  std::vector<BatchQuery> items;
  for (size_t row = 0; row < 5; ++row) {
    items.push_back({stack.data.instance(row), stack.data.label(row),
                     Deadline::Infinite()});
  }
  auto results = group->ExplainBatch(items);
  EXPECT_EQ(latency->TakeSnapshot().count - calls_before, 1u);
  EXPECT_EQ(explains->Value() - items_before, items.size());
  ASSERT_EQ(results.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto expected = stack.leader->Explain(items[i].x, items[i].y);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->backend, 1u) << i;
    ExpectSameKey(results[i]->key, *expected);
  }
}

TEST(ServingGroupTest, AllMalformedBatchLeavesHalfOpenBreakerHalfOpen) {
  // An empty leader fails every Explain with kFailedPrecondition: one
  // failure trips its breaker, and after the cooldown the next dispatch is
  // a half-open probe. A probe whose every item is malformed says nothing
  // about the backend, so it must neither close nor re-open the breaker.
  Dataset data = cce::testing::RandomContext(64, 4, 3, 13, /*noise=*/0.1);
  ExplainableProxy::Options leader_options;
  leader_options.monitor_drift = false;
  auto leader_or =
      ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
  CCE_CHECK_OK(leader_or.status());
  auto now = std::chrono::steady_clock::time_point{};
  ServingGroup::Options options;
  options.policy = RoutePolicy::kLeaderOnly;
  options.breaker.failure_threshold = 1;
  options.breaker.successes_to_close = 1;
  options.clock = [&now] { return now; };
  auto group_or = ServingGroup::Create((*leader_or).get(), {}, options);
  CCE_CHECK_OK(group_or.status());
  ServingGroup& group = **group_or;

  auto failed = group.Explain(data.instance(0), data.label(0));
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_EQ(group.Health().backends[0].breaker,
            CircuitBreaker::State::kOpen);

  now += options.breaker.open_cooldown;
  const std::vector<BatchQuery> malformed = {
      {Instance(2), data.label(0), Deadline::Infinite()},
      {Instance(7), data.label(1), Deadline::Infinite()}};
  auto results = group.ExplainBatch(malformed);
  ASSERT_EQ(results.size(), malformed.size());
  for (const auto& result : results) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(group.Health().backends[0].breaker,
            CircuitBreaker::State::kHalfOpen);
}

TEST(ServingGroupTest, HealthReflectsEvictionAndFreshness) {
  GroupStack stack;
  ServingGroup::Options options;
  options.hedge = false;
  auto group = stack.MakeGroup(options);

  ServingGroup::GroupHealth health = group->Health();
  ASSERT_EQ(health.backends.size(), 2u);
  EXPECT_TRUE(health.fully_healthy);
  EXPECT_TRUE(health.backends[0].is_leader);
  EXPECT_EQ(health.backends[1].lag_seq, 0u);

  group->EvictBackend(1);
  health = group->Health();
  EXPECT_TRUE(health.backends[1].evicted);
  EXPECT_FALSE(health.fully_healthy);
  group->ReadmitBackend(1);

  // A replica left behind the leader drops out of fully_healthy too.
  CCE_CHECK_OK(stack.leader->Record(stack.data.instance(120),
                                    stack.data.label(120)));
  health = group->Health();
  EXPECT_FALSE(health.backends[1].healthy);
  EXPECT_GT(health.backends[1].lag_seq, 0u);
  EXPECT_FALSE(health.fully_healthy);
}

}  // namespace
}  // namespace cce::serving
