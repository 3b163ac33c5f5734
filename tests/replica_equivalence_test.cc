#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "core/osrk.h"
#include "core/srk.h"
#include "core/ssrk.h"
#include "io/env.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// The replication determinism contract: a ReplicaProxy caught up to the
/// leader's published sequence serves the *bit-identical* explanation
/// artefacts (SRK keys from Explain, OSRK/SSRK keys maintained over the
/// served context) at any shard count — including after leader
/// compactions, a follower restart, and a torn shipped segment healed by
/// quarantine -> resync -> re-converge.

std::unique_ptr<ExplainableProxy> MakeLeader(const Dataset& data,
                                             size_t shards,
                                             const std::string& dir,
                                             size_t capacity = 0,
                                             uint64_t compact_bytes = 0) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = shards;
  options.context_capacity = capacity;
  options.durability.dir = dir;
  options.durability.sync_every = 1;
  options.durability.compact_threshold_bytes = compact_bytes;
  auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(proxy.status());
  return std::move(proxy).value();
}

std::unique_ptr<ReplicaProxy> MakeReplica(const Dataset& data,
                                          const std::string& ship_dir,
                                          size_t capacity = 0) {
  ReplicaProxy::Options options;
  options.ship_dir = ship_dir;
  options.context_capacity = capacity;
  auto replica = ReplicaProxy::Create(data.schema_ptr(), options);
  CCE_CHECK_OK(replica.status());
  return std::move(replica).value();
}

void ExpectSameContext(const Context& leader, const Context& replica,
                       const std::string& what) {
  ASSERT_EQ(leader.size(), replica.size()) << what;
  for (size_t row = 0; row < leader.size(); ++row) {
    ASSERT_EQ(leader.instance(row), replica.instance(row))
        << what << " row " << row;
    ASSERT_EQ(leader.label(row), replica.label(row))
        << what << " row " << row;
  }
}

void ExpectBitIdenticalKeys(ExplainableProxy& leader, ReplicaProxy& replica,
                            const Dataset& data, size_t probes,
                            const std::string& what) {
  for (size_t probe = 0; probe < probes; ++probe) {
    auto expected = leader.Explain(data.instance(probe), data.label(probe));
    auto actual = replica.Explain(data.instance(probe), data.label(probe));
    ASSERT_TRUE(expected.ok()) << what << ": " << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << what << ": " << actual.status().ToString();
    EXPECT_EQ(actual->key, expected->key) << what << " probe " << probe;
    EXPECT_EQ(actual->pick_order, expected->pick_order)
        << what << " probe " << probe;
    EXPECT_EQ(actual->achieved_alpha, expected->achieved_alpha)
        << what << " probe " << probe
        << " (bitwise double equality, not approximate)";
    EXPECT_EQ(actual->satisfied, expected->satisfied)
        << what << " probe " << probe;
  }
}

/// OSRK consumes randomness per arrival and SSRK accumulates floats in
/// arrival order: bit-identical keys require the replica to reproduce the
/// exact merged arrival order, not just the same row set.
void ExpectSameStreamingKeys(ExplainableProxy& leader, ReplicaProxy& replica,
                             const Dataset& data, const std::string& what) {
  const Instance& x0 = data.instance(0);
  const Label y0 = data.label(0);
  const Context contexts[2] = {leader.ContextSnapshot(),
                               replica.ContextSnapshot()};
  for (int alg = 0; alg < 2; ++alg) {
    FeatureSet keys[2];
    double alphas[2] = {0.0, 0.0};
    for (int p = 0; p < 2; ++p) {
      const Context& merged = contexts[p];
      if (alg == 0) {
        Osrk::Options options;
        options.seed = 7;
        auto osrk = Osrk::Create(data.schema_ptr(), x0, y0, options);
        CCE_CHECK_OK(osrk.status());
        for (size_t row = 0; row < merged.size(); ++row) {
          (*osrk)->Observe(merged.instance(row), merged.label(row));
        }
        keys[p] = (*osrk)->key();
        alphas[p] = (*osrk)->achieved_alpha();
      } else {
        auto ssrk = Ssrk::Create(data, x0, y0, {});
        CCE_CHECK_OK(ssrk.status());
        for (size_t row = 0; row < merged.size(); ++row) {
          (*ssrk)->Observe(merged.instance(row), merged.label(row));
        }
        keys[p] = (*ssrk)->key();
        alphas[p] = (*ssrk)->achieved_alpha();
      }
    }
    EXPECT_EQ(keys[0], keys[1])
        << what << " " << (alg == 0 ? "OSRK" : "SSRK");
    EXPECT_EQ(alphas[0], alphas[1])
        << what << " " << (alg == 0 ? "OSRK" : "SSRK");
  }
}

TEST(ReplicaEquivalenceTest, CaughtUpReplicaIsBitIdenticalAcrossShardCounts) {
  cce::testing::ScopedTestDir tmp;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = "repl_eq_" + std::to_string(shards);
    const std::string leader_dir = tmp.File(tag + "_leader");
    const std::string ship_dir = tmp.File(tag + "_ship");
    Dataset data = cce::testing::RandomContext(150, 5, 3, 11, /*noise=*/0.1);
    auto leader = MakeLeader(data, shards, leader_dir);
    for (size_t row = 0; row < data.size(); ++row) {
      CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
    }

    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir;
    ship_options.ship_dir = ship_dir;
    ship_options.shards = leader->num_shards();
    ShardLogShipper shipper(ship_options);
    const uint64_t published = leader->PublishedSequence();
    EXPECT_EQ(published, data.size());
    CCE_CHECK_OK(shipper.Ship(published));

    auto replica = MakeReplica(data, ship_dir);
    EXPECT_EQ(replica->published_seq(), published);
    ReplicaProxy::Health health = replica->GetHealth();
    EXPECT_FALSE(health.degraded);
    EXPECT_EQ(health.lag_seq, 0u);

    const std::string what = "shards=" + std::to_string(shards);
    ExpectSameContext(leader->ContextSnapshot(), replica->ContextSnapshot(),
                      what);
    ExpectBitIdenticalKeys(*leader, *replica, data, 12, what);
    ExpectSameStreamingKeys(*leader, *replica, data, what);
  }
}

TEST(ReplicaEquivalenceTest, CompactionRestartAndIncrementalTailAgree) {
  cce::testing::ScopedTestDir tmp;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = "repl_compact_" + std::to_string(shards);
    const std::string leader_dir = tmp.File(tag + "_leader");
    const std::string ship_dir = tmp.File(tag + "_ship");
    Dataset data = cce::testing::RandomContext(220, 5, 3, 57, /*noise=*/0.1);
    // A tiny compaction threshold forces several generation changes while
    // recording; a capacity forces real eviction on both sides.
    auto leader = MakeLeader(data, shards, leader_dir, /*capacity=*/64,
                             /*compact_bytes=*/2 * 1024);

    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir;
    ship_options.ship_dir = ship_dir;
    ship_options.shards = leader->num_shards();
    ShardLogShipper shipper(ship_options);

    // Interleave recording with ship cycles so the replica exercises the
    // incremental tail path (same generation, new frames) and the
    // re-bootstrap path (generation changed under compaction).
    auto replica = MakeReplica(data, ship_dir, /*capacity=*/64);
    for (size_t row = 0; row < data.size(); ++row) {
      CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
      if (row % 40 == 39) {
        CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
        CCE_CHECK_OK(replica->CatchUp());
      }
    }
    CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
    CCE_CHECK_OK(replica->CatchUp());
    CCE_CHECK_OK(replica->Scrub());

    const std::string what = "compaction shards=" + std::to_string(shards);
    EXPECT_EQ(replica->published_seq(), data.size()) << what;
    ExpectSameContext(leader->ContextSnapshot(), replica->ContextSnapshot(),
                      what);
    ExpectBitIdenticalKeys(*leader, *replica, data, 10, what);
    ExpectSameStreamingKeys(*leader, *replica, data, what);

    // Follower restart: a fresh replica on the same ship directory
    // bootstraps to the identical view.
    auto restarted = MakeReplica(data, ship_dir, /*capacity=*/64);
    EXPECT_EQ(restarted->published_seq(), replica->published_seq());
    ExpectSameContext(replica->ContextSnapshot(),
                      restarted->ContextSnapshot(), what + " restart");
    ExpectBitIdenticalKeys(*leader, *restarted, data, 6, what + " restart");
  }
}

TEST(ReplicaEquivalenceTest, TornShippedSegmentQuarantinesThenReconverges) {
  cce::testing::ScopedTestDir tmp;
  const size_t kShards = 4;
  const std::string leader_dir = tmp.File("repl_torn_leader");
  const std::string ship_dir = tmp.File("repl_torn_ship");
  Dataset data = cce::testing::RandomContext(160, 5, 3, 91, /*noise=*/0.1);
  auto leader = MakeLeader(data, kShards, leader_dir);

  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = kShards;
  ShardLogShipper shipper(ship_options);

  // Phase 1: ship half the traffic and catch the replica up cleanly.
  for (size_t row = 0; row < 80; ++row) {
    CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
  }
  CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
  auto replica = MakeReplica(data, ship_dir);
  const uint64_t clean_view = replica->published_seq();
  EXPECT_EQ(clean_view, 80u);
  const Context clean_context = replica->ContextSnapshot();

  // Phase 2: more leader traffic, ship, then tear one shipped segment
  // behind the manifest's back (shorter than the bytes it promises).
  for (size_t row = 80; row < data.size(); ++row) {
    CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
  }
  CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
  {
    io::Env* env = io::Env::Default();
    const std::string victim = ship_dir + "/shard.2.wal";
    std::string content;
    CCE_CHECK_OK(env->ReadFileToString(victim, &content));
    ASSERT_GT(content.size(), 8u);
    content.resize(content.size() - 5);
    auto torn = env->NewTruncatedFile(victim);
    CCE_CHECK_OK(torn.status());
    CCE_CHECK_OK((*torn)->Append(content));
    CCE_CHECK_OK((*torn)->Close());
  }

  // The torn shard's tail quarantines; the other shards apply, but the
  // view holds at the old watermark — stale, consistent, degraded.
  CCE_CHECK_OK(replica->CatchUp());
  ReplicaProxy::Health health = replica->GetHealth();
  EXPECT_TRUE(health.degraded);
  ASSERT_EQ(health.tails.size(), kShards);
  EXPECT_TRUE(health.tails[2].quarantined);
  EXPECT_EQ(health.tails[2].cause, "wal");
  EXPECT_EQ(replica->published_seq(), clean_view)
      << "a quarantined tail must hold the view, not skew it";
  EXPECT_GT(health.lag_seq, 0u) << "staleness must be visible";
  ExpectSameContext(clean_context, replica->ContextSnapshot(),
                    "quarantined view");
  auto degraded_key =
      replica->Explain(data.instance(0), data.label(0));
  ASSERT_TRUE(degraded_key.ok());
  EXPECT_TRUE(degraded_key->degraded)
      << "serving from a quarantined replication path must say so";

  // Phase 3: the next ship cycle rewrites the shipped files; the replica
  // resyncs the torn shard and re-converges to the leader bit-for-bit.
  CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
  CCE_CHECK_OK(replica->CatchUp());
  health = replica->GetHealth();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.lag_seq, 0u);
  EXPECT_EQ(replica->published_seq(), data.size());
  ExpectSameContext(leader->ContextSnapshot(), replica->ContextSnapshot(),
                    "re-converged");
  ExpectBitIdenticalKeys(*leader, *replica, data, 10, "re-converged");
  ExpectSameStreamingKeys(*leader, *replica, data, "re-converged");

  // ForceResync (the runbook's big hammer) lands in the same place.
  CCE_CHECK_OK(replica->ForceResync());
  EXPECT_EQ(replica->published_seq(), data.size());
  ExpectSameContext(leader->ContextSnapshot(), replica->ContextSnapshot(),
                    "forced resync");
}

TEST(ReplicaEquivalenceTest, RowsInViewCountsTheServedWindow) {
  // Without a compaction the shipped WALs still hold every evicted row, so
  // far more rows sit below the watermark than a capacity-bounded replica
  // serves. Health().rows_in_view reports the served window.
  cce::testing::ScopedTestDir tmp;
  const std::string leader_dir = tmp.File("leader");
  const std::string ship_dir = tmp.File("ship");
  Dataset data = cce::testing::RandomContext(100, 5, 3, 17, /*noise=*/0.1);
  auto leader = MakeLeader(data, /*shards=*/4, leader_dir, /*capacity=*/50);
  for (size_t row = 0; row < data.size(); ++row) {
    CCE_CHECK_OK(leader->Record(data.instance(row), data.label(row)));
  }
  ShardLogShipper::Options ship_options;
  ship_options.source_dir = leader_dir;
  ship_options.ship_dir = ship_dir;
  ship_options.shards = leader->num_shards();
  ShardLogShipper shipper(ship_options);
  CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));

  auto replica = MakeReplica(data, ship_dir, /*capacity=*/50);
  ASSERT_EQ(replica->published_seq(), data.size());
  EXPECT_EQ(replica->ContextSnapshot().size(), 50u);
  EXPECT_EQ(replica->GetHealth().rows_in_view, 50u);
  ExpectSameContext(leader->ContextSnapshot(), replica->ContextSnapshot(),
                    "capacity window");
}

/// Queries over recorded rows, some with one value perturbed (possibly to
/// a value the window does not hold), under either label.
std::vector<BatchQuery> MakeQueries(const Dataset& data, Rng* rng,
                                    size_t count) {
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    BatchQuery query;
    query.x = data.instance(rng->Uniform(data.size()));
    if (rng->Bernoulli(0.3)) {
      const size_t feature = rng->Uniform(query.x.size());
      query.x[feature] = static_cast<ValueId>(
          rng->Uniform(data.schema().DomainSize(feature)));
    }
    query.y = static_cast<Label>(rng->Uniform(2));
    query.deadline = Deadline::Infinite();
    queries.push_back(std::move(query));
  }
  return queries;
}

/// The replica's ExplainBatch, split into random batches, against the
/// reference engine (Srk's sorted-merge loop) on the replica's own view.
void ExpectReplicaMatchesReference(const ReplicaProxy& replica,
                                   const std::vector<BatchQuery>& queries,
                                   double alpha, Rng* rng,
                                   const std::string& what) {
  const Context view = replica.ContextSnapshot();
  const bool degraded = replica.GetHealth().degraded;
  std::vector<Result<KeyResult>> keys;
  for (size_t begin = 0; begin < queries.size();) {
    const size_t end = begin + 1 + rng->Uniform(queries.size() - begin);
    for (auto& key : replica.ExplainBatch(std::vector<BatchQuery>(
             queries.begin() + static_cast<std::ptrdiff_t>(begin),
             queries.begin() + static_cast<std::ptrdiff_t>(end)))) {
      keys.push_back(std::move(key));
    }
    begin = end;
  }
  ASSERT_EQ(keys.size(), queries.size()) << what;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string label = what + " query " + std::to_string(q);
    if (view.size() == 0) {
      EXPECT_EQ(keys[q].status().code(), StatusCode::kFailedPrecondition)
          << label;
      continue;
    }
    Srk::Options options;
    options.alpha = alpha;
    auto want = Srk::ExplainInstance(view, queries[q].x, queries[q].y,
                                     options);
    ASSERT_TRUE(want.ok()) << label;
    ASSERT_TRUE(keys[q].ok()) << label << ": " << keys[q].status().ToString();
    EXPECT_EQ(keys[q]->key, want->key) << label;
    EXPECT_EQ(keys[q]->pick_order, want->pick_order) << label;
    EXPECT_EQ(keys[q]->achieved_alpha, want->achieved_alpha) << label;
    EXPECT_EQ(keys[q]->satisfied, want->satisfied) << label;
    EXPECT_EQ(keys[q]->degraded, want->degraded || degraded) << label;
  }
}

TEST(ReplicaEquivalenceTest, SeededInterleavingsMatchReferenceEngine) {
  // The replica's fed view is maintained incrementally across every kind
  // of change the replication path sees: leader Records past the capacity,
  // compactions into new generations, ship cycles, catch-ups, scrubs,
  // forced resyncs and restarts on the same ship directory. After every
  // step its keys must equal the reference engine on its own view, and a
  // replica at the leader's sequence must serve the leader's context and
  // keys.
  cce::testing::ScopedTestDir tmp;
  constexpr size_t kCapacity = 96;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = "interleave_" + std::to_string(shards);
    const std::string leader_dir = tmp.File(tag + "_leader");
    const std::string ship_dir = tmp.File(tag + "_ship");
    const double alpha = shards == 1 ? 1.0 : 0.9;
    Dataset data =
        cce::testing::RandomContext(1500, 6, 3, 60 + shards, /*noise=*/0.2);

    ExplainableProxy::Options leader_options;
    leader_options.monitor_drift = false;
    leader_options.shards = shards;
    leader_options.alpha = alpha;
    leader_options.context_capacity = kCapacity;
    leader_options.durability.dir = leader_dir;
    leader_options.durability.sync_every = 0;
    // A small log limit makes compactions part of ordinary Record traffic.
    leader_options.durability.compact_threshold_bytes = 2 * 1024;
    auto leader_or =
        ExplainableProxy::Create(data.schema_ptr(), nullptr, leader_options);
    CCE_CHECK_OK(leader_or.status());
    ExplainableProxy& leader = **leader_or;

    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir;
    ship_options.ship_dir = ship_dir;
    ship_options.shards = shards;
    ShardLogShipper shipper(ship_options);

    ReplicaProxy::Options replica_options;
    replica_options.ship_dir = ship_dir;
    replica_options.context_capacity = kCapacity;
    replica_options.alpha = alpha;
    auto open_replica = [&] {
      auto replica = ReplicaProxy::Create(data.schema_ptr(), replica_options);
      CCE_CHECK_OK(replica.status());
      return std::move(replica).value();
    };
    std::unique_ptr<ReplicaProxy> replica = open_replica();

    // Nothing shipped yet: the view is empty. A valid item is answered
    // kFailedPrecondition and a malformed one kInvalidArgument.
    const auto empty = replica->ExplainBatch(
        {{data.instance(0), data.label(0), Deadline::Infinite()},
         {Instance(2), data.label(0), Deadline::Infinite()}});
    ASSERT_EQ(empty.size(), 2u);
    EXPECT_EQ(empty[0].status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(empty[1].status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(replica->Counterfactuals(data.instance(0), data.label(0))
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(replica->Counterfactuals(Instance(2), data.label(0))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    Rng rng(977 + shards);
    size_t next_row = 0;
    size_t restarts = 0;
    size_t resyncs = 0;
    size_t in_step = 0;
    uint64_t newest_generation = 0;
    for (int step = 0; step < 60; ++step) {
      const std::string what = tag + " step " + std::to_string(step);
      switch (rng.Uniform(8)) {
        case 0:
          for (size_t i = 1 + rng.Uniform(8); i > 0; --i, ++next_row) {
            CCE_CHECK_OK(leader.Record(data.instance(next_row % data.size()),
                                       data.label(next_row % data.size())));
          }
          break;
        case 1:
          // Past the capacity: the window slides all the way and every
          // shard's log crosses the compaction threshold.
          for (size_t i = kCapacity + rng.Uniform(64); i > 0;
               --i, ++next_row) {
            CCE_CHECK_OK(leader.Record(data.instance(next_row % data.size()),
                                       data.label(next_row % data.size())));
          }
          break;
        case 2:
        case 3:
          CCE_CHECK_OK(shipper.Ship(leader.PublishedSequence()));
          break;
        case 4:
        case 5:
          CCE_CHECK_OK(replica->CatchUp());
          break;
        case 6:
          if (rng.Bernoulli(0.5)) {
            CCE_CHECK_OK(replica->Scrub());
          } else {
            CCE_CHECK_OK(replica->ForceResync());
            ++resyncs;
          }
          break;
        default:
          replica.reset();
          replica = open_replica();
          ++restarts;
          break;
      }
      for (const auto& tail : replica->GetHealth().tails) {
        newest_generation = std::max(newest_generation, tail.base);
      }
      ExpectReplicaMatchesReference(*replica, MakeQueries(data, &rng, 5),
                                    alpha, &rng, what);
      if (replica->published_seq() == leader.PublishedSequence()) {
        ++in_step;
        ExpectSameContext(leader.ContextSnapshot(),
                          replica->ContextSnapshot(), what);
        const std::vector<BatchQuery> queries = MakeQueries(data, &rng, 4);
        const auto want = leader.ExplainBatch(queries);
        const auto got = replica->ExplainBatch(queries);
        for (size_t q = 0; q < queries.size(); ++q) {
          ASSERT_EQ(want[q].ok(), got[q].ok()) << what << " query " << q;
          if (!want[q].ok()) continue;
          EXPECT_EQ(got[q]->key, want[q]->key) << what << " query " << q;
          EXPECT_EQ(got[q]->pick_order, want[q]->pick_order) << what;
          EXPECT_EQ(got[q]->achieved_alpha, want[q]->achieved_alpha) << what;
          EXPECT_EQ(got[q]->satisfied, want[q]->satisfied) << what;
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The seeds are chosen so that every kind of step happened.
    EXPECT_GT(leader.Health().wal_compactions, 0u) << tag;
    EXPECT_GT(newest_generation, 0u) << tag << ": no new generation applied";
    EXPECT_GT(restarts, 0u) << tag;
    EXPECT_GT(resyncs, 0u) << tag;
    EXPECT_GT(in_step, 0u) << tag;
    EXPECT_GT(next_row, 2 * kCapacity) << tag;
  }
}

}  // namespace
}  // namespace cce::serving
