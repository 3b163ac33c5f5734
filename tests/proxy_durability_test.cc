#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "ml/gbdt.h"
#include "serving/context_shard.h"
#include "serving/proxy.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ProxyDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_unique<Dataset>(
        cce::testing::RandomContext(400, 5, 3, 99, /*noise=*/0.0));
  }

  /// A fresh durability directory, unique per test.
  std::string MakeDir(const std::string& tag) { return tmp_.File(tag); }

  ExplainableProxy::Options DurableOptions(const std::string& dir,
                                           size_t sync_every = 1) {
    ExplainableProxy::Options options;
    options.monitor_drift = false;
    options.durability.dir = dir;
    options.durability.sync_every = sync_every;
    return options;
  }

  std::unique_ptr<Dataset> data_;
  cce::testing::ScopedTestDir tmp_;
};

TEST_F(ProxyDurabilityTest, KillRecoverRoundTripPreservesTheExplanation) {
  const std::string dir = MakeDir("kill_recover");
  const size_t kRecords = 60;
  const Instance& x0 = data_->instance(0);
  const Label y0 = data_->label(0);
  KeyResult key_before{};

  {
    auto proxy = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
    ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();
    for (size_t row = 0; row < kRecords; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
    auto key = (*proxy)->Explain(x0, y0);
    ASSERT_TRUE(key.ok());
    key_before = *key;
    // The proxy is dropped here with no clean-shutdown call: neither the
    // proxy nor the WAL flushes anything in a destructor, so this is
    // equivalent to a crash as far as the durability machinery goes. With
    // sync_every=1 every record was fsync-durable before Record returned.
  }

  auto revived = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recorded(), kRecords);
  HealthSnapshot health = (*revived)->Health();
  EXPECT_EQ(health.wal_records_recovered, kRecords);
  EXPECT_EQ(health.wal_records_dropped, 0u);
  EXPECT_GE(health.wal_compactions, 1u)
      << "recovery folds the replayed log into a fresh snapshot";

  Context snapshot = (*revived)->ContextSnapshot();
  ASSERT_EQ(snapshot.size(), kRecords);
  for (size_t row = 0; row < kRecords; ++row) {
    EXPECT_EQ(snapshot.instance(row), data_->instance(row));
    EXPECT_EQ(snapshot.label(row), data_->label(row));
  }

  auto key_after = (*revived)->Explain(x0, y0);
  ASSERT_TRUE(key_after.ok());
  EXPECT_EQ(key_after->key, key_before.key)
      << "the recovered context must yield the same relative key";
  EXPECT_EQ(key_after->achieved_alpha, key_before.achieved_alpha);
}

TEST_F(ProxyDurabilityTest, ModelServedTrafficSurvivesRestart) {
  const std::string dir = MakeDir("model_restart");
  ml::Gbdt::Options gbdt_options;
  gbdt_options.num_trees = 20;
  auto model = ml::Gbdt::Train(*data_, gbdt_options);
  CCE_CHECK_OK(model.status());

  {
    auto proxy = ExplainableProxy::Create(data_->schema_ptr(), model->get(),
                                          DurableOptions(dir));
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 40; ++row) {
      ASSERT_TRUE((*proxy)->Predict(data_->instance(row)).ok());
    }
  }

  // Day 2: the model is gone; the recovered context still explains.
  auto revived = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->recorded(), 40u);
  const Instance& x0 = data_->instance(0);
  const Label y0 = (*model)->Predict(x0);
  auto key = (*revived)->Explain(x0, y0);
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(key->satisfied);
}

TEST_F(ProxyDurabilityTest, CorruptLogTailIsSalvagedNotFatal) {
  const std::string dir = MakeDir("corrupt_tail");
  {
    auto proxy = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 20; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
  }
  // A torn final write: garbage lands on the log tail.
  const std::string wal = dir + "/context.wal";
  WriteFileBytes(wal, ReadFileBytes(wal) + "\x07garbage-torn-tail");

  auto revived = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recorded(), 20u);
  HealthSnapshot health = (*revived)->Health();
  EXPECT_EQ(health.wal_records_recovered, 20u);
  EXPECT_GE(health.wal_records_dropped, 1u);
}

TEST_F(ProxyDurabilityTest, MidLogBitFlipSalvagesThePrefix) {
  const std::string dir = MakeDir("bit_flip");
  {
    auto proxy = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 20; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
  }
  const std::string wal = dir + "/context.wal";
  std::string bytes = ReadFileBytes(wal);
  // 24-byte header, then frames of 8 + 16 + 4*5 bytes (5 features).
  const size_t frame_size = (bytes.size() - 24) / 20;
  const size_t flip_at = 24 + 10 * frame_size + frame_size / 2;
  ASSERT_LT(flip_at, bytes.size());
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x10);
  WriteFileBytes(wal, bytes);

  auto revived = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->recorded(), 10u)
      << "records before the flipped frame survive, the rest are dropped";
  Context snapshot = (*revived)->ContextSnapshot();
  ASSERT_EQ(snapshot.size(), 10u);
  for (size_t row = 0; row < 10; ++row) {
    EXPECT_EQ(snapshot.instance(row), data_->instance(row));
  }
  EXPECT_GE((*revived)->Health().wal_records_dropped, 1u);
}

TEST_F(ProxyDurabilityTest, CompactionBoundsTheLogAndPreservesTotals) {
  const std::string dir = MakeDir("compaction");
  ExplainableProxy::Options options = DurableOptions(dir);
  options.context_capacity = 16;
  options.durability.compact_threshold_bytes = 512;
  {
    auto proxy =
        ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 100; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
    HealthSnapshot health = (*proxy)->Health();
    EXPECT_GE(health.wal_compactions, 2u);
    EXPECT_LE((*proxy)->Health().wal_records_logged, 100u);
  }

  auto revived =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->recorded(), 100u)
      << "the total survives even though only the window is retained";
  Context snapshot = (*revived)->ContextSnapshot();
  ASSERT_EQ(snapshot.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(snapshot.instance(i), data_->instance(100 - 16 + i));
  }
}

TEST_F(ProxyDurabilityTest, RecordRejectsLabelsOutsideTheDictionary) {
  const std::string dir = MakeDir("bad_label");
  auto proxy = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                        DurableOptions(dir));
  ASSERT_TRUE(proxy.ok());
  // The schema has 2 labels; 7 would poison the context and the log.
  EXPECT_EQ((*proxy)->Record(data_->instance(0), 7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*proxy)->recorded(), 0u);
  EXPECT_EQ((*proxy)->Health().wal_records_logged, 0u);
  CCE_CHECK_OK((*proxy)->Record(data_->instance(0), 1));
  EXPECT_EQ((*proxy)->recorded(), 1u);
}

TEST_F(ProxyDurabilityTest, ForeignSchemaDirectoryIsRejected) {
  const std::string dir = MakeDir("schema_clash");
  {
    auto proxy = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 8; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
  }
  // Force a snapshot into the directory so the schema check sees it.
  {
    auto again = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
    ASSERT_TRUE(again.ok());
    ASSERT_GE((*again)->Health().wal_compactions, 1u);
  }
  Dataset other =
      cce::testing::RandomContext(10, 3, 2, 7);  // different feature space
  auto clash = ExplainableProxy::Create(other.schema_ptr(), nullptr,
                                        DurableOptions(dir));
  EXPECT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProxyDurabilityTest, DisabledDurabilityTouchesNoFiles) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(proxy.ok());
  CCE_CHECK_OK((*proxy)->Record(data_->instance(0), data_->label(0)));
  HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.wal_records_logged, 0u);
  EXPECT_EQ(health.wal_fsyncs, 0u);
  EXPECT_EQ(health.wal_compactions, 0u);
}

TEST_F(ProxyDurabilityTest, StartupSweepRemovesOrphanTmpFiles) {
  const std::string dir = MakeDir("tmp_sweep");
  {
    auto proxy = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
    ASSERT_TRUE(proxy.ok());
    CCE_CHECK_OK((*proxy)->Record(data_->instance(0), data_->label(0)));
  }
  // A crashed compaction leaves temp files between create and rename.
  WriteFileBytes(dir + "/context.snapshot.tmp.999.1", "half a snapshot");
  WriteFileBytes(dir + "/context.snapshot.tmp.999.2", "");

  auto revived = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir));
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->Health().tmp_orphans_removed, 2u);
  EXPECT_FALSE(
      io::Env::Default()->FileExists(dir + "/context.snapshot.tmp.999.1"));
  EXPECT_FALSE(
      io::Env::Default()->FileExists(dir + "/context.snapshot.tmp.999.2"));
  EXPECT_EQ((*revived)->recorded(), 1u)
      << "the sweep must not touch live generation files";
}

TEST_F(ProxyDurabilityTest, QuarantinedShardDegradesServingNotCreate) {
  const std::string dir = MakeDir("quarantine");
  const size_t kShards = 4;
  ExplainableProxy::Options options = DurableOptions(dir);
  options.shards = kShards;
  {
    auto proxy =
        ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 40; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
  }
  // Corrupt shard 1's snapshot header beyond salvage.
  WriteFileBytes(dir + "/context.1.snapshot", "CCESNAP 1\ncovers zaphod\n");

  auto revived =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(revived.ok())
      << "shard damage must degrade serving, not fail Create: "
      << revived.status().ToString();
  ExplainableProxy& proxy = **revived;

  HealthSnapshot health = proxy.Health();
  EXPECT_EQ(health.shards_quarantined, 1u);
  EXPECT_TRUE(health.degraded_context);
  ASSERT_EQ(health.shards.size(), kShards);
  EXPECT_EQ(health.shards[1].state, ContextShard::State::kQuarantined);
  EXPECT_FALSE(health.shards[1].quarantine_reason.empty());

  // Traffic routed to the quarantined shard is refused with kUnavailable;
  // every other shard keeps accepting.
  size_t refused = 0;
  size_t accepted = 0;
  for (size_t row = 40; row < 120; ++row) {
    Status recorded = proxy.Record(data_->instance(row), data_->label(row));
    const size_t shard =
        ContextShard::ShardFor(data_->instance(row), kShards);
    if (shard == 1) {
      EXPECT_EQ(recorded.code(), StatusCode::kUnavailable)
          << recorded.ToString();
      ++refused;
    } else {
      EXPECT_TRUE(recorded.ok()) << recorded.ToString();
      ++accepted;
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(proxy.Health().quarantine_drops, refused);

  // Explanations still come back, flagged as degraded, and are not cached.
  auto key = proxy.Explain(data_->instance(0), data_->label(0));
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_TRUE(key->degraded)
      << "a key computed over a partial context must say so";
  EXPECT_FALSE(key->cached);

  // RepairShard re-admits the shard with a fresh, empty generation.
  CCE_CHECK_OK(proxy.RepairShard(1));
  health = proxy.Health();
  EXPECT_EQ(health.shards_quarantined, 0u);
  EXPECT_FALSE(health.degraded_context);
  EXPECT_EQ(health.shards[1].state, ContextShard::State::kActive);
  EXPECT_EQ(health.shard_repairs, 1u);
  for (size_t row = 40; row < 120; ++row) {
    if (ContextShard::ShardFor(data_->instance(row), kShards) == 1) {
      CCE_CHECK_OK(proxy.Record(data_->instance(row), data_->label(row)));
    }
  }
  auto healed = proxy.Explain(data_->instance(0), data_->label(0));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->degraded);

  // Out-of-range repair is an error, not a crash.
  EXPECT_EQ(proxy.RepairShard(kShards).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ProxyDurabilityTest, MultiShardRestartRoundTrip) {
  const std::string dir = MakeDir("multi_shard");
  ExplainableProxy::Options options = DurableOptions(dir);
  options.shards = 4;
  const size_t kRecords = 60;
  KeyResult key_before{};
  {
    auto proxy =
        ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < kRecords; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
    auto key = (*proxy)->Explain(data_->instance(0), data_->label(0));
    ASSERT_TRUE(key.ok());
    key_before = *key;
  }

  auto revived =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recorded(), kRecords);
  Context snapshot = (*revived)->ContextSnapshot();
  ASSERT_EQ(snapshot.size(), kRecords);
  for (size_t row = 0; row < kRecords; ++row) {
    EXPECT_EQ(snapshot.instance(row), data_->instance(row))
        << "merged-by-sequence recovery must reproduce arrival order";
    EXPECT_EQ(snapshot.label(row), data_->label(row));
  }
  auto key_after = (*revived)->Explain(data_->instance(0), data_->label(0));
  ASSERT_TRUE(key_after.ok());
  EXPECT_EQ(key_after->key, key_before.key);
  EXPECT_EQ(key_after->achieved_alpha, key_before.achieved_alpha);
}

TEST_F(ProxyDurabilityTest, ShrinkingShardCountAdoptsOrphanShardFiles) {
  const std::string dir = MakeDir("shard_shrink");
  const size_t kRecords = 40;
  {
    ExplainableProxy::Options options = DurableOptions(dir);
    options.shards = 4;
    auto proxy =
        ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < kRecords; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
  }

  ExplainableProxy::Options narrow = DurableOptions(dir);
  narrow.shards = 2;
  auto revived =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, narrow);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  Context snapshot = (*revived)->ContextSnapshot();
  EXPECT_EQ(snapshot.size(), kRecords)
      << "rows from shards 2 and 3 must be re-logged through live shards";
  // Every original row is present exactly once (order may differ: adopted
  // rows are appended after the live shards' recovered windows).
  for (size_t row = 0; row < kRecords; ++row) {
    size_t copies = 0;
    for (size_t got = 0; got < snapshot.size(); ++got) {
      if (snapshot.instance(got) == data_->instance(row) &&
          snapshot.label(got) == data_->label(row)) {
        ++copies;
      }
    }
    EXPECT_GE(copies, 1u) << "row " << row << " lost during adoption";
  }
  EXPECT_FALSE(io::Env::Default()->FileExists(dir + "/context.2.wal"))
      << "adopted shard files are removed";
  EXPECT_FALSE(io::Env::Default()->FileExists(dir + "/context.3.wal"));
  EXPECT_FALSE(io::Env::Default()->FileExists(dir + "/context.2.snapshot"));
  EXPECT_FALSE(io::Env::Default()->FileExists(dir + "/context.3.snapshot"));

  // The adopted rows are durable: a further restart sees all of them.
  auto again =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, narrow);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->ContextSnapshot().size(), kRecords);
}

TEST_F(ProxyDurabilityTest, FailedCompactionKeepsPreviousGenerationReadable) {
  const std::string dir = MakeDir("failed_compaction");
  io::FaultInjectingEnv fault(io::Env::Default());
  ExplainableProxy::Options options = DurableOptions(dir);
  options.durability.compact_threshold_bytes = 256;  // compact eagerly
  options.durability.env = &fault;
  const size_t kRecords = 30;
  {
    auto proxy =
        ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();
    // Only the snapshot save renames; the WAL appends in place. Arming a
    // one-shot rename EIO therefore fails exactly the first compaction
    // while every Record keeps succeeding against the previous
    // generation's WAL.
    fault.FailNextRename();
    for (size_t row = 0; row < kRecords; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
    HealthSnapshot health = (*proxy)->Health();
    EXPECT_GE(health.compaction_failures, 1u)
        << "the injected rename EIO must have failed one snapshot save";
    EXPECT_GE(health.wal_compactions, 1u)
        << "later compactions succeed once the fault clears";
    EXPECT_EQ(health.shards_quarantined, 0u)
        << "a failed compaction is not fatal to the shard";
    EXPECT_EQ(health.shards_read_only, 0u);
  }

  auto revived =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recorded(), kRecords)
      << "the previous snapshot+WAL generation stayed fully readable";
}

TEST_F(ProxyDurabilityTest, SyncNeverStillRecoversWrittenRecords) {
  // sync_every=0 never fsyncs, but the write(2)s are visible to a process
  // restart (only an OS crash could lose them) — the weakest, fastest rung.
  const std::string dir = MakeDir("sync_never");
  {
    auto proxy = ExplainableProxy::Create(
        data_->schema_ptr(), nullptr, DurableOptions(dir, /*sync_every=*/0));
    ASSERT_TRUE(proxy.ok());
    for (size_t row = 0; row < 12; ++row) {
      CCE_CHECK_OK((*proxy)->Record(data_->instance(row),
                                    data_->label(row)));
    }
    // Exactly one fsync: the generation header written at open. No
    // per-record syncing happened.
    EXPECT_EQ((*proxy)->Health().wal_fsyncs, 1u);
  }
  auto revived = ExplainableProxy::Create(data_->schema_ptr(), nullptr,
                                          DurableOptions(dir, 0));
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->recorded(), 12u);
}

}  // namespace
}  // namespace cce::serving
