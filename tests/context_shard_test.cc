#include "serving/context_shard.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "io/env.h"
#include "io/fault_env.h"
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

class ContextShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_unique<Dataset>(
        cce::testing::RandomContext(100, 4, 2, 31, /*noise=*/0.0));
  }

  std::string MakeDir(const std::string& tag) {
    const std::string dir = tmp_.File(tag);
    CCE_CHECK_OK(io::Env::Default()->CreateDir(dir));
    return dir;
  }

  ContextShard::Options ShardOptions(const std::string& dir,
                                     io::Env* env = nullptr) {
    ContextShard::Options options;
    options.wal_path = dir + "/context.wal";
    options.snapshot_path = dir + "/context.snapshot";
    options.env = env;
    options.compact_threshold_bytes = 0;  // tests compact explicitly
    return options;
  }

  std::unique_ptr<Dataset> data_;
  cce::testing::ScopedTestDir tmp_;
};

TEST_F(ContextShardTest, RecordRecoverRoundTrip) {
  const std::string dir = MakeDir("roundtrip");
  std::atomic<uint64_t> seq{0};
  {
    ContextShard shard(data_->schema_ptr(), ShardOptions(dir), {});
    CCE_CHECK_OK(shard.Recover(&seq));
    for (size_t i = 0; i < 20; ++i) {
      CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
    }
    EXPECT_EQ(shard.total_recorded(), 20u);
    EXPECT_EQ(shard.window_size(), 20u);
    EXPECT_EQ(shard.front_seq(), 0u);
  }
  std::atomic<uint64_t> seq2{0};
  ContextShard revived(data_->schema_ptr(), ShardOptions(dir), {});
  CCE_CHECK_OK(revived.Recover(&seq2));
  EXPECT_EQ(revived.state(), ContextShard::State::kActive);
  EXPECT_EQ(revived.total_recorded(), 20u);
  std::vector<ContextShard::Row> rows;
  revived.SnapshotInto(&rows);
  ASSERT_EQ(rows.size(), 20u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].x, data_->instance(i));
    EXPECT_EQ(rows[i].y, data_->label(i));
    EXPECT_EQ(rows[i].seq, i) << "replay order assigns fresh global seqs";
  }
}

TEST_F(ContextShardTest, TornCompactionDoesNotDuplicateRows) {
  const std::string dir = MakeDir("torn_compaction");
  std::atomic<uint64_t> seq{0};
  std::string pre_compaction_wal;
  {
    ContextShard shard(data_->schema_ptr(), ShardOptions(dir), {});
    CCE_CHECK_OK(shard.Recover(&seq));
    for (size_t i = 0; i < 12; ++i) {
      CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
    }
    pre_compaction_wal = ReadFileBytes(dir + "/context.wal");
    CCE_CHECK_OK(shard.Compact());
  }
  // Reconstruct the crash window between the snapshot rename and the WAL
  // reset: the snapshot says "covers 12" while the log still holds those
  // 12 frames.
  WriteFileBytes(dir + "/context.wal", pre_compaction_wal);

  std::atomic<uint64_t> seq2{0};
  ContextShard revived(data_->schema_ptr(), ShardOptions(dir), {});
  CCE_CHECK_OK(revived.Recover(&seq2));
  EXPECT_EQ(revived.state(), ContextShard::State::kActive);
  EXPECT_EQ(revived.total_recorded(), 12u)
      << "frames the snapshot already covers must not be double-counted";
  std::vector<ContextShard::Row> rows;
  revived.SnapshotInto(&rows);
  ASSERT_EQ(rows.size(), 12u) << "no duplicated rows after torn compaction";
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].x, data_->instance(i));
  }
}

TEST_F(ContextShardTest, UnreadableFilesQuarantineNotFail) {
  const std::string dir = MakeDir("quarantine");
  std::atomic<uint64_t> seq{0};
  {
    ContextShard shard(data_->schema_ptr(), ShardOptions(dir), {});
    CCE_CHECK_OK(shard.Recover(&seq));
    for (size_t i = 0; i < 8; ++i) {
      CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
    }
  }
  io::FaultInjectingEnv fault(io::Env::Default());
  fault.FailNextRead();  // EIO on the first recovery read
  ContextShard revived(data_->schema_ptr(), ShardOptions(dir, &fault), {});
  // I/O damage must not fail recovery — it quarantines instead.
  CCE_CHECK_OK(revived.Recover(&seq));
  EXPECT_EQ(revived.state(), ContextShard::State::kQuarantined);
  EXPECT_FALSE(revived.quarantine_reason().empty());
  EXPECT_EQ(revived.window_size(), 0u);

  Status refused = revived.Record(data_->instance(0), data_->label(0), &seq);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("RepairShard"), std::string::npos);
}

TEST_F(ContextShardTest, CorruptSnapshotQuarantinesAndRepairRestores) {
  const std::string dir = MakeDir("repair");
  std::atomic<uint64_t> seq{0};
  {
    ContextShard shard(data_->schema_ptr(), ShardOptions(dir), {});
    CCE_CHECK_OK(shard.Recover(&seq));
    for (size_t i = 0; i < 8; ++i) {
      CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
    }
    CCE_CHECK_OK(shard.Compact());
  }
  WriteFileBytes(dir + "/context.snapshot", "CCESNAP 1\ncovers zero\n");

  ContextShard revived(data_->schema_ptr(), ShardOptions(dir), {});
  CCE_CHECK_OK(revived.Recover(&seq));
  ASSERT_EQ(revived.state(), ContextShard::State::kQuarantined);

  EXPECT_EQ(revived.Repair().code(), StatusCode::kOk);
  EXPECT_EQ(revived.state(), ContextShard::State::kActive);
  EXPECT_TRUE(revived.quarantine_reason().empty());
  EXPECT_EQ(revived.total_recorded(), 0u) << "repair starts a fresh "
                                             "generation";
  CCE_CHECK_OK(revived.Record(data_->instance(0), data_->label(0), &seq));
  EXPECT_EQ(revived.total_recorded(), 1u);
  // Repairing a healthy shard is an error.
  EXPECT_EQ(revived.Repair().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ContextShardTest, FailedFsyncPoisonsThenCompactionHeals) {
  const std::string dir = MakeDir("fsyncgate");
  io::FaultInjectingEnv fault(io::Env::Default());
  std::atomic<uint64_t> seq{0};
  ContextShard shard(data_->schema_ptr(), ShardOptions(dir, &fault), {});
  CCE_CHECK_OK(shard.Recover(&seq));
  for (size_t i = 0; i < 5; ++i) {
    CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
  }

  fault.FailNextSync();
  Status not_durable =
      shard.Record(data_->instance(5), data_->label(5), &seq);
  // With sync_every=1 the failed fsync surfaces through the append itself.
  EXPECT_EQ(not_durable.code(), StatusCode::kIoError);
  EXPECT_EQ(shard.state(), ContextShard::State::kReadOnly);
  EXPECT_TRUE(shard.wal_poisoned());
  EXPECT_EQ(shard.total_recorded(), 5u)
      << "a record that may not be on disk must not count as recorded";

  // The next Record first rewrites the log via compaction, then succeeds.
  CCE_CHECK_OK(shard.Record(data_->instance(5), data_->label(5), &seq));
  EXPECT_EQ(shard.state(), ContextShard::State::kActive);
  EXPECT_FALSE(shard.wal_poisoned());
  EXPECT_EQ(shard.total_recorded(), 6u);

  // And the healed generation recovers everything.
  std::atomic<uint64_t> seq2{0};
  ContextShard revived(data_->schema_ptr(), ShardOptions(dir), {});
  CCE_CHECK_OK(revived.Recover(&seq2));
  EXPECT_EQ(revived.total_recorded(), 6u);
}

TEST_F(ContextShardTest, FailedSnapshotSaveLeavesPreviousGenerationReadable) {
  const std::string dir = MakeDir("enospc");
  io::FaultInjectingEnv fault(io::Env::Default());
  std::atomic<uint64_t> seq{0};
  ContextShard shard(data_->schema_ptr(), ShardOptions(dir, &fault), {});
  CCE_CHECK_OK(shard.Recover(&seq));
  for (size_t i = 0; i < 10; ++i) {
    CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
  }
  CCE_CHECK_OK(shard.Compact());  // snapshot covers 10, fresh log
  for (size_t i = 10; i < 15; ++i) {
    CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
  }

  // ENOSPC during the snapshot rewrite: compaction fails, but the
  // previous snapshot and the current log generation stay intact.
  fault.ExhaustSpaceAfter(4);
  EXPECT_FALSE(shard.Compact().ok());
  fault.ReplenishSpace();
  EXPECT_EQ(shard.state(), ContextShard::State::kActive)
      << "a failed compaction is not a durability failure";

  std::atomic<uint64_t> seq2{0};
  ContextShard revived(data_->schema_ptr(), ShardOptions(dir), {});
  CCE_CHECK_OK(revived.Recover(&seq2));
  EXPECT_EQ(revived.state(), ContextShard::State::kActive);
  EXPECT_EQ(revived.total_recorded(), 15u)
      << "every record from before the failed compaction is recovered";
  std::vector<ContextShard::Row> rows;
  revived.SnapshotInto(&rows);
  ASSERT_EQ(rows.size(), 15u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].x, data_->instance(i));
  }
}

TEST_F(ContextShardTest, InMemoryShardNeedsNoFiles) {
  std::atomic<uint64_t> seq{0};
  ContextShard shard(data_->schema_ptr(), ContextShard::Options{}, {});
  CCE_CHECK_OK(shard.Recover(&seq));
  for (size_t i = 0; i < 4; ++i) {
    CCE_CHECK_OK(shard.Record(data_->instance(i), data_->label(i), &seq));
  }
  EXPECT_EQ(shard.window_size(), 4u);
  EXPECT_FALSE(shard.wal_poisoned());
  EXPECT_TRUE(shard.PopFront());
  EXPECT_EQ(shard.window_size(), 3u);
  EXPECT_EQ(shard.front_seq(), 1u);
}

TEST_F(ContextShardTest, ShardForIsStableAndInRange) {
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t i = 0; i < data_->size(); ++i) {
      const size_t first = ContextShard::ShardFor(data_->instance(i),
                                                  num_shards);
      EXPECT_LT(first, num_shards);
      EXPECT_EQ(first, ContextShard::ShardFor(data_->instance(i),
                                              num_shards));
    }
  }
  // With several shards, a varied dataset must not all hash to one shard.
  std::vector<size_t> hits(4, 0);
  for (size_t i = 0; i < data_->size(); ++i) {
    ++hits[ContextShard::ShardFor(data_->instance(i), 4)];
  }
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0u), 0)
      << "FNV-1a routing left a shard empty on 100 varied instances";
}

}  // namespace
}  // namespace cce::serving
