#include "io/context_wal.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "io/fault_env.h"
#include "tests/test_util.h"

namespace cce::io {
namespace {

using RecordList = std::vector<std::pair<Instance, Label>>;

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

/// Opens `path` collecting every salvaged record; recovery must never fail.
RecordList Recover(const std::string& path,
                   ContextWal::RecoveryStats* stats = nullptr,
                   std::unique_ptr<ContextWal>* wal_out = nullptr) {
  RecordList records;
  auto collect = [&records](uint64_t, const Instance& x, Label y) {
    records.emplace_back(x, y);
    return Status::Ok();
  };
  auto wal = ContextWal::Open(path, {}, collect, stats);
  CCE_CHECK_OK(wal.status());
  if (wal_out != nullptr) *wal_out = std::move(wal).value();
  return records;
}

Instance MakeInstance(size_t i) {
  return {static_cast<ValueId>(i), static_cast<ValueId>(2 * i + 1),
          static_cast<ValueId>(100 + i)};
}

/// Writes `count` records into a fresh log at `path` and returns them.
RecordList BuildLog(const std::string& path, size_t count,
                    size_t sync_every = 1) {
  std::remove(path.c_str());
  ContextWal::Options options;
  options.sync_every = sync_every;
  auto wal = ContextWal::Open(path, options, nullptr, nullptr);
  CCE_CHECK_OK(wal.status());
  RecordList records;
  for (size_t i = 0; i < count; ++i) {
    records.emplace_back(MakeInstance(i), static_cast<Label>(i % 3));
    CCE_CHECK_OK(
        (*wal)->Append(records.back().first, records.back().second, i));
  }
  return records;
}

TEST(ContextWalTest, AppendReplayRoundTrip) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_roundtrip.wal");
  RecordList written = BuildLog(path, 10);
  ContextWal::RecoveryStats stats;
  RecordList replayed = Recover(path, &stats);
  EXPECT_EQ(replayed, written);
  EXPECT_EQ(stats.records_recovered, 10u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.bytes_discarded, 0u);
}

TEST(ContextWalTest, FreshLogIsEmpty) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_fresh.wal");
  ContextWal::RecoveryStats stats;
  std::unique_ptr<ContextWal> wal;
  RecordList replayed = Recover(path, &stats, &wal);
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_GT(wal->size_bytes(), 0u) << "header must be on disk";
}

TEST(ContextWalTest, SyncPolicyControlsFsyncCadence) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_sync.wal");
  for (size_t sync_every : {size_t{1}, size_t{4}, size_t{0}}) {
    std::remove(path.c_str());
    ContextWal::Options options;
    options.sync_every = sync_every;
    auto wal = ContextWal::Open(path, options, nullptr, nullptr);
    CCE_CHECK_OK(wal.status());
    for (size_t i = 0; i < 8; ++i) {
      CCE_CHECK_OK((*wal)->Append(MakeInstance(i), 0, i));
    }
    // +1: opening a fresh log syncs the generation header once, under
    // every policy — the generation start itself must be durable.
    const uint64_t expected =
        1 + (sync_every == 0 ? 0u : 8u / static_cast<uint64_t>(sync_every));
    EXPECT_EQ((*wal)->fsyncs(), expected) << "sync_every=" << sync_every;
    CCE_CHECK_OK((*wal)->Sync());
    EXPECT_EQ((*wal)->fsyncs(), expected + 1) << "on-demand Sync";
  }
}

TEST(ContextWalTest, ResetStartsANewGenerationWithTheGivenBase) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_reset.wal");
  BuildLog(path, 6);
  std::unique_ptr<ContextWal> wal;
  Recover(path, nullptr, &wal);
  CCE_CHECK_OK(wal->Reset(6));
  EXPECT_EQ(wal->base_recorded(), 6u);
  CCE_CHECK_OK(wal->Append(MakeInstance(99), 1, 6));
  wal.reset();

  ContextWal::RecoveryStats stats;
  RecordList replayed = Recover(path, &stats);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, MakeInstance(99));
  EXPECT_EQ(stats.base_recorded, 6u);
  EXPECT_EQ(stats.records_dropped, 0u);
}

TEST(ContextWalTest, AppendAfterRecoveryContinuesTheChain) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_continue.wal");
  RecordList written = BuildLog(path, 5);
  {
    std::unique_ptr<ContextWal> wal;
    RecordList replayed = Recover(path, nullptr, &wal);
    EXPECT_EQ(replayed, written);
    written.emplace_back(MakeInstance(50), 2);
    CCE_CHECK_OK(
        wal->Append(written.back().first, written.back().second, 50));
  }
  EXPECT_EQ(Recover(path), written);
}

/// Corruption-injection harness: every truncation point of a sample log
/// must salvage exactly the records whose frames are fully intact —
/// recovery never fails, and no partial frame is ever surfaced.
TEST(ContextWalCorruptionTest, EveryTruncationPointSalvagesTheIntactPrefix) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_trunc_src.wal");
  const std::string victim = dir.File("wal_trunc.wal");
  const size_t kRecords = 8;
  RecordList written = BuildLog(path, kRecords);
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 24u);
  const size_t frame_size = (bytes.size() - 24) / kRecords;

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFileBytes(victim, bytes.substr(0, cut));
    ContextWal::RecoveryStats stats;
    RecordList replayed = Recover(victim, &stats);

    // Salvaged = the number of complete frames before the cut.
    const size_t expected =
        cut < 24 ? 0 : std::min(kRecords, (cut - 24) / frame_size);
    ASSERT_EQ(replayed.size(), expected) << "cut at byte " << cut;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(replayed[i], written[i]) << "cut at byte " << cut;
    }
    if (cut < bytes.size() && expected < kRecords &&
        (cut < 24 ? cut > 0 : (cut - 24) % frame_size != 0)) {
      EXPECT_GE(stats.records_dropped, 1u)
          << "a torn tail must be reported, cut at byte " << cut;
    }
    // The salvage truncation leaves a log that recovers identically.
    EXPECT_EQ(Recover(victim).size(), expected) << "cut at byte " << cut;
  }
}

/// Every single-bit flip must be caught: recovery returns OK with a strict
/// prefix of the original records and never accepts a mutated record.
TEST(ContextWalCorruptionTest, EverySingleBitFlipIsRejectedNotResurrected) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_flip_src.wal");
  const std::string victim = dir.File("wal_flip.wal");
  const size_t kRecords = 6;
  RecordList written = BuildLog(path, kRecords);
  const std::string bytes = ReadFileBytes(path);

  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      WriteFileBytes(victim, flipped);
      ContextWal::RecoveryStats stats;
      RecordList replayed = Recover(victim, &stats);

      ASSERT_LT(replayed.size(), written.size())
          << "flip at byte " << byte << " bit " << bit
          << " went undetected";
      for (size_t i = 0; i < replayed.size(); ++i) {
        ASSERT_EQ(replayed[i], written[i])
            << "corrupt record surfaced after flip at byte " << byte;
      }
      EXPECT_GE(stats.records_dropped, 1u)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

/// A duplicated tail block is checksum-valid but out of sequence: recovery
/// must keep the original records and drop the replayed copy.
TEST(ContextWalCorruptionTest, DuplicatedTailBlockIsDropped) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_dup.wal");
  const size_t kRecords = 5;
  RecordList written = BuildLog(path, kRecords);
  const std::string bytes = ReadFileBytes(path);
  const size_t frame_size = (bytes.size() - 24) / kRecords;
  const std::string last_frame = bytes.substr(bytes.size() - frame_size);
  WriteFileBytes(path, bytes + last_frame);

  ContextWal::RecoveryStats stats;
  RecordList replayed = Recover(path, &stats);
  EXPECT_EQ(replayed, written);
  EXPECT_GE(stats.records_dropped, 1u);
  EXPECT_EQ(stats.bytes_discarded, frame_size);
}

/// Garbage instead of a log (wrong magic, random bytes) restarts cleanly.
TEST(ContextWalCorruptionTest, ForeignFileRestartsTheLog) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_foreign.wal");
  WriteFileBytes(path, "this is not a wal at all, not even close\n");
  ContextWal::RecoveryStats stats;
  std::unique_ptr<ContextWal> wal;
  RecordList replayed = Recover(path, &stats, &wal);
  EXPECT_TRUE(replayed.empty());
  EXPECT_GE(stats.records_dropped, 1u);
  EXPECT_GT(stats.bytes_discarded, 0u);
  // The restarted log is fully functional.
  CCE_CHECK_OK(wal->Append(MakeInstance(1), 0, 0));
  wal.reset();
  EXPECT_EQ(Recover(path).size(), 1u);
}

/// The fsyncgate discipline: after a failed fsync the kernel may have
/// dropped the dirty pages, so the log must refuse to accept (and claim
/// durability for) anything more until it is rewritten from scratch.
TEST(ContextWalPoisonTest, FailedFsyncPoisonsUntilReset) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_poison.wal");
  FaultInjectingEnv fault(Env::Default());
  ContextWal::Options options;
  options.env = &fault;
  auto wal = ContextWal::Open(path, options, nullptr, nullptr);
  CCE_CHECK_OK(wal.status());
  CCE_CHECK_OK((*wal)->Append(MakeInstance(0), 0, 0));

  fault.FailNextSync();
  // The frame lands but the cadence fsync fails: the append must not
  // report OK, and the log is poisoned from here on.
  EXPECT_EQ((*wal)->Append(MakeInstance(1), 0, 1).code(),
            StatusCode::kIoError);
  ASSERT_TRUE((*wal)->poisoned());

  // No append, no sync, no retry: everything fails fast while poisoned.
  Status refused = (*wal)->Append(MakeInstance(2), 0, 2);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("poisoned"), std::string::npos);
  EXPECT_EQ((*wal)->Sync().code(), StatusCode::kFailedPrecondition);

  // Reset rewrites the log on a fresh handle and clears the poisoning.
  CCE_CHECK_OK((*wal)->Reset(1));
  EXPECT_FALSE((*wal)->poisoned());
  CCE_CHECK_OK((*wal)->Append(MakeInstance(3), 1, 3));
  wal->reset();

  ContextWal::RecoveryStats stats;
  RecordList replayed = Recover(path, &stats);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, MakeInstance(3));
  EXPECT_EQ(stats.base_recorded, 1u);
}

/// A failed append rolls the file back to the previous frame boundary; if
/// that rollback truncation *also* fails, a torn frame may be on disk and
/// the log poisons itself rather than appending after garbage.
TEST(ContextWalPoisonTest, FailedRollbackAfterTornAppendPoisons) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_rollback.wal");
  FaultInjectingEnv fault(Env::Default());
  ContextWal::Options options;
  options.env = &fault;
  auto wal = ContextWal::Open(path, options, nullptr, nullptr);
  CCE_CHECK_OK(wal.status());
  CCE_CHECK_OK((*wal)->Append(MakeInstance(0), 0, 0));

  fault.TearNextAppend(/*keep_bytes=*/5);
  fault.FailNextTruncate();  // the rollback fails too
  EXPECT_FALSE((*wal)->Append(MakeInstance(1), 0, 1).ok());
  EXPECT_TRUE((*wal)->poisoned());
  EXPECT_EQ((*wal)->Append(MakeInstance(2), 0, 2).code(),
            StatusCode::kFailedPrecondition);

  // Recovery still salvages the intact prefix behind the torn frame.
  wal->reset();
  ContextWal::RecoveryStats stats;
  RecordList replayed = Recover(path, &stats);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, MakeInstance(0));
  EXPECT_GE(stats.records_dropped, 1u);
}

/// A failed append whose rollback *succeeds* leaves a clean, unpoisoned
/// log: the next append lands on the previous frame boundary.
TEST(ContextWalPoisonTest, SuccessfulRollbackKeepsTheLogClean) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_clean_rollback.wal");
  FaultInjectingEnv fault(Env::Default());
  ContextWal::Options options;
  options.env = &fault;
  auto wal = ContextWal::Open(path, options, nullptr, nullptr);
  CCE_CHECK_OK(wal.status());
  CCE_CHECK_OK((*wal)->Append(MakeInstance(0), 0, 0));
  const uint64_t size_before = (*wal)->size_bytes();

  fault.TearNextAppend(/*keep_bytes=*/3);
  EXPECT_FALSE((*wal)->Append(MakeInstance(1), 0, 1).ok());
  EXPECT_FALSE((*wal)->poisoned());
  EXPECT_EQ((*wal)->size_bytes(), size_before) << "rolled back";
  CCE_CHECK_OK((*wal)->Append(MakeInstance(2), 1, 2));
  wal->reset();

  RecordList replayed = Recover(path);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].first, MakeInstance(0));
  EXPECT_EQ(replayed[1].first, MakeInstance(2));
}

TEST(ContextWalTest, OversizedInstanceIsRejected) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_oversize.wal");
  std::unique_ptr<ContextWal> wal;
  Recover(path, nullptr, &wal);
  Instance huge((1u << 24) / 4 + 1, 0);
  EXPECT_EQ(wal->Append(huge, 0, 0).code(), StatusCode::kInvalidArgument);
}

/// Sequence numbers are caller-supplied and sparse (a sharded owner logs
/// only its own slice of the global order): gaps round-trip verbatim, and
/// a non-increasing sequence is rejected before touching the file.
TEST(ContextWalTest, SparseSequencesRoundTripAndStayMonotonic) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("wal_sparse.wal");
  {
    auto wal = ContextWal::Open(path, {}, nullptr, nullptr);
    CCE_CHECK_OK(wal.status());
    CCE_CHECK_OK((*wal)->Append(MakeInstance(0), 0, 5));
    CCE_CHECK_OK((*wal)->Append(MakeInstance(1), 1, 9));
    CCE_CHECK_OK((*wal)->Append(MakeInstance(2), 2, 1000));
    EXPECT_EQ((*wal)->Append(MakeInstance(3), 0, 1000).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*wal)->Append(MakeInstance(3), 0, 999).code(),
              StatusCode::kInvalidArgument);
    CCE_CHECK_OK((*wal)->Append(MakeInstance(3), 0, 1001));
  }
  std::vector<uint64_t> seqs;
  auto collect = [&seqs](uint64_t seq, const Instance&, Label) {
    seqs.push_back(seq);
    return Status::Ok();
  };
  auto wal = ContextWal::Open(path, {}, collect, nullptr);
  CCE_CHECK_OK(wal.status());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{5, 9, 1000, 1001}));
  // The recovered writer continues the monotonic chain.
  EXPECT_EQ((*wal)->Append(MakeInstance(4), 0, 7).code(),
            StatusCode::kInvalidArgument);
  CCE_CHECK_OK((*wal)->Append(MakeInstance(4), 0, 4096));
}

}  // namespace
}  // namespace cce::io
