// The determinism contract of SRK's two engines (docs/algorithms.md
// "Determinism contract"): on the same context, the sorted-merge loop and
// the bitset greedy (parallel_conformity, the greedy every served key runs
// over shard-index slices) return identical keys, field for field. Also
// unit tests of RowBitmap, the shard index's storage unit. The shard index
// itself is checked bit for bit in tests/shard_index_test.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/row_bitmap.h"
#include "core/srk.h"
#include "tests/test_util.h"

namespace cce {
namespace {

// ------------------------------------------------------------- RowBitmap

/// The set bits of `bits`, ascending, read straight from its words.
std::vector<size_t> SetRows(const RowBitmap& bits) {
  std::vector<size_t> rows;
  for (size_t w = 0; w < bits.num_words(); ++w) {
    for (size_t b = 0; b < 64; ++b) {
      if ((bits.data()[w] >> b) & 1) rows.push_back(64 * w + b);
    }
  }
  return rows;
}

TEST(RowBitmapTest, SetTestClearCount) {
  RowBitmap bits(200);
  EXPECT_EQ(bits.num_words(), 4u);
  EXPECT_TRUE(SetRows(bits).empty());
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  bits.Set(63);  // setting twice is idempotent
  EXPECT_EQ(SetRows(bits), (std::vector<size_t>{0, 63, 64, 199}));
}

TEST(RowBitmapTest, ResizePreservesAndClearsTail) {
  RowBitmap bits(70);
  for (size_t row = 0; row < 70; ++row) bits.Set(row);
  EXPECT_EQ(SetRows(bits).size(), 70u);
  bits.Resize(130);
  EXPECT_EQ(SetRows(bits).size(), 70u);  // new rows arrive clear
  bits.Resize(65);
  EXPECT_EQ(SetRows(bits).size(), 65u);  // shrink drops the tail bits
  bits.Resize(128);
  EXPECT_EQ(SetRows(bits).size(), 65u);  // dropped bits stay dropped
}

TEST(RowBitmapTest, DropLeadingWordsShiftsRowsDown) {
  RowBitmap bits(256);
  bits.Set(3);
  bits.Set(64);
  bits.Set(130);
  bits.Set(255);
  bits.DropLeadingWords(1);
  EXPECT_EQ(bits.num_words(), 4u);  // the row count is unchanged
  EXPECT_EQ(SetRows(bits), (std::vector<size_t>{0, 66, 191}));
  bits.DropLeadingWords(4);  // every word: all rows gone
  EXPECT_TRUE(SetRows(bits).empty());
}

// -------------------------------------------------- SRK key equivalence

TEST(EngineEquivalenceTest, SrkKeysIdenticalAcrossEngines) {
  for (uint64_t seed : {5u, 6u, 7u, 8u}) {
    Dataset context = testing::RandomContext(800, 10, 4, seed);
    for (double alpha : {1.0, 0.95, 0.8}) {
      for (size_t row : {size_t{0}, context.size() / 2, context.size() - 1}) {
        Srk::Options serial;
        serial.alpha = alpha;
        auto want = Srk::Explain(context, row, serial);
        ASSERT_TRUE(want.ok());

        Srk::Options bitset;
        bitset.alpha = alpha;
        bitset.parallel_conformity = true;
        auto got = Srk::Explain(context, row, bitset);
        ASSERT_TRUE(got.ok());
        const std::string what = "seed " + std::to_string(seed) + " alpha " +
                                 std::to_string(alpha) + " row " +
                                 std::to_string(row);
        EXPECT_EQ(want->key, got->key) << what;
        EXPECT_EQ(want->pick_order, got->pick_order) << what;
        EXPECT_EQ(want->achieved_alpha, got->achieved_alpha) << what;
        EXPECT_EQ(want->satisfied, got->satisfied) << what;
        EXPECT_EQ(want->degraded, got->degraded) << what;
      }
    }
  }
}

}  // namespace
}  // namespace cce
