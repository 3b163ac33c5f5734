// The determinism contract of the bitset conformity engine: for the same
// logical context, the sorted-row-id engine and the blocked bitset engine
// return identical answers — counts, row lists, and above all the *keys*
// SRK produces. Any divergence here is a bug by definition
// (docs/algorithms.md "Determinism contract").

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/bitset_conformity.h"
#include "core/conformity.h"
#include "core/row_bitmap.h"
#include "core/srk.h"
#include "tests/test_util.h"

namespace cce {
namespace {

// ------------------------------------------------------------- RowBitmap

TEST(RowBitmapTest, SetTestClearCount) {
  RowBitmap bits(200);
  EXPECT_EQ(bits.Count(), 0u);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_FALSE(bits.Test(62));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Clear(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
  EXPECT_EQ(bits.ToRows(), (std::vector<size_t>{0, 64, 199}));
}

TEST(RowBitmapTest, ResizePreservesAndClearsTail) {
  RowBitmap bits(70);
  for (size_t row = 0; row < 70; ++row) bits.Set(row);
  EXPECT_EQ(bits.Count(), 70u);
  bits.Resize(130);
  EXPECT_EQ(bits.Count(), 70u);  // new rows arrive clear
  bits.Resize(65);
  EXPECT_EQ(bits.Count(), 65u);  // shrink drops the tail bits
  bits.Resize(128);
  EXPECT_EQ(bits.Count(), 65u);  // dropped bits stay dropped
}

// ------------------------------------- checker parity on random contexts

/// Exercises every query of both engines on the same (x0, y0, E) and fails
/// on the first divergence.
void ExpectCheckersAgree(const ConformityChecker& reference,
                         const BitsetConformityChecker& bitset,
                         const Instance& x0, Label y0, const FeatureSet& e,
                         const std::string& what) {
  EXPECT_EQ(reference.AgreeingRows(x0, e), bitset.AgreeingRows(x0, e))
      << what;
  EXPECT_EQ(reference.CountViolators(x0, y0, e),
            bitset.CountViolators(x0, y0, e))
      << what;
  EXPECT_EQ(reference.Precision(x0, y0, e), bitset.Precision(x0, y0, e))
      << what;
  EXPECT_EQ(reference.CoveredRows(x0, y0, e), bitset.CoveredRows(x0, y0, e))
      << what;
  for (double alpha : {1.0, 0.9, 0.5, 0.0}) {
    EXPECT_EQ(reference.ViolatorBudget(alpha), bitset.ViolatorBudget(alpha))
        << what << " alpha=" << alpha;
    EXPECT_EQ(reference.IsAlphaConformant(x0, y0, e, alpha),
              bitset.IsAlphaConformant(x0, y0, e, alpha))
        << what << " alpha=" << alpha;
  }
}

TEST(BitsetParityTest, RandomizedQueriesAgreeWithReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Dataset context = testing::RandomContext(600, 8, 4, seed);
    ConformityChecker reference(&context);
    BitsetConformityChecker bitset(&context);
    Rng rng(seed * 101);
    for (int q = 0; q < 50; ++q) {
      Instance x0 = context.instance(rng.Uniform(context.size()));
      if (rng.Bernoulli(0.3)) {
        x0[rng.Uniform(x0.size())] = static_cast<ValueId>(rng.Uniform(4));
      }
      const Label y0 = static_cast<Label>(rng.Uniform(2));
      FeatureSet e;
      for (FeatureId f = 0; f < 8; ++f) {
        if (rng.Bernoulli(0.35)) e.push_back(f);
      }
      ExpectCheckersAgree(reference, bitset, x0, y0, e,
                          "seed " + std::to_string(seed) + " query " +
                              std::to_string(q));
    }
  }
}

TEST(BitsetParityTest, UnseenValueAndLabel) {
  testing::Fig2Context fig2;
  ConformityChecker reference(&fig2.context);
  BitsetConformityChecker bitset(&fig2.context);
  Instance alien = fig2.context.instance(0);
  alien[fig2.income] = 999;  // never interned
  ExpectCheckersAgree(reference, bitset, alien, fig2.denied, {fig2.income},
                      "unseen value");
  // A label id beyond anything in the context: every agreeing row violates.
  const Instance& x0 = fig2.context.instance(0);
  EXPECT_EQ(bitset.CountViolators(x0, 77, {fig2.credit}),
            reference.CountViolators(x0, 77, {fig2.credit}));
}

TEST(BitsetParityTest, IncrementalMaintenanceMatchesRebuild) {
  Dataset full = testing::RandomContext(400, 6, 3, 11);
  // Start from the first half, stream in the second, then slide out the
  // first 100 rows — the rolling-window life cycle.
  Dataset prefix = full.Prefix(200);
  BitsetConformityChecker bitset(&prefix);
  for (size_t row = 200; row < full.size(); ++row) {
    bitset.AddRow(full.instance(row), full.label(row));
  }
  for (size_t row = 0; row < 100; ++row) bitset.RemoveRow(row);
  EXPECT_EQ(bitset.live_rows(), 300u);
  EXPECT_EQ(bitset.allocated_rows(), 400u);

  // Reference over the equivalent live window (row ids differ, counts
  // cannot).
  std::vector<size_t> live_rows_list;
  for (size_t row = 100; row < 400; ++row) live_rows_list.push_back(row);
  Dataset window = full.Subset(live_rows_list);
  ConformityChecker reference(&window);
  // Window row i is bitset row id `first_id + i`.
  auto expect_parity = [&](size_t first_id, const std::string& phase) {
    Rng rng(12);
    for (int q = 0; q < 40; ++q) {
      Instance x0 = full.instance(rng.Uniform(full.size()));
      const Label y0 = static_cast<Label>(rng.Uniform(2));
      FeatureSet e;
      for (FeatureId f = 0; f < 6; ++f) {
        if (rng.Bernoulli(0.4)) e.push_back(f);
      }
      EXPECT_EQ(bitset.CountViolators(x0, y0, e),
                reference.CountViolators(x0, y0, e))
          << phase << " query " << q;
      EXPECT_EQ(bitset.Precision(x0, y0, e), reference.Precision(x0, y0, e));
      EXPECT_EQ(bitset.ViolatorBudget(0.9), reference.ViolatorBudget(0.9));
      std::vector<size_t> rows = bitset.AgreeingRows(x0, e);
      for (size_t& row : rows) row -= first_id;
      EXPECT_EQ(rows, reference.AgreeingRows(x0, e)) << phase << " query " << q;
    }
  };
  expect_parity(100, "slid");
  // Reclaim the first 64 (removed) ids: every later id moves down by 64.
  bitset.DropLeadingWords(1);
  EXPECT_EQ(bitset.live_rows(), 300u);
  EXPECT_EQ(bitset.allocated_rows(), 336u);
  expect_parity(36, "compacted");
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
