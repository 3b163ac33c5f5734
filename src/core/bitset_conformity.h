#ifndef CCE_CORE_BITSET_CONFORMITY_H_
#define CCE_CORE_BITSET_CONFORMITY_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/row_bitmap.h"
#include "core/types.h"

namespace cce {

/// The blocked-bitset conformity engine: the word-parallel counterpart of
/// ConformityChecker (docs/algorithms.md "The bitset conformity engine").
///
/// Every (feature, value) predicate of the context maps to a RowBitmap over
/// row ids, and so does every label. A violator count for a key E is then
///
///   popcount( live & ~label[y0] & AND_{f in E} value[f][x0[f]] )
///
/// one streaming pass of word-AND + popcount over 64-row blocks — no sorted
/// merges, no intermediate row lists.
///
/// Incremental maintenance (the streaming path): AddRow appends one row id
/// (O(n) bit sets, amortised), RemoveRow clears one bit of the live mask
/// (O(1)) — stale bits left behind in the value/label bitmaps are masked
/// out by `live` on every count, so a window slide costs O(changed rows),
/// not O(context).
///
/// Determinism contract: for the same logical context, every query returns
/// exactly the same result as ConformityChecker — counts are exact
/// integers and row lists come back ascending from both engines. The
/// contract is enforced by tests/conformity_parallel_test.cc.
///
/// Thread safety: queries (const methods) may run concurrently; AddRow /
/// RemoveRow require external synchronisation against queries and each
/// other, like std::vector.
class BitsetConformityChecker {
 public:
  /// Indexes the context. `context` is not owned and must outlive the
  /// checker; AddRow may extend the checker past the context's rows (the
  /// streaming case), after which context() no longer reflects the
  /// indexed rows and only the query methods are meaningful.
  explicit BitsetConformityChecker(const Context* context);

  // -- Query surface: same shape and semantics as ConformityChecker. -----

  /// Live rows that agree with x0 on every feature of E, ascending.
  std::vector<size_t> AgreeingRows(const Instance& x0,
                                   const FeatureSet& explanation) const;

  size_t CountViolators(const Instance& x0, Label y0,
                        const FeatureSet& explanation) const;

  double Precision(const Instance& x0, Label y0,
                   const FeatureSet& explanation) const;

  bool IsAlphaConformant(const Instance& x0, Label y0,
                         const FeatureSet& explanation, double alpha) const;

  /// floor((1 - alpha) * live_rows) with the same epsilon guard as the
  /// reference engine.
  size_t ViolatorBudget(double alpha) const;

  std::vector<size_t> CoveredRows(const Instance& x0, Label y0,
                                  const FeatureSet& explanation) const;

  const Context& context() const { return *context_; }

  // -- Incremental maintenance (streaming contexts). ---------------------

  /// Appends a row and returns its row id. O(num_features) amortised.
  size_t AddRow(const Instance& x, Label y);

  /// Removes a row from the live set. O(1); id remains allocated.
  void RemoveRow(size_t row);

  /// Rows currently live (the |I| of every budget computation).
  size_t live_rows() const { return live_rows_; }

  /// Row ids allocated so far. Grows with AddRow; only DropLeadingWords
  /// gives ids back.
  size_t allocated_rows() const { return next_row_; }

  /// Reclaims the ids of removed rows at the front: drops the first
  /// 64 * words ids, which must all be removed, and renumbers every later
  /// row id r to r - 64 * words. One memmove per bitmap — O(bytes()), no
  /// per-row work and no allocation.
  void DropLeadingWords(size_t words);

  /// Heap bytes held by the bitmaps: (sum of domain sizes + labels + 1)
  /// bitmaps of capacity_rows / 8 bytes each.
  size_t bytes() const;

  // -- Raw bitmaps (read-only; same synchronisation as the queries). Bit i
  //    of each is row id i; bits of removed rows stay set in the value and
  //    label bitmaps, so AND with live_bits() before counting them.

  /// The value bitmap for (feature, value); null when the value was never
  /// indexed (unseen dictionary code) — i.e. no row matches.
  const RowBitmap* ValueBits(FeatureId feature, ValueId value) const;

  /// Rows labelled `y`; null when the label was never indexed.
  const RowBitmap* LabelBits(Label y) const {
    return y < label_bits_.size() ? &label_bits_[y] : nullptr;
  }

  /// Rows not yet removed.
  const RowBitmap& live_bits() const { return live_; }

 private:
  /// live & ~label[y0] & AND of `ops`; returns the popcount.
  size_t CountFused(const std::vector<const uint64_t*>& ops,
                    const RowBitmap* exclude_label) const;

  /// Materialises live & AND of E's predicate bitmaps into `out`; false
  /// when some predicate is unseen (empty agreement set).
  bool IntersectInto(const Instance& x0, const FeatureSet& explanation,
                     RowBitmap* out) const;

  /// Grows every bitmap to hold at least `rows` row ids (geometric).
  void EnsureCapacity(size_t rows);

  const Context* context_;  // not owned

  // value_bits_[f][v] = rows with context value v for feature f. Inner
  // vectors grow on demand when a row carries a value beyond the interned
  // domain (mirrors the reference engine's postings table).
  std::vector<std::vector<RowBitmap>> value_bits_;
  std::vector<RowBitmap> label_bits_;  // label_bits_[y] = rows labelled y
  RowBitmap live_;                     // rows not yet removed

  size_t capacity_rows_ = 0;  // current bitmap length
  size_t next_row_ = 0;       // next row id to allocate
  size_t live_rows_ = 0;      // popcount(live_), tracked incrementally
};

}  // namespace cce

#endif  // CCE_CORE_BITSET_CONFORMITY_H_
