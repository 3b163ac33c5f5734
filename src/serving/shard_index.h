#ifndef CCE_SERVING_SHARD_INDEX_H_
#define CCE_SERVING_SHARD_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/row_bitmap.h"
#include "core/schema.h"
#include "core/types.h"

namespace cce::serving {

/// The persistent bitset index of one ContextShard's window
/// (docs/algorithms.md "The shard index"). Every (feature, value) of the
/// schema domain and every label owns a RowBitmap over row ids; window row
/// i is row id front_id + i. Eviction only ever pops the front, so the
/// window is exactly the ids [front_id, next_id): no live mask is kept.
///
/// Push sets one bit per feature plus the label bit (O(n), amortised over
/// the geometric bitmap growth); PopFront advances front_id and leaves the
/// evicted row's bits behind, below front_id, where AppendSlices masks
/// them off. Once fewer than half the allocated ids are live, PopFront
/// shifts the dead front words out of every bitmap: one memmove each, at
/// most once per window's worth of evictions.
///
/// Thread safety: none; the owning shard serialises every call under its
/// lock.
class ShardIndex {
 public:
  /// One (x0, y0) whose slice AppendSlices copies.
  struct SliceQuery {
    const Instance* x = nullptr;
    Label y = 0;
  };

  /// Where AppendSlices put the slices in the caller's buffer.
  struct Slices {
    /// First word of query 0's block; query q's block starts at
    /// offset + q * (num_features + 1) * words.
    size_t offset = 0;
    /// Words per array (0 for an empty index).
    size_t words = 0;
    /// Bit of the front row in each array's first word.
    size_t first_bit = 0;
  };

  /// An empty index with one bitmap per (feature, value) of `schema`'s
  /// domain and per label.
  explicit ShardIndex(const Schema& schema);

  /// Appends a row after the back of the window.
  void Push(const Instance& x, Label y);

  /// Evicts the front row; the index must not be empty. True when the pop
  /// also compacted the index (shifted its dead front words out).
  bool PopFront();

  /// Empties the index and frees its bitmap storage.
  void Clear();

  /// Appends to `words` one Srk::BitsetPart block per query over the
  /// window — ~label[y], then value[f][x[f]] for every feature f — with
  /// window row i at bit first_bit + i. Every bit outside the window is
  /// clear, so each array is an exact row set. A value or label with no
  /// bitmap (never interned) matches no row. O(queries * features *
  /// window / 64) words copied, no allocation beyond `words`.
  Slices AppendSlices(const std::vector<SliceQuery>& queries,
                      std::vector<uint64_t>* words) const;

  /// Heap bytes held by the bitmaps: (sum of domain sizes + labels)
  /// bitmaps of capacity / 8 bytes each (docs/operations.md "Sizing the
  /// shard index").
  size_t bytes() const;

 private:
  /// Grows every bitmap to hold at least `rows` row ids (geometric).
  void EnsureCapacity(size_t rows);

  // value_bits_[f][v] = rows with value v for feature f. Inner vectors
  // grow on demand when a row carries a value beyond the interned domain.
  std::vector<std::vector<RowBitmap>> value_bits_;
  std::vector<RowBitmap> label_bits_;  // label_bits_[y] = rows labelled y

  size_t capacity_rows_ = 0;  // current bitmap length
  size_t front_id_ = 0;       // row id of the window's front row
  size_t next_id_ = 0;        // row id the next Push takes
};

}  // namespace cce::serving

#endif  // CCE_SERVING_SHARD_INDEX_H_
