#ifndef CCE_CORE_ROW_BITMAP_H_
#define CCE_CORE_ROW_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cce {

class ThreadPool;

/// A dense bitmap over context row ids, blocked into 64-bit words — the
/// storage unit of the bitset conformity engine. Each (feature, value)
/// predicate of a context becomes one RowBitmap; violator counting is then
/// word-AND + popcount instead of a sorted-row-id merge.
///
/// All counting results are exact integers, so sharding a count across a
/// ThreadPool is deterministic by construction: shard boundaries are fixed
/// word ranges (independent of the pool width) and partial popcounts are
/// summed in shard order.
///
/// Thread safety: const methods may be called concurrently; mutation
/// requires external synchronisation, like std::vector.
class RowBitmap {
 public:
  RowBitmap() = default;
  /// All-zero bitmap over `rows` row ids.
  explicit RowBitmap(size_t rows) { Resize(rows); }

  /// Grows (or shrinks) to `rows`, preserving existing bits; new bits are 0.
  void Resize(size_t rows);

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t num_words() const { return words_.size(); }
  const uint64_t* data() const { return words_.data(); }

  /// Mutable word access for bulk construction (one store per 64 rows
  /// instead of 64 Set calls). Writers must keep the tail bits at
  /// positions >= size() clear — every counting routine relies on it.
  uint64_t* mutable_data() { return words_.data(); }

  void Set(size_t row) { words_[row >> 6] |= uint64_t{1} << (row & 63); }
  void Clear(size_t row) { words_[row >> 6] &= ~(uint64_t{1} << (row & 63)); }
  bool Test(size_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  /// Shifts every bit down by 64 * count positions (row r becomes row
  /// r - 64 * count), dropping the first `count` words and zero-filling
  /// the end. size() is unchanged. One memmove of the word array.
  void DropLeadingWords(size_t count);

  /// Sets every bit in [0, size()).
  void SetAll();
  /// Clears every bit.
  void ClearAll();

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits among rows [0, limit) — e.g. the frequency of a
  /// predicate within a prefix sample of the context.
  size_t CountPrefix(size_t limit) const;

  /// this &= other. Both bitmaps must have the same size.
  void AndWith(const RowBitmap& other);

  /// this &= ~other (clears the rows set in `other`).
  void AndNotWith(const RowBitmap& other);

  /// popcount(a & b) without materialising the intersection. When `pool` is
  /// non-null and the bitmaps are large enough to amortise task dispatch,
  /// the word range is sharded across the pool; `shards` (if non-null) is
  /// incremented by the number of tasks dispatched (0 for the serial path).
  /// The result is identical with and without a pool.
  static size_t AndCount(const RowBitmap& a, const RowBitmap& b,
                         ThreadPool* pool = nullptr,
                         uint64_t* shards = nullptr);

  /// popcount(a & ~b & c) — e.g. rows agreeing on a predicate (a), not
  /// removed (c = live rows), predicted differently (b = rows with y0).
  static size_t AndNotAndCount(const RowBitmap& a, const RowBitmap& b,
                               const RowBitmap& c);

  /// Invokes fn(row) for every set bit, ascending.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = CountTrailingZeros(word);
        fn((w << 6) + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// The set rows as a sorted vector — the bridge back to the sorted-row-id
  /// world of the reference engine.
  std::vector<size_t> ToRows() const;

  /// Word count of the fixed shard size used by parallel counting. Exposed
  /// so callers can predict fanout (`ceil(num_words / kShardWords)`).
  static constexpr size_t kShardWords = 4096;  // 256 KiB of rows per shard

 private:
  static int CountTrailingZeros(uint64_t word);

  /// Zeroes the bits at positions >= rows_ in the last word; every counting
  /// routine relies on the tail staying clear.
  void ClearTail();

  std::vector<uint64_t> words_;
  size_t rows_ = 0;
};

}  // namespace cce

#endif  // CCE_CORE_ROW_BITMAP_H_
