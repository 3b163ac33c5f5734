#ifndef CCE_CORE_ROW_BITMAP_H_
#define CCE_CORE_ROW_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cce {

/// A dense bitmap over context row ids, blocked into 64-bit words — the
/// storage unit of the bitset conformity engine. Each (feature, value)
/// predicate of a context becomes one RowBitmap; violator counting is then
/// word-AND + popcount instead of a sorted-row-id merge.
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

  size_t num_words() const { return words_.size(); }
  const uint64_t* data() const { return words_.data(); }

  void Set(size_t row) { words_[row >> 6] |= uint64_t{1} << (row & 63); }
  void Clear(size_t row) { words_[row >> 6] &= ~(uint64_t{1} << (row & 63)); }
  bool Test(size_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  /// Shifts every bit down by 64 * count positions (row r becomes row
  /// r - 64 * count), dropping the first `count` words and zero-filling
  /// the end. The row count is unchanged. One memmove of the word array.
  void DropLeadingWords(size_t count);

  /// Number of set bits.
  size_t Count() const;

  /// this &= other. Both bitmaps must have the same size.
  void AndWith(const RowBitmap& other);

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
