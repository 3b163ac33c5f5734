#ifndef CCE_CORE_ROW_BITMAP_H_
#define CCE_CORE_ROW_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cce {

/// A dense bitmap over row ids, blocked into 64-bit words: the storage
/// unit of the proxy's shard index (serving/shard_index.h), one per
/// (feature, value) predicate and per label. Readers copy words out of
/// data() and count with word-AND + popcount.
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

  /// Shifts every bit down by 64 * count positions (row r becomes row
  /// r - 64 * count), dropping the first `count` words and zero-filling
  /// the end. The row count is unchanged. One memmove of the word array.
  void DropLeadingWords(size_t count);

 private:
  /// Zeroes the bits at positions >= rows_ in the last word, so a shrink
  /// leaves no bit beyond the bitmap's rows.
  void ClearTail();

  std::vector<uint64_t> words_;
  size_t rows_ = 0;
};

}  // namespace cce

#endif  // CCE_CORE_ROW_BITMAP_H_
