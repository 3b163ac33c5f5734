#include "core/row_bitmap.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace cce {

void RowBitmap::Resize(size_t rows) {
  rows_ = rows;
  words_.resize((rows + 63) / 64, 0);
  ClearTail();
}

void RowBitmap::DropLeadingWords(size_t count) {
  CCE_CHECK(count <= words_.size());
  std::copy(words_.begin() + count, words_.end(), words_.begin());
  std::fill(words_.end() - count, words_.end(), 0);
}

void RowBitmap::SetAll() {
  for (uint64_t& word : words_) word = ~uint64_t{0};
  ClearTail();
}

void RowBitmap::ClearAll() {
  for (uint64_t& word : words_) word = 0;
}

void RowBitmap::ClearTail() {
  const size_t tail = rows_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

size_t RowBitmap::Count() const {
  size_t count = 0;
  for (uint64_t word : words_) count += std::popcount(word);
  return count;
}

size_t RowBitmap::CountPrefix(size_t limit) const {
  if (limit >= rows_) return Count();
  const size_t full_words = limit >> 6;
  size_t count = 0;
  for (size_t w = 0; w < full_words; ++w) count += std::popcount(words_[w]);
  const size_t tail = limit & 63;
  if (tail != 0) {
    count += std::popcount(words_[full_words] & ((uint64_t{1} << tail) - 1));
  }
  return count;
}

void RowBitmap::AndWith(const RowBitmap& other) {
  CCE_CHECK(rows_ == other.rows_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void RowBitmap::AndNotWith(const RowBitmap& other) {
  CCE_CHECK(rows_ == other.rows_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
}

size_t RowBitmap::AndCount(const RowBitmap& a, const RowBitmap& b,
                           ThreadPool* pool, uint64_t* shards) {
  CCE_CHECK(a.rows_ == b.rows_);
  const size_t words = a.words_.size();
  // Below one shard of words the dispatch overhead dwarfs the AND itself.
  if (pool == nullptr || words <= kShardWords) {
    size_t count = 0;
    for (size_t w = 0; w < words; ++w) {
      count += std::popcount(a.words_[w] & b.words_[w]);
    }
    return count;
  }
  const size_t num_shards = (words + kShardWords - 1) / kShardWords;
  std::vector<size_t> partial(num_shards, 0);
  const uint64_t* wa = a.words_.data();
  const uint64_t* wb = b.words_.data();
  pool->ParallelChunks(words, kShardWords,
                       [wa, wb, &partial](size_t begin, size_t end) {
                         size_t count = 0;
                         for (size_t w = begin; w < end; ++w) {
                           count += std::popcount(wa[w] & wb[w]);
                         }
                         partial[begin / kShardWords] = count;
                       });
  size_t count = 0;
  for (size_t p : partial) count += p;
  if (shards != nullptr) *shards += num_shards;
  return count;
}

size_t RowBitmap::AndNotAndCount(const RowBitmap& a, const RowBitmap& b,
                                 const RowBitmap& c) {
  CCE_CHECK(a.rows_ == b.rows_ && a.rows_ == c.rows_);
  size_t count = 0;
  for (size_t w = 0; w < a.words_.size(); ++w) {
    count += std::popcount(a.words_[w] & ~b.words_[w] & c.words_[w]);
  }
  return count;
}

std::vector<size_t> RowBitmap::ToRows() const {
  std::vector<size_t> rows;
  rows.reserve(Count());
  ForEachSetBit([&rows](size_t row) { rows.push_back(row); });
  return rows;
}

int RowBitmap::CountTrailingZeros(uint64_t word) {
  return std::countr_zero(word);
}

}  // namespace cce
