#include "core/row_bitmap.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

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

void RowBitmap::AndWith(const RowBitmap& other) {
  CCE_CHECK(rows_ == other.rows_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
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
