#include "core/row_bitmap.h"

#include <algorithm>

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

}  // namespace cce
