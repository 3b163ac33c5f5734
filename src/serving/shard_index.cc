#include "serving/shard_index.h"

#include <algorithm>

#include "common/logging.h"

namespace cce::serving {

ShardIndex::ShardIndex(const Schema& schema)
    : value_bits_(schema.num_features()), label_bits_(schema.num_labels()) {
  for (FeatureId f = 0; f < schema.num_features(); ++f) {
    value_bits_[f].resize(schema.DomainSize(f));
  }
}

void ShardIndex::EnsureCapacity(size_t rows) {
  if (rows <= capacity_rows_) return;
  size_t capacity = std::max<size_t>(64, capacity_rows_);
  while (capacity < rows) capacity *= 2;
  capacity_rows_ = capacity;
  for (auto& per_feature : value_bits_) {
    for (RowBitmap& bits : per_feature) bits.Resize(capacity_rows_);
  }
  for (RowBitmap& bits : label_bits_) bits.Resize(capacity_rows_);
}

void ShardIndex::Push(const Instance& x, Label y) {
  CCE_CHECK(x.size() == value_bits_.size());
  const size_t row = next_id_++;
  EnsureCapacity(next_id_);
  for (FeatureId f = 0; f < x.size(); ++f) {
    const ValueId v = x[f];
    if (v >= value_bits_[f].size()) {
      value_bits_[f].resize(v + 1, RowBitmap(capacity_rows_));
    }
    value_bits_[f][v].Set(row);
  }
  if (y >= label_bits_.size()) {
    label_bits_.resize(y + 1, RowBitmap(capacity_rows_));
  }
  label_bits_[y].Set(row);
}

bool ShardIndex::PopFront() {
  CCE_CHECK(front_id_ < next_id_);
  ++front_id_;
  // Ids only grow, so reclaim the evicted ones once fewer than half the
  // ids are live.
  if (front_id_ < 64 || 2 * (next_id_ - front_id_) >= next_id_) return false;
  const size_t words = front_id_ >> 6;
  for (auto& per_feature : value_bits_) {
    for (RowBitmap& bits : per_feature) bits.DropLeadingWords(words);
  }
  for (RowBitmap& bits : label_bits_) bits.DropLeadingWords(words);
  front_id_ -= 64 * words;
  next_id_ -= 64 * words;
  return true;
}

void ShardIndex::Clear() {
  for (auto& per_feature : value_bits_) {
    for (RowBitmap& bits : per_feature) bits = RowBitmap();
  }
  for (RowBitmap& bits : label_bits_) bits = RowBitmap();
  capacity_rows_ = 0;
  front_id_ = 0;
  next_id_ = 0;
}

ShardIndex::Slices ShardIndex::AppendSlices(
    const std::vector<SliceQuery>& queries,
    std::vector<uint64_t>* words) const {
  Slices slices;
  slices.offset = words->size();
  if (front_id_ == next_id_) return slices;
  // Copy just the words that cover [front_id_, next_id_), then clear the
  // first word below the front (bits evicted rows left behind) and the last
  // word from next_id_ on (ids not yet allocated, set in ~label).
  const size_t begin = front_id_ >> 6;
  slices.words = ((next_id_ + 63) >> 6) - begin;
  slices.first_bit = front_id_ & 63;
  const uint64_t head_mask = ~uint64_t{0} << slices.first_bit;
  const uint64_t tail_mask = ~uint64_t{0} >> ((64 - (next_id_ & 63)) & 63);
  const size_t n = value_bits_.size();
  words->resize(slices.offset + queries.size() * (n + 1) * slices.words);
  uint64_t* out = words->data() + slices.offset;
  auto copy = [&](const std::vector<RowBitmap>& bitmaps, size_t id,
                  bool negate) {
    if (id >= bitmaps.size()) {
      std::fill_n(out, slices.words, negate ? ~uint64_t{0} : 0);
    } else if (negate) {
      const uint64_t* src = bitmaps[id].data() + begin;
      for (size_t w = 0; w < slices.words; ++w) out[w] = ~src[w];
    } else {
      std::copy_n(bitmaps[id].data() + begin, slices.words, out);
    }
    out[0] &= head_mask;
    out[slices.words - 1] &= tail_mask;
    out += slices.words;
  };
  for (const SliceQuery& query : queries) {
    copy(label_bits_, query.y, /*negate=*/true);
    for (FeatureId f = 0; f < n; ++f) {
      copy(value_bits_[f], (*query.x)[f], /*negate=*/false);
    }
  }
  return slices;
}

size_t ShardIndex::bytes() const {
  size_t words = 0;
  for (const auto& per_feature : value_bits_) {
    for (const RowBitmap& bits : per_feature) words += bits.num_words();
  }
  for (const RowBitmap& bits : label_bits_) words += bits.num_words();
  return words * sizeof(uint64_t);
}

}  // namespace cce::serving
