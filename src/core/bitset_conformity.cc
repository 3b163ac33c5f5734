#include "core/bitset_conformity.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace cce {

BitsetConformityChecker::BitsetConformityChecker(const Context* context)
    : context_(context) {
  const Schema& schema = context_->schema();
  value_bits_.resize(schema.num_features());
  for (FeatureId f = 0; f < schema.num_features(); ++f) {
    value_bits_[f].resize(schema.DomainSize(f));
  }
  label_bits_.resize(schema.num_labels());
  EnsureCapacity(context_->size());
  // Column-major build: one pass per feature over a contiguous column copy
  // keeps the bitmap writes local to that feature's value bitmaps.
  std::vector<ValueId> column;
  for (FeatureId f = 0; f < schema.num_features(); ++f) {
    context_->CopyColumn(f, &column);
    for (size_t row = 0; row < column.size(); ++row) {
      const ValueId v = column[row];
      if (v >= value_bits_[f].size()) {
        value_bits_[f].resize(v + 1, RowBitmap(capacity_rows_));
      }
      value_bits_[f][v].Set(row);
    }
  }
  for (size_t row = 0; row < context_->size(); ++row) {
    const Label y = context_->label(row);
    if (y >= label_bits_.size()) {
      label_bits_.resize(y + 1, RowBitmap(capacity_rows_));
    }
    label_bits_[y].Set(row);
    live_.Set(row);
  }
  next_row_ = context_->size();
  live_rows_ = context_->size();
}

void BitsetConformityChecker::EnsureCapacity(size_t rows) {
  if (rows <= capacity_rows_) return;
  size_t capacity = std::max<size_t>(64, capacity_rows_);
  while (capacity < rows) capacity *= 2;
  capacity_rows_ = capacity;
  for (auto& per_feature : value_bits_) {
    for (RowBitmap& bits : per_feature) bits.Resize(capacity_rows_);
  }
  for (RowBitmap& bits : label_bits_) bits.Resize(capacity_rows_);
  live_.Resize(capacity_rows_);
}

const RowBitmap* BitsetConformityChecker::ValueBits(FeatureId feature,
                                                    ValueId value) const {
  CCE_CHECK(feature < value_bits_.size());
  if (value >= value_bits_[feature].size()) return nullptr;
  return &value_bits_[feature][value];
}

size_t BitsetConformityChecker::CountFused(
    const std::vector<const uint64_t*>& ops,
    const RowBitmap* exclude_label) const {
  const size_t words = live_.num_words();
  const uint64_t* live = live_.data();
  const uint64_t* excl =
      exclude_label != nullptr ? exclude_label->data() : nullptr;
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t acc = live[w];
    if (excl != nullptr) acc &= ~excl[w];
    for (const uint64_t* op : ops) acc &= op[w];
    count += std::popcount(acc);
  }
  return count;
}

bool BitsetConformityChecker::IntersectInto(const Instance& x0,
                                            const FeatureSet& explanation,
                                            RowBitmap* out) const {
  *out = live_;
  for (FeatureId f : explanation) {
    const RowBitmap* bits = ValueBits(f, x0[f]);
    if (bits == nullptr) return false;
    out->AndWith(*bits);
  }
  return true;
}

std::vector<size_t> BitsetConformityChecker::AgreeingRows(
    const Instance& x0, const FeatureSet& explanation) const {
  RowBitmap agree;
  if (!IntersectInto(x0, explanation, &agree)) return {};
  return agree.ToRows();
}

size_t BitsetConformityChecker::CountViolators(
    const Instance& x0, Label y0, const FeatureSet& explanation) const {
  std::vector<const uint64_t*> ops;
  ops.reserve(explanation.size());
  for (FeatureId f : explanation) {
    const RowBitmap* bits = ValueBits(f, x0[f]);
    if (bits == nullptr) return 0;  // unseen value: nothing agrees
    ops.push_back(bits->data());
  }
  return CountFused(ops, LabelBits(y0));
}

double BitsetConformityChecker::Precision(const Instance& x0, Label y0,
                                          const FeatureSet& explanation)
    const {
  if (live_rows_ == 0) return 1.0;
  const size_t violators = CountViolators(x0, y0, explanation);
  return 1.0 - static_cast<double>(violators) /
                   static_cast<double>(live_rows_);
}

size_t BitsetConformityChecker::ViolatorBudget(double alpha) const {
  const double budget = (1.0 - alpha) * static_cast<double>(live_rows_);
  return static_cast<size_t>(std::floor(budget + 1e-9));
}

bool BitsetConformityChecker::IsAlphaConformant(const Instance& x0, Label y0,
                                                const FeatureSet& explanation,
                                                double alpha) const {
  return CountViolators(x0, y0, explanation) <= ViolatorBudget(alpha);
}

std::vector<size_t> BitsetConformityChecker::CoveredRows(
    const Instance& x0, Label y0, const FeatureSet& explanation) const {
  RowBitmap agree;
  if (!IntersectInto(x0, explanation, &agree)) return {};
  if (y0 >= label_bits_.size()) return {};  // unseen label covers nothing
  agree.AndWith(label_bits_[y0]);
  return agree.ToRows();
}

size_t BitsetConformityChecker::AddRow(const Instance& x, Label y) {
  CCE_CHECK(x.size() == value_bits_.size());
  const size_t row = next_row_++;
  EnsureCapacity(next_row_);
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
  live_.Set(row);
  ++live_rows_;
  return row;
}

void BitsetConformityChecker::RemoveRow(size_t row) {
  CCE_CHECK(row < next_row_);
  if (!live_.Test(row)) return;
  live_.Clear(row);
  --live_rows_;
}

void BitsetConformityChecker::DropLeadingWords(size_t words) {
  CCE_CHECK(64 * words <= next_row_);
  for (size_t w = 0; w < words; ++w) CCE_CHECK(live_.data()[w] == 0);
  for (auto& per_feature : value_bits_) {
    for (RowBitmap& bits : per_feature) bits.DropLeadingWords(words);
  }
  for (RowBitmap& bits : label_bits_) bits.DropLeadingWords(words);
  live_.DropLeadingWords(words);
  next_row_ -= 64 * words;
}

size_t BitsetConformityChecker::bytes() const {
  size_t words = live_.num_words();
  for (const auto& per_feature : value_bits_) {
    for (const RowBitmap& bits : per_feature) words += bits.num_words();
  }
  for (const RowBitmap& bits : label_bits_) words += bits.num_words();
  return words * sizeof(uint64_t);
}

}  // namespace cce
