#include "core/dataset.h"

#include <algorithm>

#include "common/logging.h"

namespace cce {

void Dataset::Add(Instance values, Label label) {
  CCE_CHECK(values.size() == schema_->num_features());
  instances_.push_back(std::move(values));
  labels_.push_back(label);
}

Dataset Dataset::Subset(const std::vector<size_t>& rows) const {
  Dataset out(schema_);
  out.instances_.reserve(rows.size());
  out.labels_.reserve(rows.size());
  for (size_t row : rows) {
    CCE_CHECK(row < size());
    out.instances_.push_back(instances_[row]);
    out.labels_.push_back(labels_[row]);
  }
  return out;
}

Dataset Dataset::Prefix(size_t count) const {
  count = std::min(count, size());
  Dataset out(schema_);
  out.instances_.assign(instances_.begin(),
                        instances_.begin() + static_cast<long>(count));
  out.labels_.assign(labels_.begin(),
                     labels_.begin() + static_cast<long>(count));
  return out;
}

std::pair<Dataset, Dataset> Dataset::Split(double train_fraction,
                                           Rng* rng) const {
  CCE_CHECK(train_fraction >= 0.0 && train_fraction <= 1.0);
  std::vector<size_t> rows(size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  rng->Shuffle(&rows);
  size_t train_count =
      static_cast<size_t>(train_fraction * static_cast<double>(size()));
  std::vector<size_t> train_rows(rows.begin(),
                                 rows.begin() + static_cast<long>(train_count));
  std::vector<size_t> test_rows(rows.begin() + static_cast<long>(train_count),
                                rows.end());
  return {Subset(train_rows), Subset(test_rows)};
}

double Dataset::LabelAgreement(const std::vector<Label>& reference) const {
  CCE_CHECK(reference.size() == labels_.size());
  if (labels_.empty()) return 1.0;
  size_t agree = 0;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == reference[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(labels_.size());
}

}  // namespace cce
