#ifndef CCE_CORE_DATASET_H_
#define CCE_CORE_DATASET_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/schema.h"
#include "core/types.h"

namespace cce {

/// A collection of labelled instances over a shared Schema. Serves as the
/// training set for models, the inference set for serving, and — paired with
/// model predictions as labels — as the *context* I of relative keys (paper
/// Section 3.1).
class Dataset {
 public:
  explicit Dataset(std::shared_ptr<const Schema> schema)
      : schema_(std::move(schema)) {}

  /// Appends an instance. `values` must have one entry per schema feature.
  void Add(Instance values, Label label);

  size_t size() const { return instances_.size(); }
  bool empty() const { return instances_.empty(); }
  size_t num_features() const { return schema_->num_features(); }

  const Instance& instance(size_t row) const { return instances_[row]; }
  ValueId value(size_t row, FeatureId feature) const {
    return instances_[row][feature];
  }
  Label label(size_t row) const { return labels_[row]; }
  void set_label(size_t row, Label label) { labels_[row] = label; }

  const std::vector<Instance>& instances() const { return instances_; }
  const std::vector<Label>& labels() const { return labels_; }

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }

  /// New dataset holding the rows at `rows` (in that order).
  Dataset Subset(const std::vector<size_t>& rows) const;

  /// New dataset with the first `count` rows (count clamped to size()).
  Dataset Prefix(size_t count) const;

  /// Shuffled split into (train, test) with `train_fraction` of the rows in
  /// train. Matches the paper's 70/30 protocol when train_fraction = 0.7.
  std::pair<Dataset, Dataset> Split(double train_fraction, Rng* rng) const;

  /// Fraction of rows whose label equals `reference(row)` — used for
  /// accuracy-style computations over predicted vs actual labels.
  double LabelAgreement(const std::vector<Label>& reference) const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<Instance> instances_;
  std::vector<Label> labels_;
};

/// A context is an inference set whose labels are the (blackbox) model's
/// predictions. The alias documents intent at call sites.
using Context = Dataset;

}  // namespace cce

#endif  // CCE_CORE_DATASET_H_
