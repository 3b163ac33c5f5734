#ifndef CCE_CORE_OSRK_H_
#define CCE_CORE_OSRK_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/key_result.h"
#include "core/schema.h"
#include "core/types.h"

namespace cce {

/// Algorithm OSRK (paper Algorithm 2): randomized online maintenance of an
/// alpha-conformant relative key for a fixed instance x0 as the context I
/// grows one inference instance at a time.
///
/// The maintained keys are *coherent*: E_t ⊆ E_{t+1} (paper Section 5.1).
/// For alpha = 1 the key is (log t · log n)-bounded in expectation (paper
/// Theorem 5). Each arrival costs O(n log n) amortised, independent of |I|.
class Osrk {
 public:
  struct Options {
    double alpha = 1.0;
    uint64_t seed = 42;
  };

  /// Creates a monitor for (x0, y0). The context starts empty.
  static Result<std::unique_ptr<Osrk>> Create(
      std::shared_ptr<const Schema> schema, Instance x0, Label y0,
      const Options& options);

  /// Feeds the next online instance and its model prediction; returns the
  /// updated key E_t.
  const FeatureSet& Observe(const Instance& x, Label y);

  /// Current key E_t.
  const FeatureSet& key() const { return key_; }

  /// Number of instances observed so far (|I|).
  size_t context_size() const { return arrived_; }

  /// Conformity achieved over the observed context: 1 - violators / |I|.
  double achieved_alpha() const;

  /// False only when a conflicting duplicate of x0 (same features, different
  /// prediction) forces the violator budget to be exceeded.
  bool satisfied() const;

  const Instance& target() const { return x0_; }
  Label target_label() const { return y0_; }

 private:
  Osrk(std::shared_ptr<const Schema> schema, Instance x0, Label y0,
       const Options& options);

  /// Adds `feature` to the key and drops newly-disagreeing violators.
  void AddFeatureToKey(FeatureId feature);

  /// True while the violator count exceeds the tolerated budget.
  bool OverBudget() const;

  std::shared_ptr<const Schema> schema_;
  Instance x0_;
  Label y0_;
  Options options_;
  Rng rng_;

  FeatureSet key_;
  std::vector<double> weights_;   // per-feature w_i
  bool weights_initialized_ = false;

  size_t arrived_ = 0;            // t
  size_t diff_count_ = 0;         // p_t: arrivals predicted differently
  // Instances predicted differently from x0 that still agree with x0 on the
  // current key (the "active violators").
  std::vector<Instance> violators_;
};

}  // namespace cce

#endif  // CCE_CORE_OSRK_H_
