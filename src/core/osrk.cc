#include "core/osrk.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cce {

Result<std::unique_ptr<Osrk>> Osrk::Create(
    std::shared_ptr<const Schema> schema, Instance x0, Label y0,
    const Options& options) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must not be null");
  }
  if (x0.size() != schema->num_features()) {
    return Status::InvalidArgument("instance arity does not match schema");
  }
  return std::unique_ptr<Osrk>(
      new Osrk(std::move(schema), std::move(x0), y0, options));
}

Osrk::Osrk(std::shared_ptr<const Schema> schema, Instance x0, Label y0,
           const Options& options)
    : schema_(std::move(schema)),
      x0_(std::move(x0)),
      y0_(y0),
      options_(options),
      rng_(options.seed),
      weights_(schema_->num_features(), 0.0) {}

bool Osrk::OverBudget() const {
  double budget = (1.0 - options_.alpha) * static_cast<double>(arrived_);
  return static_cast<double>(violators_.size()) > budget + 1e-9;
}

double Osrk::achieved_alpha() const {
  if (arrived_ == 0) return 1.0;
  return 1.0 - static_cast<double>(violators_.size()) /
                   static_cast<double>(arrived_);
}

bool Osrk::satisfied() const {
  return !OverBudget();
}

void Osrk::AddFeatureToKey(FeatureId feature) {
  if (FeatureSetContains(key_, feature)) return;
  FeatureSetInsert(&key_, feature);
  std::vector<Instance> surviving;
  surviving.reserve(violators_.size());
  for (Instance& v : violators_) {
    if (v[feature] == x0_[feature]) surviving.push_back(std::move(v));
  }
  violators_ = std::move(surviving);
}

const FeatureSet& Osrk::Observe(const Instance& x, Label y) {
  CCE_CHECK(x.size() == schema_->num_features());
  ++arrived_;  // line 1: I <- I ∪ {x_t}

  // Line 2: same prediction — the key is untouched (coherence for free).
  if (y == y0_) return key_;

  ++diff_count_;  // p_t

  const size_t n = schema_->num_features();

  // Lines 3-6: the first differently-predicted arrival initialises every
  // feature weight to the largest power of two below 1/n and seeds the key
  // randomly with those probabilities.
  if (!weights_initialized_) {
    weights_initialized_ = true;
    double w = 1.0;
    while (w >= 1.0 / static_cast<double>(n)) w /= 2.0;
    for (FeatureId f = 0; f < n; ++f) {
      weights_[f] = w;
      if (rng_.Bernoulli(w)) AddFeatureToKey(f);
    }
  }

  // Track x as a violator if it agrees with x0 on the current key.
  bool agrees = true;
  for (FeatureId f : key_) {
    if (x[f] != x0_[f]) {
      agrees = false;
      break;
    }
  }
  if (agrees) violators_.push_back(x);

  // Line 7: features on which x_t and x0 differ, outside the key.
  std::vector<FeatureId> candidates;
  for (FeatureId f = 0; f < n; ++f) {
    if (x[f] != x0_[f] && !FeatureSetContains(key_, f)) {
      candidates.push_back(f);
    }
  }

  // Lines 8-15: expand the key until alpha-conformance is restored.
  while (OverBudget()) {
    if (candidates.empty()) {
      // x_t is a conflicting duplicate of x0 (or the key already covers all
      // its differing features) and older tolerated violators exceed the
      // budget: no feature of S_t can help. Report best effort via
      // satisfied().
      break;
    }
    double mu = 0.0;
    for (FeatureId f : candidates) mu += weights_[f];
    double threshold = std::log(static_cast<double>(diff_count_));
    if (mu > threshold) {
      // Line 11: cover x_t deterministically with an arbitrary candidate.
      // (We re-check the while condition rather than exiting outright so
      // that the returned E_t is alpha-conformant whenever that is
      // attainable, per the paper's correctness claim.)
      AddFeatureToKey(candidates.front());
      candidates.erase(candidates.begin());
      continue;
    }
    // Lines 12-15: weight augmentation — double each candidate weight below
    // one, then add it to the key with probability w_i.
    std::vector<FeatureId> remaining;
    for (FeatureId f : candidates) {
      if (weights_[f] < 1.0) weights_[f] = std::min(2.0 * weights_[f], 2.0);
      if (rng_.Bernoulli(std::min(weights_[f], 1.0))) {
        AddFeatureToKey(f);
      } else {
        remaining.push_back(f);
      }
    }
    candidates = std::move(remaining);
  }
  return key_;
}

}  // namespace cce
