#include "core/ssrk.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace cce {

Result<std::unique_ptr<Ssrk>> Ssrk::Create(const Dataset& universe,
                                           Instance x0, Label y0,
                                           const Options& options) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (x0.size() != universe.num_features()) {
    return Status::InvalidArgument("instance arity does not match schema");
  }
  if (universe.empty()) {
    return Status::InvalidArgument("universe must not be empty");
  }
  return std::unique_ptr<Ssrk>(
      new Ssrk(universe, std::move(x0), y0, options));
}

Ssrk::Ssrk(const Dataset& universe, Instance x0, Label y0,
           const Options& options)
    : universe_(universe),
      x0_(std::move(x0)),
      y0_(y0),
      options_(options),
      weights_(universe.num_features(), 0.0) {
  const size_t n = universe_.num_features();
  const size_t m = universe_.size();
  log_m_ = std::log(static_cast<double>(m));

  // Offline initialisation (Algorithm 3 lines 1-5): uniform importance
  // weights 1/2n; U = universe instances predicted differently from x0;
  // potential Φ = Σ_j m^{2 mu_j}.
  for (FeatureId f = 0; f < n; ++f) weights_[f] = 1.0 / (2.0 * n);
  for (size_t row = 0; row < m; ++row) {
    if (universe_.label(row) != y0_) active_.push_back(row);
  }
  log_potential_ = LogPotential();
}

double Ssrk::RowScore(size_t universe_row) const {
  const Instance& x = universe_.instance(universe_row);
  double mu = 0.0;
  for (FeatureId f = 0; f < weights_.size(); ++f) {
    if (x[f] != x0_[f]) mu += weights_[f];
  }
  return mu;
}

double Ssrk::LogPotential() const {
  if (active_.empty()) return -std::numeric_limits<double>::infinity();
  // log Σ exp(2 mu_j log m), max-shifted for stability. The sum runs over
  // fixed index chunks in chunk order, so its rounding sequence depends
  // only on the active list.
  constexpr size_t kChunk = 4096;
  std::vector<double> exponents(active_.size());
  for (size_t i = 0; i < active_.size(); ++i) {
    exponents[i] = 2.0 * RowScore(active_[i]) * log_m_;
  }
  double max_exponent = -std::numeric_limits<double>::infinity();
  for (double e : exponents) max_exponent = std::max(max_exponent, e);

  double sum = 0.0;
  for (size_t begin = 0; begin < exponents.size(); begin += kChunk) {
    const size_t end = std::min(exponents.size(), begin + kChunk);
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      partial += std::exp(exponents[i] - max_exponent);
    }
    sum += partial;
  }
  return max_exponent + std::log(sum);
}

bool Ssrk::OverBudget() const {
  double budget = (1.0 - options_.alpha) * static_cast<double>(arrived_);
  return static_cast<double>(arrived_violators_.size()) > budget + 1e-9;
}

double Ssrk::achieved_alpha() const {
  if (arrived_ == 0) return 1.0;
  return 1.0 - static_cast<double>(arrived_violators_.size()) /
                   static_cast<double>(arrived_);
}

bool Ssrk::satisfied() const { return !OverBudget(); }

void Ssrk::AddFeatureToKey(FeatureId feature) {
  if (FeatureSetContains(key_, feature)) return;
  FeatureSetInsert(&key_, feature);
  // Line 15: U keeps only instances still agreeing with x0 on the key.
  std::vector<size_t> surviving;
  surviving.reserve(active_.size());
  for (size_t row : active_) {
    if (universe_.value(row, feature) == x0_[feature]) {
      surviving.push_back(row);
    }
  }
  active_ = std::move(surviving);
  std::vector<Instance> surviving_arrived;
  surviving_arrived.reserve(arrived_violators_.size());
  for (Instance& v : arrived_violators_) {
    if (v[feature] == x0_[feature]) surviving_arrived.push_back(std::move(v));
  }
  arrived_violators_ = std::move(surviving_arrived);
}

const FeatureSet& Ssrk::Observe(const Instance& x, Label y) {
  CCE_CHECK(x.size() == universe_.num_features());
  ++arrived_;  // line 6

  // Line 7: arrivals predicted like x0 never expand the key.
  if (y == y0_) return key_;

  bool agrees = true;
  for (FeatureId f : key_) {
    if (x[f] != x0_[f]) {
      agrees = false;
      break;
    }
  }
  if (agrees) arrived_violators_.push_back(x);

  // Line 8: only act while alpha-conformance is violated.
  if (!OverBudget()) return key_;

  // S_t: candidate features where the arrival differs from x0.
  std::vector<FeatureId> candidates;
  for (FeatureId f = 0; f < universe_.num_features(); ++f) {
    if (x[f] != x0_[f] && !FeatureSetContains(key_, f)) {
      candidates.push_back(f);
    }
  }
  if (candidates.empty()) {
    // Conflicting duplicate: no feature can separate x from x0.
    return key_;
  }

  // Line 9-10: weight augmentation — scale candidate weights by the minimum
  // power of two making the aggregate score exceed one.
  double mu = 0.0;
  for (FeatureId f : candidates) mu += weights_[f];
  int k = 0;
  double scaled = mu;
  while (scaled <= 1.0) {
    scaled *= 2.0;
    ++k;
  }
  if (k > 0) {
    double factor = std::pow(2.0, k);
    for (FeatureId f : candidates) weights_[f] *= factor;
  }

  // Lines 11-17: greedily add candidates until the potential stops
  // exceeding its pre-augmentation value.
  double new_log_potential = LogPotential();
  while (new_log_potential > log_potential_ && !candidates.empty()) {
    // Line 13: pick the candidate minimising surviving universe violators;
    // ties go to the earliest candidate.
    FeatureId best_feature = candidates.front();
    size_t best_count = std::numeric_limits<size_t>::max();
    for (FeatureId f : candidates) {
      size_t count = 0;
      for (size_t row : active_) {
        if (universe_.value(row, f) == x0_[f]) ++count;
      }
      if (count < best_count) {
        best_count = count;
        best_feature = f;
      }
    }
    AddFeatureToKey(best_feature);
    candidates.erase(
        std::remove(candidates.begin(), candidates.end(), best_feature),
        candidates.end());
    new_log_potential = LogPotential();
  }
  log_potential_ = new_log_potential;  // line 17
  return key_;
}

}  // namespace cce
