#ifndef CCE_CORE_SSRK_H_
#define CCE_CORE_SSRK_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "core/types.h"

namespace cce {

/// Algorithm SSRK (paper Algorithm 3): deterministic online maintenance of
/// alpha-conformant relative keys for instances with *static features*, i.e.
/// a universe U of all instances and their predictions is known offline and
/// only the arrival order is revealed online (paper Section 5.3).
///
/// Keys are coherent (E_t ⊆ E_{t+1}) and (log m · log n)-bounded for
/// alpha = 1 (paper Theorem 6). Offline initialisation costs O(nm); each
/// arrival costs O(nm) worst case.
class Ssrk {
 public:
  struct Options {
    double alpha = 1.0;
  };

  /// Creates a monitor for (x0, y0) with the given universe (instances plus
  /// model predictions). The online context starts empty.
  static Result<std::unique_ptr<Ssrk>> Create(const Dataset& universe,
                                              Instance x0, Label y0,
                                              const Options& options);

  /// Feeds the next arrival (a universe instance) and its prediction;
  /// returns the updated key E_t.
  const FeatureSet& Observe(const Instance& x, Label y);

  const FeatureSet& key() const { return key_; }
  size_t context_size() const { return arrived_; }
  double achieved_alpha() const;
  bool satisfied() const;

  /// Current value of the potential function Φ, in log space. The
  /// competitive analysis (Theorem 6) rests on Φ never increasing across
  /// arrivals; exposed so tests can observe the invariant.
  double log_potential() const { return log_potential_; }

 private:
  Ssrk(const Dataset& universe, Instance x0, Label y0,
       const Options& options);

  bool OverBudget() const;
  void AddFeatureToKey(FeatureId feature);

  /// Aggregated score mu_j = sum of weights of features where the universe
  /// row differs from x0.
  double RowScore(size_t universe_row) const;

  /// log Φ = log Σ_{j ∈ active} m^{2 mu_j}, computed stably (log-sum-exp).
  /// Summed over fixed 4096-row chunks of the ascending active-row list,
  /// partial sums combined in chunk order: a fixed floating-point rounding
  /// sequence, so Φ — and every comparison the greedy makes on it — is
  /// reproducible bit for bit.
  double LogPotential() const;

  Dataset universe_;
  Instance x0_;
  Label y0_;
  Options options_;

  FeatureSet key_;
  std::vector<double> weights_;     // importance weight per feature
  std::vector<size_t> active_;      // uncovered universe violators (set U)
  double log_potential_ = 0.0;      // Φ in log space
  double log_m_ = 0.0;

  size_t arrived_ = 0;
  std::vector<Instance> arrived_violators_;
};

}  // namespace cce

#endif  // CCE_CORE_SSRK_H_
