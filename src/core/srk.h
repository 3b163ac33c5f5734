#ifndef CCE_CORE_SRK_H_
#define CCE_CORE_SRK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "core/types.h"

namespace cce {

/// Algorithm SRK (paper Algorithm 1): greedy computation of an
/// alpha-conformant relative key for an instance x0 over a static context I.
///
/// Guarantees (paper Lemma 3): the returned key is alpha-conformant and
/// ln(alpha*|I|)-bounded, i.e. at most a logarithmic factor larger than the
/// most succinct alpha-conformant key. Runs in O(n^2 * |I|) worst case.
class Srk {
 public:
  /// Ties between equally good candidates go to the feature whose x0 value
  /// is most frequent among the context's first kTieBreakSampleRows rows.
  /// Every engine and the proxy's shard-index read path count the same
  /// prefix, so they all break ties identically.
  static constexpr size_t kTieBreakSampleRows = 2048;

  struct Options {
    /// Conformity bound in (0, 1]; 1 demands a (perfectly conformant)
    /// relative key.
    double alpha = 1.0;
    /// Per-call budget for the greedy search. When it expires mid-search
    /// the candidate enumeration stops and the key is completed by adding
    /// every remaining feature — maximally conformant but non-minimal —
    /// and the result is flagged `degraded`. Infinite by default.
    ///
    /// The bitset engine checks the deadline between greedy rounds rather
    /// than between candidate features, so expiry can be detected up to one
    /// candidate scan later than on the sorted-merge path.
    Deadline deadline;
    /// Runs the bitset greedy (ExplainParts, which every served key runs
    /// over shard-index slices) on one part built from the context: x0's
    /// violator and agreement bitmaps, then word-AND + popcount instead of
    /// sorted-row-id scans. Produces bit-identical keys to the sorted-merge
    /// reference loop (docs/algorithms.md "Determinism contract", enforced
    /// by tests/conformity_parallel_test.cc).
    bool parallel_conformity = false;
  };

  /// Explains the instance stored at `row` of `context`, whose label is the
  /// model prediction.
  static Result<KeyResult> Explain(const Context& context, size_t row,
                                   const Options& options);

  /// Explains an arbitrary (x0, y0) against `context`. x0 need not be a row
  /// of the context; its values must be expressed in the context schema.
  /// With parallel_conformity this builds x0's one-part BitsetPart over the
  /// context and runs ExplainParts' greedy on it.
  static Result<KeyResult> ExplainInstance(const Context& context,
                                           const Instance& x0, Label y0,
                                           const Options& options);

  /// One disjoint slice of a context for one (x0, y0), as the bitset greedy
  /// reads it. `block` holds n + 1 word arrays of `words` words each, bit i
  /// of every array standing for the same row:
  ///
  ///   block[0 .. words)                      violators: rows labelled != y0
  ///   block[(1 + f) * words .. (2 + f) * words)  rows agreeing with x0 on f
  ///
  /// Bits of non-rows (padding, evicted rows) must be clear in the violator
  /// array; the agreement arrays may carry them only outside
  /// [0, sample_bits). The greedy narrows the violator array in place.
  struct BitsetPart {
    uint64_t* block = nullptr;
    size_t words = 0;
    /// Bits [0, sample_bits) are this slice's share of the context's first
    /// kTieBreakSampleRows rows (the tie-break sample).
    size_t sample_bits = 0;
  };

  /// The bitset greedy over a context held as disjoint parts (e.g. the
  /// proxy's per-shard indexes): candidate counts and tie-break
  /// frequencies are sums over the parts, so the key is bit-identical to
  /// ExplainInstance over the merged context of `context_size` rows.
  /// ExplainInstance with parallel_conformity runs this same greedy on one
  /// part. The deadline is checked between greedy rounds.
  static Result<KeyResult> ExplainParts(const std::vector<BitsetPart>& parts,
                                        size_t num_features,
                                        size_t context_size, double alpha,
                                        const Deadline& deadline);

  /// One point of the conformity-succinctness trade-off curve.
  struct SweepPoint {
    size_t succinctness = 0;      // key size after this greedy step
    double achieved_alpha = 1.0;  // conformity at that size
    FeatureId picked = 0;         // feature added at this step
  };

  /// The full trade-off curve from a single greedy run: point k gives the
  /// conformity achieved by the first k greedy picks, so the most succinct
  /// greedy key for ANY alpha can be read off without re-running
  /// (Figures 3f/4a in one pass). The first entry is the empty key
  /// (succinctness 0); the curve's alphas are non-decreasing.
  static Result<std::vector<SweepPoint>> SweepTradeoff(
      const Context& context, size_t row);
};

}  // namespace cce

#endif  // CCE_CORE_SRK_H_
