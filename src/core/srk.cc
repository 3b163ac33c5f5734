#include "core/srk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/conformity.h"

namespace cce {

namespace {

using BitsetPart = Srk::BitsetPart;

/// floor((1 - alpha) * rows), with the epsilon guard every engine shares so
/// the budget is the same integer wherever it is computed.
size_t ViolatorBudget(double alpha, size_t rows) {
  return static_cast<size_t>(
      std::floor((1.0 - alpha) * static_cast<double>(rows) + 1e-9));
}

size_t WordsFor(size_t rows) { return (rows + 63) / 64; }

const uint64_t* AgreeWords(const BitsetPart& part, FeatureId f) {
  return part.block + (1 + static_cast<size_t>(f)) * part.words;
}

size_t CountWords(const uint64_t* words, size_t count) {
  size_t bits = 0;
  for (size_t w = 0; w < count; ++w) bits += std::popcount(words[w]);
  return bits;
}

/// Set bits among positions [0, limit) of `words`.
size_t CountPrefixWords(const uint64_t* words, size_t limit) {
  const size_t full = limit >> 6;
  size_t bits = CountWords(words, full);
  if ((limit & 63) != 0) {
    bits += std::popcount(words[full] & ((uint64_t{1} << (limit & 63)) - 1));
  }
  return bits;
}

size_t AndCountWords(const uint64_t* a, const uint64_t* b, size_t count) {
  size_t bits = 0;
  for (size_t w = 0; w < count; ++w) bits += std::popcount(a[w] & b[w]);
  return bits;
}

/// The one greedy of the bitset engine: the same decision sequence as the
/// sorted-row-id loop in ExplainInstance below, over violator and agreement
/// word arrays split into disjoint parts (one part for a materialized
/// Context, one per shard for the proxy's index read path). Every compared
/// quantity — candidate counts, tie-break frequencies — is an exact integer
/// summed over the parts, and the arg-min scan runs in ascending feature
/// order, so the key does not depend on how the rows are split into parts.
KeyResult RunBitsetGreedy(const std::vector<BitsetPart>& parts, size_t n,
                          size_t context_size, size_t tolerated,
                          const Deadline& deadline) {
  KeyResult result;

  // Same sampled tie-break frequencies as the reference loop: a prefix
  // popcount of A_f is the integer the sampled row scan produces.
  std::vector<size_t> value_frequency(n, 0);
  size_t violator_count = 0;
  for (const BitsetPart& part : parts) {
    violator_count += CountWords(part.block, part.words);
    for (FeatureId f = 0; f < n; ++f) {
      value_frequency[f] +=
          CountPrefixWords(AgreeWords(part, f), part.sample_bits);
    }
  }

  std::vector<bool> in_key(n, false);
  const bool bounded = !deadline.infinite();
  auto finish_degraded = [&]() -> KeyResult {
    for (FeatureId f = 0; f < n; ++f) {
      if (!in_key[f]) FeatureSetInsert(&result.key, f);
    }
    // Survivors of the all-feature key are exact duplicates of x0: the
    // violators that agree with it on every feature.
    size_t surviving = 0;
    for (const BitsetPart& part : parts) {
      for (size_t w = 0; w < part.words; ++w) {
        uint64_t acc = part.block[w];
        for (FeatureId f = 0; f < n && acc != 0; ++f) {
          acc &= AgreeWords(part, f)[w];
        }
        surviving += std::popcount(acc);
      }
    }
    result.degraded = true;
    result.achieved_alpha =
        1.0 - static_cast<double>(surviving) /
                  static_cast<double>(context_size);
    result.satisfied = surviving <= tolerated;
    return result;
  };

  while (violator_count > tolerated) {
    if (bounded && deadline.expired()) return finish_degraded();
    FeatureId best_feature = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    size_t best_frequency = 0;
    for (FeatureId f = 0; f < n; ++f) {
      if (in_key[f]) continue;
      size_t count = 0;
      for (const BitsetPart& part : parts) {
        count += AndCountWords(part.block, AgreeWords(part, f), part.words);
      }
      if (count < best_count ||
          (count == best_count && value_frequency[f] > best_frequency)) {
        best_count = count;
        best_feature = f;
        best_frequency = value_frequency[f];
      }
    }
    if (best_count == std::numeric_limits<size_t>::max() ||
        best_count == violator_count) {
      result.satisfied = false;
      break;
    }

    in_key[best_feature] = true;
    FeatureSetInsert(&result.key, best_feature);
    result.pick_order.push_back(best_feature);
    for (const BitsetPart& part : parts) {
      const uint64_t* agree = AgreeWords(part, best_feature);
      for (size_t w = 0; w < part.words; ++w) part.block[w] &= agree[w];
    }
    violator_count = best_count;
  }

  result.achieved_alpha =
      context_size == 0
          ? 1.0
          : 1.0 - static_cast<double>(violator_count) /
                      static_cast<double>(context_size);
  if (violator_count <= tolerated) result.satisfied = true;
  return result;
}

/// The bitset engine over a materialized context: for a fixed x0 the greedy
/// only reads the (f, x0[f]) slice of the (feature, value) bitmap family,
/// so only that slice is built — one BitsetPart block holding V (label !=
/// y0) and A_f (value of f == x0[f]) over every context row. Words are
/// accumulated locally, one store per 64 rows per array.
std::vector<uint64_t> BuildBlock(const Context& context, const Instance& x0,
                                 Label y0) {
  const size_t n = context.num_features();
  const size_t context_size = context.size();
  const size_t words = WordsFor(context_size);
  std::vector<uint64_t> block((n + 1) * words, 0);
  std::vector<uint64_t> acc(n + 1);
  for (size_t w = 0; w < words; ++w) {
    std::fill(acc.begin(), acc.end(), 0);
    const size_t row_begin = w << 6;
    const size_t row_end = std::min(context_size, row_begin + 64);
    for (size_t row = row_begin; row < row_end; ++row) {
      const Instance& xr = context.instance(row);
      const uint64_t bit = uint64_t{1} << (row - row_begin);
      if (context.label(row) != y0) acc[0] |= bit;
      for (FeatureId f = 0; f < n; ++f) {
        if (xr[f] == x0[f]) acc[1 + f] |= bit;
      }
    }
    for (size_t a = 0; a <= n; ++a) block[a * words + w] = acc[a];
  }
  return block;
}

}  // namespace

Result<KeyResult> Srk::Explain(const Context& context, size_t row,
                               const Options& options) {
  if (row >= context.size()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " outside context of size " +
                              std::to_string(context.size()));
  }
  return ExplainInstance(context, context.instance(row), context.label(row),
                         options);
}

Result<std::vector<Srk::SweepPoint>> Srk::SweepTradeoff(
    const Context& context, size_t row) {
  if (row >= context.size()) {
    return Status::OutOfRange("row outside context");
  }
  const Instance& x0 = context.instance(row);
  const Label y0 = context.label(row);
  const size_t n = context.num_features();
  const double context_size = static_cast<double>(context.size());

  std::vector<size_t> violators;
  for (size_t r = 0; r < context.size(); ++r) {
    if (context.label(r) != y0) violators.push_back(r);
  }

  std::vector<SweepPoint> curve;
  curve.push_back(SweepPoint{
      0, 1.0 - static_cast<double>(violators.size()) / context_size,
      static_cast<FeatureId>(n)});  // sentinel: no pick for the empty key

  // Same sampled-frequency tie-break as ExplainInstance, so the sweep's
  // pick sequence matches per-alpha Explain calls exactly.
  const size_t sample_rows = std::min(context.size(), kTieBreakSampleRows);
  std::vector<size_t> value_frequency(n, 0);
  for (size_t r = 0; r < sample_rows; ++r) {
    for (FeatureId f = 0; f < n; ++f) {
      if (context.value(r, f) == x0[f]) ++value_frequency[f];
    }
  }

  std::vector<bool> in_key(n, false);
  size_t key_size = 0;
  // Greedy to exhaustion: each step records the conformity the prefix key
  // achieves, yielding the whole alpha-vs-succinctness curve in one run.
  while (!violators.empty() && key_size < n) {
    FeatureId best_feature = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    size_t best_frequency = 0;
    for (FeatureId f = 0; f < n; ++f) {
      if (in_key[f]) continue;
      size_t count = 0;
      for (size_t r : violators) {
        if (context.value(r, f) == x0[f]) ++count;
      }
      if (count < best_count ||
          (count == best_count && value_frequency[f] > best_frequency)) {
        best_count = count;
        best_feature = f;
        best_frequency = value_frequency[f];
      }
    }
    if (best_count == violators.size()) break;  // no feature helps
    in_key[best_feature] = true;
    ++key_size;
    std::vector<size_t> surviving;
    surviving.reserve(best_count);
    for (size_t r : violators) {
      if (context.value(r, best_feature) == x0[best_feature]) {
        surviving.push_back(r);
      }
    }
    violators = std::move(surviving);
    curve.push_back(SweepPoint{
        key_size,
        1.0 - static_cast<double>(violators.size()) / context_size,
        best_feature});
  }
  return curve;
}

Result<KeyResult> Srk::ExplainInstance(const Context& context,
                                       const Instance& x0, Label y0,
                                       const Options& options) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (x0.size() != context.num_features()) {
    return Status::InvalidArgument("instance arity does not match schema");
  }

  const size_t n = context.num_features();
  const size_t context_size = context.size();
  const size_t tolerated = ViolatorBudget(options.alpha, context_size);

  if (options.parallel_conformity) {
    std::vector<uint64_t> block = BuildBlock(context, x0, y0);
    return RunBitsetGreedy(
        {BitsetPart{block.data(), WordsFor(context_size),
                    std::min(context_size, kTieBreakSampleRows)}},
        n, context_size, tolerated, options.deadline);
  }

  KeyResult result;

  // Violators: rows that agree with x0 on the current key E yet are
  // predicted differently. With E empty that is every differently-predicted
  // row. The greedy loop shrinks this set monotonically.
  std::vector<size_t> violators;
  for (size_t row = 0; row < context_size; ++row) {
    if (context.label(row) != y0) violators.push_back(row);
  }

  std::vector<bool> in_key(n, false);

  // Note: Algorithm 1 as printed always selects at least one feature; we
  // first check whether the empty key already satisfies the bound (possible
  // for alpha < 1 or single-class contexts), which is strictly more succinct
  // and still alpha-conformant.
  // Per-feature context frequency of x0's value, used only to break ties in
  // the greedy step: among equally-violator-minimising features, prefer the
  // one agreeing with the most context rows, which keeps the key's coverage
  // (and hence recall, Section 7.1(c)) high. Algorithm 1 leaves ties open.
  // A fixed-size prefix sample suffices — ties only need approximate
  // frequencies — keeping this pass O(n) amortised for large contexts.
  const size_t sample_rows = std::min(context_size, kTieBreakSampleRows);
  std::vector<size_t> value_frequency(n, 0);
  for (size_t row = 0; row < sample_rows; ++row) {
    for (FeatureId f = 0; f < n; ++f) {
      if (context.value(row, f) == x0[f]) ++value_frequency[f];
    }
  }

  // Deadline handling: when the per-call budget expires mid-search we stop
  // enumerating candidates and *pad* the key with every remaining feature.
  // The all-feature key is the most conformant key that exists (only exact
  // duplicates of x0 with a different prediction survive it), so the result
  // remains alpha-conformant whenever any key is — just not minimal. The
  // caller sees `degraded = true`.
  const bool bounded = !options.deadline.infinite();
  auto finish_degraded = [&]() -> KeyResult {
    for (FeatureId f = 0; f < n; ++f) {
      if (!in_key[f]) FeatureSetInsert(&result.key, f);
    }
    std::vector<size_t> surviving;
    for (size_t row : violators) {
      bool duplicate = true;
      for (FeatureId f = 0; f < n && duplicate; ++f) {
        duplicate = context.value(row, f) == x0[f];
      }
      if (duplicate) surviving.push_back(row);
    }
    violators = std::move(surviving);
    result.degraded = true;
    result.achieved_alpha =
        1.0 - static_cast<double>(violators.size()) /
                  static_cast<double>(context_size);
    result.satisfied = violators.size() <= tolerated;
    return result;
  };

  while (violators.size() > tolerated) {
    if (bounded && options.deadline.expired()) return finish_degraded();
    // Greedy step (Algorithm 1 lines 1-6): pick the feature minimising the
    // number of surviving violators, i.e. |I[A_i = a_i] ∩ violators|.
    FeatureId best_feature = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    size_t best_frequency = 0;
    bool scan_expired = false;
    for (FeatureId f = 0; f < n; ++f) {
      if (in_key[f]) continue;
      // Check inside the candidate scan too: one full scan over a large
      // violator set can dwarf a millisecond-scale budget.
      if (bounded && options.deadline.expired()) {
        scan_expired = true;
        break;
      }
      size_t count = 0;
      for (size_t row : violators) {
        if (context.value(row, f) == x0[f]) ++count;
      }
      if (count < best_count ||
          (count == best_count && value_frequency[f] > best_frequency)) {
        best_count = count;
        best_feature = f;
        best_frequency = value_frequency[f];
      }
    }
    if (scan_expired) return finish_degraded();
    if (best_count == std::numeric_limits<size_t>::max() ||
        best_count == violators.size()) {
      // Either all features are used up, or no remaining feature removes a
      // single violator (conflicting duplicates): the target is unreachable.
      if (best_count == violators.size() &&
          best_count != std::numeric_limits<size_t>::max()) {
        // Adding more features cannot help; stop with the current key.
      }
      result.satisfied = false;
      break;
    }

    in_key[best_feature] = true;
    FeatureSetInsert(&result.key, best_feature);
    result.pick_order.push_back(best_feature);

    std::vector<size_t> surviving;
    surviving.reserve(best_count);
    for (size_t row : violators) {
      if (context.value(row, best_feature) == x0[best_feature]) {
        surviving.push_back(row);
      }
    }
    violators = std::move(surviving);
  }

  result.achieved_alpha =
      context_size == 0
          ? 1.0
          : 1.0 - static_cast<double>(violators.size()) /
                      static_cast<double>(context_size);
  if (violators.size() <= tolerated) result.satisfied = true;
  return result;
}

Result<KeyResult> Srk::ExplainParts(const std::vector<BitsetPart>& parts,
                                    size_t num_features, size_t context_size,
                                    double alpha, const Deadline& deadline) {
  if (alpha <= 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  return RunBitsetGreedy(parts, num_features, context_size,
                         ViolatorBudget(alpha, context_size), deadline);
}

}  // namespace cce
