#ifndef CCE_SERVING_READ_PATH_H_
#define CCE_SERVING_READ_PATH_H_

#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/counterfactual.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "serving/context_shard.h"

namespace cce::serving {

/// The materialized explanation read path of read replicas: a
/// sequence-ordered row view becomes a Context, searched by Srk's
/// sorted-merge loop. The leader proxy instead runs the bitset greedy over
/// x0's slices of its shard indexes (docs/algorithms.md "The shard-index
/// read path"). The two agree bit for bit because every count either
/// engine compares is an exact integer and both break ties on the same
/// 2048-row prefix of the sequence-ordered context — which is what makes
/// a caught-up replica's keys identical to the leader's, not merely
/// equivalent.
struct ReadPath {
  /// Conformity bound for the key search.
  double alpha = 1.0;
};

/// Builds the search context from rows already merged into global
/// sequence order (the caller sorts; this only materializes).
Context MaterializeContext(std::shared_ptr<const Schema> schema,
                           const std::vector<ContextShard::Row>& rows);

/// Relative key for (x, y) against `context` at `path.alpha`.
Result<KeyResult> SearchKey(const Context& context, const Instance& x,
                            Label y, const Deadline& deadline,
                            const ReadPath& path);

/// One item of a batched key search: (x, y) plus that item's own deadline,
/// whose expiry degrades that item alone.
struct BatchQuery {
  Instance x;
  Label y = 0;
  Deadline deadline;
};

/// Closest counterfactual witnesses for (x, y) against `context`.
Result<std::vector<RelativeCounterfactual>> SearchCounterfactuals(
    const Context& context, const Instance& x, Label y);

}  // namespace cce::serving

#endif  // CCE_SERVING_READ_PATH_H_
