#ifndef CCE_SERVING_READ_PATH_H_
#define CCE_SERVING_READ_PATH_H_

#include "common/deadline.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/key_result.h"

namespace cce::serving {

/// The reference key search over a materialized Context (Srk's sorted-merge
/// loop). No serving path calls it — the leader and every replica search
/// their shard indexes (docs/algorithms.md "The shard-index read path") —
/// it is what perfbench's reference chain times.
struct ReadPath {
  /// Conformity bound for the key search.
  double alpha = 1.0;
};

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

}  // namespace cce::serving

#endif  // CCE_SERVING_READ_PATH_H_
