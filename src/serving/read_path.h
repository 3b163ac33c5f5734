#ifndef CCE_SERVING_READ_PATH_H_
#define CCE_SERVING_READ_PATH_H_

#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cce.h"
#include "core/counterfactual.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "core/srk.h"
#include "obs/metrics.h"
#include "serving/context_shard.h"

namespace cce::serving {

/// The materialized explanation read path of read replicas: a
/// sequence-ordered row view becomes a Context, searched by Srk. The leader
/// proxy reads its shard indexes instead (docs/algorithms.md "The
/// shard-index read path"); both run the same greedy on exact integer
/// counts, which is what makes a caught-up replica's keys bit-identical to
/// the leader's, not merely equivalent.
struct ReadPath {
  /// Conformity bound for the key search.
  double alpha = 1.0;
  /// Use the blocked-bitset conformity engine (keys unchanged; see
  /// docs/algorithms.md).
  bool parallel_conformity = false;
  /// Worker pool for the bitset engine; null runs it serially.
  ThreadPool* pool = nullptr;
  /// Optional engine-stat sinks (cce_bitmap_rebuilds_total /
  /// cce_conformity_shards_total cells); null skips the export.
  obs::Counter* bitmap_rebuilds = nullptr;
  obs::Counter* conformity_shards = nullptr;
};

/// Builds the search context from rows already merged into global
/// sequence order (the caller sorts; this only materializes).
Context MaterializeContext(std::shared_ptr<const Schema> schema,
                           const std::vector<ContextShard::Row>& rows);

/// Relative key for (x, y) against `context` under `path`'s engine
/// configuration; exports engine stats into the path's counter sinks.
Result<KeyResult> SearchKey(const Context& context, const Instance& x,
                            Label y, const Deadline& deadline,
                            const ReadPath& path);

/// One item of a batched key search: (x, y) plus that item's own deadline.
using BatchQuery = Srk::BatchItem;

/// Closest counterfactual witnesses for (x, y) against `context`.
Result<std::vector<RelativeCounterfactual>> SearchCounterfactuals(
    const Context& context, const Instance& x, Label y);

}  // namespace cce::serving

#endif  // CCE_SERVING_READ_PATH_H_
