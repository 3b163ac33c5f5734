#include "serving/read_path.h"

#include <atomic>
#include <utility>

#include "core/srk.h"

namespace cce::serving {

Context MaterializeContext(std::shared_ptr<const Schema> schema,
                           const std::vector<ContextShard::Row>& rows) {
  Context context(std::move(schema));
  for (const ContextShard::Row& row : rows) context.Add(row.x, row.y);
  return context;
}

Result<KeyResult> SearchKey(const Context& context, const Instance& x,
                            Label y, const Deadline& deadline,
                            const ReadPath& path) {
  Srk::Options options;
  options.alpha = path.alpha;
  options.deadline = deadline;
  Srk::EngineStats engine_stats;
  if (path.parallel_conformity) {
    options.parallel_conformity = true;
    options.pool = path.pool;
    options.stats = &engine_stats;
  }
  Result<KeyResult> key = Srk::ExplainInstance(context, x, y, options);
  if (path.parallel_conformity) {
    const uint64_t builds =
        engine_stats.bitmap_builds.load(std::memory_order_relaxed);
    if (builds > 0 && path.bitmap_rebuilds != nullptr) {
      path.bitmap_rebuilds->Add(builds);
    }
    const uint64_t shards =
        engine_stats.shard_tasks.load(std::memory_order_relaxed);
    if (shards > 0 && path.conformity_shards != nullptr) {
      path.conformity_shards->Add(shards);
    }
  }
  return key;
}

Result<std::vector<RelativeCounterfactual>> SearchCounterfactuals(
    const Context& context, const Instance& x, Label y) {
  return CounterfactualFinder::FindForInstance(context, x, y, {});
}

}  // namespace cce::serving
