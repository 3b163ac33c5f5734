#include "serving/read_path.h"

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
  return Srk::ExplainInstance(context, x, y, options);
}

Result<std::vector<RelativeCounterfactual>> SearchCounterfactuals(
    const Context& context, const Instance& x, Label y) {
  return CounterfactualFinder::FindForInstance(context, x, y, {});
}

}  // namespace cce::serving
