#include "serving/read_path.h"

#include "core/srk.h"

namespace cce::serving {

Result<KeyResult> SearchKey(const Context& context, const Instance& x,
                            Label y, const Deadline& deadline,
                            const ReadPath& path) {
  Srk::Options options;
  options.alpha = path.alpha;
  options.deadline = deadline;
  return Srk::ExplainInstance(context, x, y, options);
}

}  // namespace cce::serving
