// TSan stress for the served conformity path: concurrent Explain traffic
// on a proxy reading its per-shard indexes (ShardIndex slices, copied
// under each shard lock) while Record traffic slides the window, driving
// index maintenance and compactions under the same locks. Once quiesced,
// the keys must equal the sorted-merge reference engine's. Run under
// SUITE=stress (ThreadSanitizer + CCE_STRESS=1 scaling).

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/srk.h"
#include "serving/proxy.h"
#include "tests/test_util.h"

namespace cce {
namespace {

size_t Scaled(size_t base, size_t stress) {
  return std::getenv("CCE_STRESS") != nullptr ? stress : base;
}

int64_t CounterValue(const obs::Registry& registry, const std::string& name) {
  for (const auto& family : registry.Collect()) {
    if (family.name != name) continue;
    int64_t total = 0;
    for (const auto& sample : family.samples) total += sample.value;
    return total;
  }
  return -1;
}

TEST(ConformityStressTest, ConcurrentExplainAgainstRecord) {
  Dataset data = testing::RandomContext(2000, 8, 4, 99);
  serving::ExplainableProxy::Options options;
  options.context_capacity = 512;  // the window slides during the run
  options.shards = 4;
  options.monitor_drift = false;
  auto proxy =
      serving::ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 256; ++row) {
    ASSERT_TRUE((*proxy)->Record(data.instance(row), data.label(row)).ok());
  }

  const size_t explains_per_thread = Scaled(30, 150);
  const size_t records_per_thread = Scaled(500, 4000);
  constexpr int kExplainers = 3;
  constexpr int kRecorders = 2;
  std::atomic<size_t> ok_explains{0};
  std::atomic<size_t> ok_records{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kExplainers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < explains_per_thread; ++i) {
        const size_t row = rng.Uniform(data.size());
        auto key = (*proxy)->Explain(data.instance(row), data.label(row));
        if (key.ok()) ok_explains.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (size_t i = 0; i < records_per_thread; ++i) {
        const size_t row = rng.Uniform(data.size());
        if ((*proxy)->Record(data.instance(row), data.label(row)).ok()) {
          ok_records.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_explains.load(), kExplainers * explains_per_thread);
  EXPECT_EQ(ok_records.load(), kRecorders * records_per_thread);
  // Evictions outnumber the window, so the shard indexes crossed the
  // half-live compaction threshold while Explains were reading them.
  EXPECT_GE(CounterValue((*proxy)->registry(), "cce_bitmap_rebuilds_total"),
            1);
  // Quiesced, the index path answers exactly as the reference engine
  // does on the merged window.
  const Context window = (*proxy)->ContextSnapshot();
  for (size_t row = 0; row < 32; ++row) {
    auto want = Srk::ExplainInstance(window, data.instance(row),
                                     data.label(row), Srk::Options());
    auto got = (*proxy)->Explain(data.instance(row), data.label(row));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->key, want->key) << "row " << row;
    EXPECT_EQ(got->pick_order, want->pick_order) << "row " << row;
  }
}

}  // namespace
}  // namespace cce
