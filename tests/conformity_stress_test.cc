// TSan stress for the bitset conformity engine: concurrent Explain traffic
// on a proxy reading its per-shard bitset indexes while Record traffic
// slides the window (driving incremental index maintenance and
// compactions under the shard locks), and concurrent queries on a shared
// BitsetConformityChecker while a writer drives incremental bitmap
// maintenance under the documented external lock. Run under
// SUITE=stress (ThreadSanitizer + CCE_STRESS=1 scaling).

#include <atomic>
#include <cstdlib>
#include <shared_mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bitset_conformity.h"
#include "core/conformity.h"
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

TEST(ConformityStressTest, ConcurrentQueriesAgainstIncrementalMaintenance) {
  Dataset data = testing::RandomContext(3000, 6, 3, 123);
  Dataset seed_window = data.Prefix(512);
  BitsetConformityChecker checker(&seed_window);

  // The documented contract: const queries may run concurrently; mutation
  // requires external synchronisation. A shared_mutex encodes exactly that,
  // and TSan verifies the engine doesn't touch shared state outside it.
  std::shared_mutex mu;
  std::atomic<bool> done{false};
  std::atomic<size_t> queries{0};
  const size_t slides = Scaled(400, 3000);

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      while (!done.load(std::memory_order_acquire)) {
        const Instance x0 = data.instance(rng.Uniform(data.size()));
        const Label y0 = static_cast<Label>(rng.Uniform(2));
        FeatureSet e;
        for (FeatureId f = 0; f < 6; ++f) {
          if (rng.Bernoulli(0.4)) e.push_back(f);
        }
        std::shared_lock<std::shared_mutex> lock(mu);
        const size_t violators = checker.CountViolators(x0, y0, e);
        EXPECT_LE(violators, checker.live_rows());
        EXPECT_TRUE(checker.IsAlphaConformant(x0, y0, e, 0.0));
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: slide the window one row at a time, like the proxy's rolling
  // context does.
  size_t oldest = 0;
  for (size_t i = 0; i < slides; ++i) {
    const size_t row = 512 + (i % (data.size() - 512));
    std::unique_lock<std::shared_mutex> lock(mu);
    checker.AddRow(data.instance(row), data.label(row));
    checker.RemoveRow(oldest++);
  }
  // On a loaded box the writer can finish every slide before a reader is
  // even scheduled; hold the run open until at least one query completed
  // so the queries > 0 assertion cannot flake.
  while (queries.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(queries.load(), 0u);
  {
    std::shared_lock<std::shared_mutex> lock(mu);
    EXPECT_EQ(checker.live_rows(), 512u);
    EXPECT_EQ(checker.allocated_rows(), 512u + slides);
  }
}

}  // namespace
}  // namespace cce
