// The batch determinism contract (docs/algorithms.md "Amortized batch
// Explain"): Srk::ExplainBatch shares ONE bitmap build across every item
// yet returns keys bit-identical to running ExplainInstance per item — at
// any pool width, any batch split, and across window slides. The proxy's
// ExplainBatch inherits the same contract end to end, including while
// Record traffic races the batch (the TSan angle of the stress suite).

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/srk.h"
#include "serving/proxy.h"
#include "serving/read_path.h"
#include "tests/test_util.h"

namespace cce {
namespace {

int StressScale() {
  const char* env = std::getenv("CCE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 4 : 1;
}

/// A mixed batch over `context`: existing rows, perturbed instances, and
/// both labels, so the shared build serves heterogeneous queries.
std::vector<Srk::BatchItem> MakeBatch(const Dataset& context, size_t count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Srk::BatchItem> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Srk::BatchItem item;
    item.x = context.instance(rng.Uniform(context.size()));
    if (rng.Bernoulli(0.3)) {
      item.x[rng.Uniform(item.x.size())] = static_cast<ValueId>(rng.Uniform(4));
    }
    item.y = static_cast<Label>(rng.Uniform(2));
    items.push_back(std::move(item));
  }
  return items;
}

void ExpectSameKey(const KeyResult& want, const KeyResult& got,
                   const std::string& what) {
  EXPECT_EQ(want.key, got.key) << what;
  EXPECT_EQ(want.pick_order, got.pick_order) << what;
  EXPECT_EQ(want.achieved_alpha, got.achieved_alpha) << what;
  EXPECT_EQ(want.satisfied, got.satisfied) << what;
  EXPECT_EQ(want.degraded, got.degraded) << what;
}

TEST(BatchEquivalenceTest, BatchKeysIdenticalToSerialAtAnyPoolWidth) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    Dataset context = testing::RandomContext(600, 8, 4, seed);
    for (double alpha : {1.0, 0.9}) {
      const std::vector<Srk::BatchItem> items = MakeBatch(context, 24, seed);

      // Serial reference: each item explained independently.
      std::vector<KeyResult> want;
      for (const Srk::BatchItem& item : items) {
        Srk::Options serial;
        serial.alpha = alpha;
        auto one = Srk::ExplainInstance(context, item.x, item.y, serial);
        ASSERT_TRUE(one.ok());
        want.push_back(*one);
      }

      for (size_t threads : {0u, 1u, 4u}) {
        Srk::Options options;
        options.alpha = alpha;
        options.parallel_conformity = true;
        ThreadPool pool(threads == 0 ? 1 : threads);
        options.pool = threads == 0 ? nullptr : &pool;
        Srk::EngineStats stats;
        options.stats = &stats;
        auto got = Srk::ExplainBatch(context, items, options);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->size(), items.size());
        EXPECT_EQ(stats.bitmap_builds.load(), 1u)
            << "one shared build for the whole batch";
        for (size_t i = 0; i < items.size(); ++i) {
          ExpectSameKey(want[i], (*got)[i],
                        "seed " + std::to_string(seed) + " alpha " +
                            std::to_string(alpha) + " threads " +
                            std::to_string(threads) + " item " +
                            std::to_string(i));
        }
      }
    }
  }
}

TEST(BatchEquivalenceTest, AnyBatchSplitGivesTheSameKeys) {
  Dataset context = testing::RandomContext(500, 8, 4, 51);
  const std::vector<Srk::BatchItem> items = MakeBatch(context, 20, 52);
  ThreadPool pool(4);
  Srk::Options options;
  options.parallel_conformity = true;
  options.pool = &pool;

  auto whole = Srk::ExplainBatch(context, items, options);
  ASSERT_TRUE(whole.ok());

  Rng rng(53);
  for (int trial = 0; trial < 5; ++trial) {
    // Cut the batch at random points; concatenated results must match the
    // whole-batch run exactly (and therefore the serial run, transitively).
    std::vector<KeyResult> stitched;
    size_t begin = 0;
    while (begin < items.size()) {
      const size_t take = 1 + rng.Uniform(items.size() - begin);
      std::vector<Srk::BatchItem> chunk(items.begin() + begin,
                                        items.begin() + begin + take);
      auto part = Srk::ExplainBatch(context, chunk, options);
      ASSERT_TRUE(part.ok());
      stitched.insert(stitched.end(), part->begin(), part->end());
      begin += take;
    }
    ASSERT_EQ(stitched.size(), whole->size());
    for (size_t i = 0; i < stitched.size(); ++i) {
      ExpectSameKey((*whole)[i], stitched[i],
                    "trial " + std::to_string(trial) + " item " +
                        std::to_string(i));
    }
  }
}

TEST(BatchEquivalenceTest, EquivalenceHoldsAcrossWindowSlides) {
  Dataset full = testing::RandomContext(700, 8, 4, 61);
  const std::vector<Srk::BatchItem> items = MakeBatch(full, 12, 62);
  ThreadPool pool(3);
  // The same batch re-explained as the window grows: each slide is a fresh
  // shared build, and every one must agree with the serial path over the
  // context as it stands at that moment.
  for (size_t window : {100u, 350u, 700u}) {
    Dataset context = full.Prefix(window);
    Srk::Options options;
    options.parallel_conformity = true;
    options.pool = &pool;
    auto got = Srk::ExplainBatch(context, items, options);
    ASSERT_TRUE(got.ok());
    for (size_t i = 0; i < items.size(); ++i) {
      Srk::Options serial;
      auto want =
          Srk::ExplainInstance(context, items[i].x, items[i].y, serial);
      ASSERT_TRUE(want.ok());
      ExpectSameKey(*want, (*got)[i],
                    "window " + std::to_string(window) + " item " +
                        std::to_string(i));
    }
  }
}

TEST(BatchEquivalenceTest, ProxyBatchMatchesSerialExplains) {
  testing::Fig2Context fig2;
  serving::ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.explain_cache.capacity = 0;  // compare live searches, not cache
  auto proxy =
      serving::ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  std::vector<serving::BatchQuery> items;
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    items.push_back({fig2.context.instance(row), fig2.context.label(row),
                     Deadline::Infinite()});
  }
  auto batch = (*proxy)->ExplainBatch(items);
  ASSERT_EQ(batch.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto serial = (*proxy)->Explain(items[i].x, items[i].y);
    ASSERT_TRUE(serial.ok()) << "item " << i;
    ASSERT_TRUE(batch[i].ok()) << "item " << i;
    ExpectSameKey(*serial, batch[i].value(), "item " + std::to_string(i));
  }
  // One execution for the batch, then one per scalar Explain (a batch of
  // one).
  serving::HealthSnapshot health = (*proxy)->Health();
  EXPECT_EQ(health.batch_executions, 1u + items.size());
  EXPECT_EQ(health.batch_items, 2 * items.size());
}

TEST(BatchEquivalenceTest, BatchInvalidItemFailsAloneNotTheBatch) {
  testing::Fig2Context fig2;
  serving::ExplainableProxy::Options options;
  options.monitor_drift = false;
  auto proxy =
      serving::ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  Instance poisoned = fig2.context.instance(0);
  poisoned[fig2.credit] = 999;  // far outside Credit's domain
  std::vector<serving::BatchQuery> items = {
      {fig2.context.instance(0), fig2.denied, Deadline::Infinite()},
      {poisoned, fig2.denied, Deadline::Infinite()},
      {fig2.context.instance(5), fig2.approved, Deadline::Infinite()},
  };
  auto batch = (*proxy)->ExplainBatch(items);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[2].ok());
  EXPECT_EQ(batch[0].value().key, (FeatureSet{fig2.income, fig2.credit}));
}

TEST(BatchEquivalenceTest, BatchRacingRecordsQuiescesToSerialKeys) {
  const int scale = StressScale();
  testing::Fig2Context fig2;
  serving::ExplainableProxy::Options options;
  options.monitor_drift = false;
  // Bound the window: the writer thread below records in a tight loop, and
  // an unbounded context would grow for as long as the scheduler favours
  // the writer — every ExplainBatch would scan a larger window than the
  // last, making the runtime schedule-dependent (pathological under TSan).
  options.context_capacity = 64;
  auto proxy =
      serving::ExplainableProxy::Create(fig2.schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < fig2.context.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(fig2.context.instance(row),
                                  fig2.context.label(row)));
  }
  std::vector<serving::BatchQuery> items = {
      {fig2.context.instance(0), fig2.denied, Deadline::Infinite()},
      {fig2.context.instance(5), fig2.approved, Deadline::Infinite()},
  };
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(71);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t row = rng.Uniform(fig2.context.size());
      CCE_CHECK_OK(
          (*proxy)->Record(fig2.context.instance(row), fig2.context.label(row)));
    }
  });
  // Each batch sees SOME consistent window; every item's answer must be a
  // real key for that window, so OK items always carry a non-empty key.
  for (int iter = 0; iter < 50 * scale; ++iter) {
    auto batch = (*proxy)->ExplainBatch(items);
    ASSERT_EQ(batch.size(), items.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << "iter " << iter << " item " << i;
      EXPECT_FALSE(batch[i].value().key.empty());
    }
  }
  stop.store(true);
  writer.join();
  // Quiesced: the racing writes have settled, batch and serial answers over
  // the final window must agree exactly.
  auto final_batch = (*proxy)->ExplainBatch(items);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(final_batch[i].ok());
    auto serial = (*proxy)->Explain(items[i].x, items[i].y);
    ASSERT_TRUE(serial.ok());
    if (!serial->cached) {
      ExpectSameKey(*serial, final_batch[i].value(),
                    "quiesced item " + std::to_string(i));
    } else {
      EXPECT_EQ(serial->key, final_batch[i].value().key);
    }
  }
}

}  // namespace
}  // namespace cce
