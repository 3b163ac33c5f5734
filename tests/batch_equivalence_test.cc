// The batch determinism contract (docs/algorithms.md "The shard-index read
// path"): ExplainableProxy::ExplainBatch reads every item's slice of the
// shard indexes in one pass, yet returns keys bit-identical to the
// reference engine per item — at any batch split, across window slides,
// and while Record traffic races the batch (the TSan angle of the stress
// suite).

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
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
/// both labels, so one shared index read serves heterogeneous queries.
std::vector<serving::BatchQuery> MakeBatch(const Dataset& context,
                                           size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<serving::BatchQuery> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serving::BatchQuery item;
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

/// A live-search proxy (no cache) over 4 shards, capped at `capacity`
/// rows (0 = unbounded).
std::unique_ptr<serving::ExplainableProxy> LiveProxy(const Dataset& data,
                                                     size_t capacity) {
  serving::ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.explain_cache.capacity = 0;
  options.shards = 4;
  options.context_capacity = capacity;
  auto proxy =
      serving::ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(proxy.status());
  return std::move(*proxy);
}

TEST(BatchEquivalenceTest, AnyBatchSplitGivesTheSameKeys) {
  Dataset context = testing::RandomContext(500, 8, 4, 51);
  const std::vector<serving::BatchQuery> items = MakeBatch(context, 20, 52);
  auto proxy = LiveProxy(context, 0);
  for (size_t row = 0; row < context.size(); ++row) {
    CCE_CHECK_OK(proxy->Record(context.instance(row), context.label(row)));
  }
  const auto whole = proxy->ExplainBatch(items);
  ASSERT_EQ(whole.size(), items.size());

  Rng rng(53);
  for (int trial = 0; trial < 5; ++trial) {
    // Cut the batch at random points; concatenated results must match the
    // whole-batch run exactly.
    size_t begin = 0;
    while (begin < items.size()) {
      const size_t take = 1 + rng.Uniform(items.size() - begin);
      std::vector<serving::BatchQuery> chunk(items.begin() + begin,
                                             items.begin() + begin + take);
      const auto part = proxy->ExplainBatch(chunk);
      ASSERT_EQ(part.size(), take);
      for (size_t i = 0; i < take; ++i) {
        ASSERT_TRUE(whole[begin + i].ok());
        ASSERT_TRUE(part[i].ok());
        ExpectSameKey(whole[begin + i].value(), part[i].value(),
                      "trial " + std::to_string(trial) + " item " +
                          std::to_string(begin + i));
      }
      begin += take;
    }
  }
}

TEST(BatchEquivalenceTest, EquivalenceHoldsAcrossWindowSlides) {
  Dataset full = testing::RandomContext(700, 8, 4, 61);
  const std::vector<serving::BatchQuery> items = MakeBatch(full, 12, 62);
  // The same batch re-explained as a 350-row window fills and then slides:
  // every answer must agree with the reference engine over the window as
  // it stands at that moment.
  auto proxy = LiveProxy(full, 350);
  size_t recorded = 0;
  for (size_t target : {100u, 350u, 700u}) {
    for (; recorded < target; ++recorded) {
      CCE_CHECK_OK(proxy->Record(full.instance(recorded),
                                 full.label(recorded)));
    }
    const Dataset window = proxy->ContextSnapshot();
    const auto got = proxy->ExplainBatch(items);
    ASSERT_EQ(got.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      auto want = Srk::ExplainInstance(window, items[i].x, items[i].y,
                                       Srk::Options());
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got[i].ok());
      ExpectSameKey(*want, got[i].value(),
                    "recorded " + std::to_string(target) + " item " +
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
