// The shard-index read path (docs/algorithms.md "The shard-index read
// path"): every ContextShard keeps a persistent bitset index of its window
// (a ShardIndex), and the proxy's Explain/ExplainBatch search copies of
// x0's slice of those indexes instead of a materialized context. The
// contract is exact: after ANY sequence of window changes — Records,
// capacity eviction, compaction, index compactions at the half-live
// threshold, quarantine + repair, durable restarts — the proxy's keys equal
// Srk::ExplainInstance (the sorted-merge reference engine) on
// ContextSnapshot() in every field, at 1 and 4 shards. Underneath, every
// slice ShardIndex copies is checked bit for bit against its window. A
// Record-vs-Explain race runs in SUITE=stress under TSan.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "core/srk.h"
#include "obs/metrics.h"
#include "serving/proxy.h"
#include "serving/shard_index.h"
#include "serving/shard_layout.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

int StressScale() {
  const char* env = std::getenv("CCE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 4 : 1;
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

/// Queries that exercise both labels, recorded rows and perturbed
/// instances (values the window may not hold at all). `domain` is the
/// per-feature value count of `data`.
std::vector<BatchQuery> MakeQueries(const Dataset& data, size_t domain,
                                    Rng* rng, size_t count) {
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    BatchQuery query;
    query.x = data.instance(rng->Uniform(data.size()));
    if (rng->Bernoulli(0.3)) {
      query.x[rng->Uniform(query.x.size())] =
          static_cast<ValueId>(rng->Uniform(domain));
    }
    query.y = static_cast<Label>(rng->Uniform(2));
    query.deadline = Deadline::Infinite();
    queries.push_back(std::move(query));
  }
  return queries;
}

void ExpectSameKey(const KeyResult& want, const KeyResult& got,
                   const std::string& what) {
  EXPECT_EQ(want.key, got.key) << what;
  EXPECT_EQ(want.pick_order, got.pick_order) << what;
  EXPECT_EQ(want.satisfied, got.satisfied) << what;
  EXPECT_EQ(want.achieved_alpha, got.achieved_alpha) << what;
  EXPECT_EQ(want.degraded, got.degraded) << what;
}

/// Proxy Explain and ExplainBatch against the reference engine on the
/// proxy's own merged window. A quarantined shard flags every key
/// degraded (the context is incomplete); all other fields still match.
void ExpectIndexMatchesReference(const ExplainableProxy& proxy,
                                 const std::vector<BatchQuery>& queries,
                                 double alpha, const std::string& what) {
  const Context window = proxy.ContextSnapshot();
  const bool quarantined = proxy.Health().degraded_context;
  const std::vector<Result<KeyResult>> batch = proxy.ExplainBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string label = what + " query " + std::to_string(q);
    auto scalar = proxy.Explain(queries[q].x, queries[q].y);
    if (window.size() == 0) {
      EXPECT_EQ(scalar.status().code(), StatusCode::kFailedPrecondition)
          << label;
      EXPECT_EQ(batch[q].status().code(), StatusCode::kFailedPrecondition)
          << label;
      continue;
    }
    Srk::Options options;
    options.alpha = alpha;
    auto want =
        Srk::ExplainInstance(window, queries[q].x, queries[q].y, options);
    ASSERT_TRUE(want.ok()) << label;
    KeyResult expected = *want;
    expected.degraded = expected.degraded || quarantined;
    ASSERT_TRUE(scalar.ok()) << label << ": " << scalar.status().ToString();
    ASSERT_TRUE(batch[q].ok()) << label << ": "
                               << batch[q].status().ToString();
    ExpectSameKey(expected, *scalar, label + " (scalar)");
    ExpectSameKey(expected, batch[q].value(), label + " (batch)");
  }
}

void CorruptFile(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "CCESNAP 1\ncovers zaphod\n";
}

struct Scenario {
  size_t shards;
  double alpha;
  uint64_t seed;
};

class ShardIndexPropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ShardIndexPropertyTest, SeededInterleavingsMatchReferenceEngine) {
  const Scenario scenario = GetParam();
  cce::testing::ScopedTestDir dir;
  const Dataset data =
      cce::testing::RandomContext(3000, 6, 3, scenario.seed, /*noise=*/0.2);
  ExplainableProxy::Options options;
  options.shards = scenario.shards;
  options.alpha = scenario.alpha;
  options.monitor_drift = false;
  options.context_capacity = 240;
  options.durability.dir = dir.path();
  options.durability.sync_every = 0;
  // A small log limit makes compactions part of ordinary Record traffic.
  options.durability.compact_threshold_bytes = 4096;

  auto open = [&] {
    auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
    CCE_CHECK_OK(proxy.status());
    return std::move(proxy).value();
  };
  std::unique_ptr<ExplainableProxy> proxy = open();
  Rng rng(scenario.seed * 7919 + scenario.shards);
  size_t next_row = 0;
  auto record = [&](size_t rows) {
    for (size_t i = 0; i < rows; ++i) {
      const size_t row = next_row++ % data.size();
      Status recorded = proxy->Record(data.instance(row), data.label(row));
      // Rows routed to a quarantined shard are refused; that is the
      // shard's contract, not a failure of the index.
      if (!recorded.ok()) {
        ASSERT_EQ(recorded.code(), StatusCode::kUnavailable)
            << recorded.ToString();
      }
    }
  };

  const int steps = 40 * StressScale();
  int64_t rebuilds = 0;
  uint64_t compactions = 0;
  size_t restarts = 0;
  size_t repairs = 0;
  for (int step = 0; step < steps; ++step) {
    const std::string what = "shards " + std::to_string(scenario.shards) +
                             " seed " + std::to_string(scenario.seed) +
                             " step " + std::to_string(step);
    switch (rng.Uniform(6)) {
      case 0:
      case 1:
        // A short burst: single-row window changes.
        record(1 + rng.Uniform(8));
        break;
      case 2:
        // A burst longer than the window slides all of it out, so every
        // shard index crosses the half-live threshold and is compacted.
        record(250 + rng.Uniform(150));
        break;
      case 3:
        // Durable restart: the indexes are rebuilt from recovery replay.
        rebuilds += CounterValue(proxy->registry(),
                                 "cce_bitmap_rebuilds_total");
        compactions += proxy->Health().wal_compactions;
        proxy.reset();
        proxy = open();
        ++restarts;
        break;
      case 4: {
        // Quarantine one shard (unsalvageable snapshot found at restart),
        // check the degraded read, then repair it.
        rebuilds += CounterValue(proxy->registry(),
                                 "cce_bitmap_rebuilds_total");
        compactions += proxy->Health().wal_compactions;
        proxy.reset();
        const size_t shard = rng.Uniform(scenario.shards);
        CorruptFile(dir.File(ShardFileName(shard, "snapshot")));
        proxy = open();
        ASSERT_EQ(proxy->Health().shards[shard].state,
                  ContextShard::State::kQuarantined)
            << what;
        ExpectIndexMatchesReference(*proxy, MakeQueries(data, 3, &rng, 3),
                                    scenario.alpha, what + " quarantined");
        CCE_CHECK_OK(proxy->RepairShard(shard));
        ++repairs;
        break;
      }
      default:
        // An Explain-only step: reads must not disturb the index.
        break;
    }
    ExpectIndexMatchesReference(*proxy, MakeQueries(data, 3, &rng, 4),
                                scenario.alpha, what);
    if (::testing::Test::HasFatalFailure()) return;
  }
  rebuilds += CounterValue(proxy->registry(), "cce_bitmap_rebuilds_total");
  compactions += proxy->Health().wal_compactions;
  // The seeds are chosen so that every kind of window change happened.
  EXPECT_GT(rebuilds, 0) << "no index crossed the half-live threshold";
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(repairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shards, ShardIndexPropertyTest,
    ::testing::Values(Scenario{1, 1.0, 11}, Scenario{1, 0.9, 12},
                      Scenario{4, 1.0, 13}, Scenario{4, 0.95, 14}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return "shards" + std::to_string(info.param.shards) + "_seed" +
             std::to_string(info.param.seed);
    });

/// Checks every bit of the slices AppendSlices put after `prefix` words of
/// `words` for `queries`: window row i is bit first_bit + i of each array,
/// set exactly when the row violates (array 0) or agrees with x on feature
/// f (array 1 + f); every other bit is clear.
void ExpectExactSlices(const ShardIndex::Slices& slices,
                       const std::vector<uint64_t>& words, size_t prefix,
                       const std::vector<ShardIndex::SliceQuery>& queries,
                       const std::deque<std::pair<Instance, Label>>& window,
                       size_t num_features, const std::string& what) {
  ASSERT_EQ(slices.offset, prefix) << what;
  ASSERT_LT(slices.first_bit, 64u) << what;
  ASSERT_EQ(slices.words, (slices.first_bit + window.size() + 63) / 64)
      << what;
  ASSERT_EQ(words.size(),
            prefix + queries.size() * (num_features + 1) * slices.words)
      << what;
  const uint64_t* array = words.data() + slices.offset;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t a = 0; a <= num_features; ++a) {
      for (size_t bit = 0; bit < 64 * slices.words; ++bit) {
        const bool set = (array[bit >> 6] >> (bit & 63)) & 1;
        bool want = false;
        if (bit >= slices.first_bit &&
            bit < slices.first_bit + window.size()) {
          const auto& [x, y] = window[bit - slices.first_bit];
          want = a == 0 ? y != queries[q].y
                        : x[a - 1] == (*queries[q].x)[a - 1];
        }
        ASSERT_EQ(set, want) << what << " query " << q << " array " << a
                             << " bit " << bit;
      }
      array += slices.words;
    }
  }
}

TEST(ShardIndexTest, SlicesAreExactRowSetsAcrossSlidesAndCompactions) {
  constexpr size_t kFeatures = 4;
  constexpr size_t kDomain = 3;
  constexpr size_t kWindow = 300;
  const Dataset data =
      cce::testing::RandomContext(4000, kFeatures, kDomain, 51);
  ShardIndex index(data.schema());
  std::deque<std::pair<Instance, Label>> window;
  Rng rng(52);
  // A value and a label the schema never interned: no bitmap backs them.
  Instance alien = data.instance(0);
  alien[2] = static_cast<ValueId>(kDomain);
  const Label alien_label = 7;

  size_t next_row = 0;
  auto push = [&] {
    const size_t row = next_row++ % data.size();
    index.Push(data.instance(row), data.label(row));
    window.emplace_back(data.instance(row), data.label(row));
  };
  auto check = [&](const std::string& what) {
    const Instance& recorded = window[rng.Uniform(window.size())].first;
    const Instance& other = data.instance(rng.Uniform(data.size()));
    const std::vector<ShardIndex::SliceQuery> queries = {
        {&recorded, 0}, {&other, 1}, {&alien, alien_label}, {&alien, 0}};
    // Slices append after whatever the buffer already holds.
    const size_t prefix = rng.Uniform(5);
    std::vector<uint64_t> words(prefix, ~uint64_t{0});
    const ShardIndex::Slices slices = index.AppendSlices(queries, &words);
    ExpectExactSlices(slices, words, prefix, queries, window, kFeatures,
                      what);
    for (size_t w = 0; w < prefix; ++w) ASSERT_EQ(words[w], ~uint64_t{0});
  };

  for (size_t i = 0; i < kWindow; ++i) push();
  size_t compactions = 0;
  // Checking every 7th slide walks first_bit through all 64 offsets.
  for (size_t slide = 0; slide < 3000; ++slide) {
    push();
    window.pop_front();
    const bool compacted = index.PopFront();
    if (compacted) ++compactions;
    if (compacted || slide % 7 == 0) {
      check("slide " + std::to_string(slide));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(compactions, 10u);
  EXPECT_GT(index.bytes(), 0u);

  // Shrink the window to one row, then empty it: an empty index appends
  // nothing.
  while (window.size() > 1) {
    window.pop_front();
    index.PopFront();
  }
  check("one row");
  window.pop_front();
  index.PopFront();
  std::vector<uint64_t> words(3, 0);
  const ShardIndex::Slices empty = index.AppendSlices({{&alien, 0}}, &words);
  EXPECT_EQ(empty.offset, 3u);
  EXPECT_EQ(empty.words, 0u);
  EXPECT_EQ(words.size(), 3u);

  // Clear frees every bitmap; the index then fills again from id 0.
  for (size_t i = 0; i < 100; ++i) push();
  index.Clear();
  window.clear();
  EXPECT_EQ(index.bytes(), 0u);
  for (size_t i = 0; i < 70; ++i) push();
  check("after clear");
}

TEST(ShardIndexTest, TieBreakSampleSpansShardsInArrivalOrder) {
  // More rows than the tie-break sample, spread over 4 shards: the sample
  // is the first Srk::kTieBreakSampleRows rows of the MERGED window, so
  // each shard contributes a different share of its head. Keys (including
  // pick order, where ties are decided) must still match the reference.
  const Dataset data =
      cce::testing::RandomContext(6000, 8, 2, 21, /*noise=*/0.3);
  ExplainableProxy::Options options;
  options.shards = 4;
  options.monitor_drift = false;
  options.context_capacity = 2 * Srk::kTieBreakSampleRows + 100;
  auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < data.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
  }
  Rng rng(22);
  ExpectIndexMatchesReference(**proxy, MakeQueries(data, 2, &rng, 24), 1.0,
                              "slid window");
}

TEST(ShardIndexTest, IndexMemoryStaysWithinDomainBound) {
  // One bitmap per (feature, value) of the schema domain and one per
  // label, each at most 4 * peak window + 126 bits: the bound
  // docs/operations.md "Sizing the shard index" states. A high-cardinality
  // feature dominates it, whether or not its values occur.
  constexpr size_t kWide = 5000;
  auto schema = std::make_shared<Schema>();
  for (size_t f = 0; f < 5; ++f) {
    const FeatureId id = schema->AddFeature("A" + std::to_string(f));
    for (size_t v = 0; v < 4; ++v) {
      schema->InternValue(id, "v" + std::to_string(v));
    }
  }
  const FeatureId wide = schema->AddFeature("wide");
  for (size_t v = 0; v < kWide; ++v) {
    schema->InternValue(wide, "w" + std::to_string(v));
  }
  schema->InternLabel("neg");
  schema->InternLabel("pos");
  const size_t bitmaps = 5 * 4 + kWide + 2;

  Dataset data(schema);
  Rng rng(41);
  for (size_t row = 0; row < 12000; ++row) {
    Instance x(6);
    for (size_t f = 0; f < 5; ++f) x[f] = static_cast<ValueId>(rng.Uniform(4));
    x[wide] = static_cast<ValueId>(rng.Uniform(kWide));
    const Label y = static_cast<Label>((x[0] + x[1]) % 2);
    data.Add(std::move(x), y);
  }

  ExplainableProxy::Options options;
  options.shards = 4;
  options.monitor_drift = false;
  options.context_capacity = 4096;
  auto proxy = ExplainableProxy::Create(schema, nullptr, options);
  ASSERT_TRUE(proxy.ok());
  std::vector<size_t> peak_window(options.shards, 0);
  size_t index_bytes = 0;
  for (size_t row = 0; row < data.size(); ++row) {
    CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
    index_bytes = 0;
    for (const auto& shard : (*proxy)->Health().shards) {
      peak_window[shard.index] =
          std::max(peak_window[shard.index], shard.window_rows);
      const size_t bound_bits = 4 * peak_window[shard.index] + 126;
      const size_t bound = bitmaps * ((bound_bits + 63) / 64) * 8;
      ASSERT_LE(shard.index_bytes, bound)
          << "shard " << shard.index << " after row " << row;
      index_bytes += shard.index_bytes;
    }
  }
  EXPECT_GT(CounterValue((*proxy)->registry(), "cce_bitmap_rebuilds_total"),
            0);
  // At 4 Ki rows over 4 shards the dense bitmaps cost about a kilobyte per
  // row per thousand domain values.
  EXPECT_GT(index_bytes, bitmaps * options.context_capacity / 8);
  ExpectIndexMatchesReference(**proxy, MakeQueries(data, 4, &rng, 8), 1.0,
                              "wide domain");
}

TEST(ShardIndexTest, RecordRacingExplainStaysExactOnceQuiesced) {
  const int scale = StressScale();
  const Dataset data =
      cce::testing::RandomContext(2000, 6, 3, 31, /*noise=*/0.15);
  ExplainableProxy::Options options;
  options.shards = 4;
  options.monitor_drift = false;
  // A bounded window: the writers slide it, so shard indexes evict and
  // compact while readers copy slices out of them.
  options.context_capacity = 128;
  auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  ASSERT_TRUE(proxy.ok());
  for (size_t row = 0; row < 128; ++row) {
    CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
  }

  // Each shard holds about a quarter of the 128-row window and compacts
  // once 64 of its rows have been evicted. The writers record at least
  // kMinRecords rows each before they honour `stop`, so every shard slides
  // past that threshold several times over however the readers race them.
  constexpr size_t kMinRecords = 1024;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (size_t recorded = 0;
           recorded < kMinRecords || !stop.load(std::memory_order_relaxed);
           ++recorded) {
        const size_t row = rng.Uniform(data.size());
        CCE_CHECK_OK((*proxy)->Record(data.instance(row), data.label(row)));
      }
    });
  }
  std::vector<std::thread> readers;
  std::atomic<size_t> answered{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      for (int i = 0; i < 60 * scale; ++i) {
        const std::vector<BatchQuery> queries = MakeQueries(data, 3, &rng, 3);
        const auto batch = (*proxy)->ExplainBatch(queries);
        auto scalar = (*proxy)->Explain(queries[0].x, queries[0].y);
        ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
        for (const auto& key : batch) {
          ASSERT_TRUE(key.ok()) << key.status().ToString();
          // Whatever window the read saw, the answer is a well-formed key.
          EXPECT_LE(key->key.size(), data.num_features());
          EXPECT_LE(key->pick_order.size(), key->key.size());
          EXPECT_GE(key->achieved_alpha, 0.0);
          EXPECT_LE(key->achieved_alpha, 1.0);
        }
        answered.fetch_add(1 + batch.size(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(answered.load(), 2u * 60 * scale * 4);
  EXPECT_GT(CounterValue((*proxy)->registry(), "cce_bitmap_rebuilds_total"),
            0);

  Rng rng(300);
  ExpectIndexMatchesReference(**proxy, MakeQueries(data, 3, &rng, 8), 1.0,
                              "quiesced");
}

}  // namespace
}  // namespace cce::serving
