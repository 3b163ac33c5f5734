#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "serving/context_shard.h"
#include "serving/proxy.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// Kill-and-recover torture loop over a multi-shard durable proxy with a
/// seeded fault injector (torn writes, EIO, failed fsyncs, short reads) in
/// the I/O path. Invariants checked every iteration:
///
///   1. Create() never fails — I/O damage quarantines shards, it does not
///      kill the proxy.
///   2. Every record that was fsync-acknowledged (Record returned OK under
///      sync_every=1) is recovered, unless its shard was quarantined.
///   3. Surviving shards keep serving Record and Explain.
///   4. Explanations over a quarantine-degraded context say so.
///
/// Iterations default to 25 (tier-1 budget); `scripts/check.sh SUITE=crash`
/// exports CCE_CRASH_ITERS=200 for the full torture gate (ASan-clean).

struct OracleRow {
  Instance x;
  Label y = 0;
  bool operator==(const OracleRow& other) const {
    return x == other.x && y == other.y;
  }
};

/// True when `expected` is a subsequence of `actual` (order preserved;
/// resurrected rows — appended but not acknowledged before a fault — may
/// interleave).
bool IsSubsequence(const std::vector<OracleRow>& expected,
                   const std::vector<OracleRow>& actual) {
  size_t matched = 0;
  for (const OracleRow& row : actual) {
    if (matched < expected.size() && row == expected[matched]) ++matched;
  }
  return matched == expected.size();
}

size_t IterationBudget() {
  const char* raw = std::getenv("CCE_CRASH_ITERS");
  if (raw == nullptr) return 25;
  const long parsed = std::strtol(raw, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : 25;
}

TEST(CrashTortureTest, KillRecoverLoopNeverLosesAcknowledgedRecords) {
  const size_t kShards = 4;
  const size_t kIterations = IterationBudget();
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.path();

  Dataset data = cce::testing::RandomContext(300, 4, 2, 5, /*noise=*/0.1);
  Rng rng(20260807);
  // What must survive: per shard, the rows acknowledged as durable.
  std::vector<std::vector<OracleRow>> oracle(kShards);
  size_t quarantines_seen = 0;
  size_t repairs_done = 0;

  const uint64_t base_seed = cce::testing::FaultScheduleSeed(1000);
  for (size_t iter = 0; iter < kIterations; ++iter) {
    io::FaultInjectingEnv::Options fault_options;
    fault_options.seed = base_seed + iter;
    if (iter % 4 != 3) {  // every 4th iteration runs fault-free
      fault_options.write_error_probability = 0.02;
      fault_options.torn_write_probability = 0.01;
      fault_options.sync_error_probability = 0.01;
      // No short_read_probability here: a short read of a WAL is
      // indistinguishable from a torn tail, so salvage (correctly) drops
      // the suffix — that would fail the oracle without being a bug. Full
      // read errors quarantine instead, which the oracle excuses.
      fault_options.read_error_probability = 0.02;
    }
    io::FaultInjectingEnv fault(io::Env::Default(), fault_options);

    ExplainableProxy::Options options;
    options.monitor_drift = false;
    options.shards = kShards;
    options.durability.dir = dir;
    options.durability.sync_every = 1;
    options.durability.compact_threshold_bytes = 16 * 1024;
    options.durability.env = &fault;

    // Invariant 1: recovery is fail-soft, Create never fails.
    auto created = ExplainableProxy::Create(data.schema_ptr(), nullptr,
                                            options);
    ASSERT_TRUE(created.ok())
        << "iteration " << iter << " (CCE_FAULT_SEED="
        << fault_options.seed << "): " << created.status().ToString();
    ExplainableProxy& proxy = **created;

    // Invariant 2: acknowledged records of non-quarantined shards are back.
    HealthSnapshot health = proxy.Health();
    ASSERT_EQ(health.shards.size(), kShards);
    std::vector<std::vector<OracleRow>> recovered(kShards);
    Context merged = proxy.ContextSnapshot();
    for (size_t row = 0; row < merged.size(); ++row) {
      const size_t shard =
          ContextShard::ShardFor(merged.instance(row), kShards);
      recovered[shard].push_back(
          OracleRow{merged.instance(row), merged.label(row)});
    }
    for (size_t shard = 0; shard < kShards; ++shard) {
      if (health.shards[shard].state == ContextShard::State::kQuarantined) {
        ++quarantines_seen;
        oracle[shard].clear();  // quarantine abandons the generation
        continue;
      }
      ASSERT_TRUE(IsSubsequence(oracle[shard], recovered[shard]))
          << "iteration " << iter << " (CCE_FAULT_SEED="
          << fault_options.seed << ") shard " << shard << " lost "
          << "acknowledged records (" << oracle[shard].size()
          << " expected, " << recovered[shard].size() << " recovered)";
      // Re-baseline on what is actually in the window so resurrected rows
      // (durable but unacknowledged) are tracked from here on.
      oracle[shard] = std::move(recovered[shard]);
    }

    // Invariant 4: a degraded context is reported, and Explain flags it.
    EXPECT_EQ(health.degraded_context, health.shards_quarantined > 0);

    // Repair about half of the quarantined shards; the rest must keep
    // refusing writes while everything else serves.
    for (size_t shard = 0; shard < kShards; ++shard) {
      if (health.shards[shard].state == ContextShard::State::kQuarantined &&
          rng.Bernoulli(0.5)) {
        Status repaired = proxy.RepairShard(shard);
        EXPECT_TRUE(repaired.ok()) << repaired.ToString();
        if (repaired.ok()) ++repairs_done;
      }
    }
    health = proxy.Health();

    // Invariant 3: record through the faulty env until the kill point.
    const size_t kill_after = 8 + rng.Uniform(24);
    for (size_t i = 0; i < kill_after; ++i) {
      const size_t row = rng.Uniform(data.size());
      const Instance& x = data.instance(row);
      const Label y = data.label(row);
      Status recorded = proxy.Record(x, y);
      if (recorded.ok()) {
        oracle[ContextShard::ShardFor(x, kShards)].push_back(
            OracleRow{x, y});
      } else {
        // Only the fault vocabulary is acceptable: shard unavailable
        // (quarantined/read-only/failed fsync) or an injected I/O error.
        ASSERT_TRUE(recorded.code() == StatusCode::kUnavailable ||
                    recorded.code() == StatusCode::kIoError)
            << recorded.ToString();
      }
    }

    Context context = proxy.ContextSnapshot();
    if (context.size() > 0) {
      auto key = proxy.Explain(context.instance(0), context.label(0));
      ASSERT_TRUE(key.ok()) << key.status().ToString();
      if (proxy.Health().shards_quarantined > 0) {
        EXPECT_TRUE(key->degraded)
            << "explanations over an incomplete context must say so";
      }
    }
    // The proxy is dropped here with no clean shutdown — the kill point.
  }

  // The loop must have exercised real recovery traffic, and with injected
  // read faults some quarantines are expected over enough iterations; do
  // not hard-assert them for small tier-1 budgets.
  if (kIterations >= 200) {
    EXPECT_GT(quarantines_seen, 0u)
        << "200 faulty recoveries should quarantine at least once";
    EXPECT_GT(repairs_done, 0u);
  }
}

}  // namespace
}  // namespace cce::serving
