// Google-benchmark micro-benchmarks for the core algorithms: SRK scaling
// in |I| and n, OSRK/SSRK per-arrival update cost, the conformity
// checker's index construction, SRK's sorted-merge vs bitset engine, and
// the cost of sliding a shard index's window (EXPERIMENTS.md "Bitset
// conformity engine" records the numbers).

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "core/conformity.h"
#include "core/osrk.h"
#include "core/srk.h"
#include "core/ssrk.h"
#include "serving/shard_index.h"
#include "tests/test_util.h"

namespace cce {
namespace {

void BM_SrkVsContextSize(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, {});
    benchmark::DoNotOptimize(key);
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SrkVsContextSize)->Range(512, 32768)->Complexity();

void BM_SrkVsFeatures(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(4096, n, 6, 42);
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, {});
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkVsFeatures)->RangeMultiplier(2)->Range(4, 64);

void BM_SrkAlpha(benchmark::State& state) {
  Dataset context = testing::RandomContext(8192, 12, 6, 42);
  Srk::Options options;
  options.alpha = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, options);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkAlpha)->Arg(100)->Arg(95)->Arg(90);

void BM_OsrkUpdate(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  Osrk::Options options;
  auto osrk = Osrk::Create(context.schema_ptr(), context.instance(0),
                           context.label(0), options);
  CCE_CHECK_OK(osrk.status());
  size_t row = 1;
  for (auto _ : state) {
    (*osrk)->Observe(context.instance(row), context.label(row));
    row = row + 1 < context.size() ? row + 1 : 1;
  }
}
BENCHMARK(BM_OsrkUpdate)->Range(1024, 16384);

void BM_SsrkUpdate(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset universe = testing::RandomContext(rows, 12, 6, 42);
  auto ssrk = Ssrk::Create(universe, universe.instance(0),
                           universe.label(0), {});
  CCE_CHECK_OK(ssrk.status());
  size_t row = 1;
  for (auto _ : state) {
    (*ssrk)->Observe(universe.instance(row), universe.label(row));
    row = row + 1 < universe.size() ? row + 1 : 1;
  }
}
BENCHMARK(BM_SsrkUpdate)->Range(1024, 16384);

void BM_ConformityIndexBuild(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  for (auto _ : state) {
    ConformityChecker checker(&context);
    benchmark::DoNotOptimize(checker);
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ConformityIndexBuild)->Range(1024, 32768)->Complexity();

void BM_ViolatorCountSorted(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  ConformityChecker checker(&context);
  FeatureSet key = {0, 3, 7};
  for (auto _ : state) {
    size_t violators =
        checker.CountViolators(context.instance(0), context.label(0), key);
    benchmark::DoNotOptimize(violators);
  }
}
BENCHMARK(BM_ViolatorCountSorted)->Arg(1 << 18)->Arg(1 << 21);

// -- SRK engine comparison: sorted-merge reference vs bitset greedy. ------
//
// Same context, same x0, same key.

void BM_SrkSorted(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, {});
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkSorted)->Arg(1 << 15)->Arg(1 << 18);

void BM_SrkBitset(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  Srk::Options options;
  options.parallel_conformity = true;
  // Explain builds x0's bitmaps from the materialized context on every
  // call, so this times build plus greedy. The proxy builds nothing per
  // Explain: it reads x0's slice of its persistent shard indexes.
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, options);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkBitset)->Arg(1 << 15)->Arg(1 << 18);

void BM_ShardIndexSlide(benchmark::State& state) {
  // One Record's worth of index maintenance on a full window: Push the new
  // row, PopFront the oldest. The window stays at 4096 rows, so the
  // half-live compaction (one memmove per bitmap, every 64 * k slides) is
  // amortized into the figure.
  constexpr size_t kWindow = 4096;
  Dataset context = testing::RandomContext(2 * kWindow, 12, 6, 42);
  serving::ShardIndex index(context.schema());
  size_t row = 0;
  for (; row < kWindow; ++row) {
    index.Push(context.instance(row), context.label(row));
  }
  for (auto _ : state) {
    index.Push(context.instance(row), context.label(row));
    benchmark::DoNotOptimize(index.PopFront());
    row = row + 1 < context.size() ? row + 1 : 0;
  }
}
BENCHMARK(BM_ShardIndexSlide);

void BM_ConformityPrecision(benchmark::State& state) {
  Dataset context = testing::RandomContext(16384, 12, 6, 42);
  ConformityChecker checker(&context);
  FeatureSet key = {0, 1, 5};
  for (auto _ : state) {
    double precision =
        checker.Precision(context.instance(0), context.label(0), key);
    benchmark::DoNotOptimize(precision);
  }
}
BENCHMARK(BM_ConformityPrecision);

}  // namespace
}  // namespace cce

BENCHMARK_MAIN();
