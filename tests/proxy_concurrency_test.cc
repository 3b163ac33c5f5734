// Concurrent Predict/Record/Explain/Health stress over one proxy: the
// internal mutex must keep the window, health counters and resilience
// machinery consistent. Run under scripts/check.sh (ASan/UBSan) and
// SANITIZER=thread scripts/check.sh -R ProxyConcurrency for the full gate.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "ml/gbdt.h"
#include "serving/proxy.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

class ProxyConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_unique<Dataset>(
        cce::testing::RandomContext(600, 5, 3, 42, /*noise=*/0.0));
    ml::Gbdt::Options options;
    options.num_trees = 10;
    auto model = ml::Gbdt::Train(*data_, options);
    CCE_CHECK_OK(model.status());
    model_ = std::move(model).value();
  }

  void Stress(ExplainableProxy* proxy, bool with_predict) {
    constexpr int kWriters = 3;
    constexpr int kReaders = 3;
    constexpr int kOpsPerThread = 150;
    // Seed the window so Explain never races an empty context check into
    // a FailedPrecondition (that path is valid, just uninteresting here).
    for (size_t row = 0; row < 32; ++row) {
      CCE_CHECK_OK(proxy->Record(data_->instance(row), data_->label(row)));
    }

    std::atomic<uint64_t> write_ok{32};
    std::atomic<uint64_t> explain_ok{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const size_t row = (w * kOpsPerThread + i) % data_->size();
          if (with_predict && i % 2 == 0) {
            if (proxy->Predict(data_->instance(row)).ok()) {
              write_ok.fetch_add(1);
            }
          } else {
            if (proxy->Record(data_->instance(row), data_->label(row))
                    .ok()) {
              write_ok.fetch_add(1);
            }
          }
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const size_t row = (r * 7 + i) % 32;
          switch (i % 3) {
            case 0: {
              auto key = proxy->Explain(data_->instance(row),
                                        data_->label(row));
              if (key.ok()) explain_ok.fetch_add(1);
              break;
            }
            case 1: {
              Context snapshot = proxy->ContextSnapshot();
              EXPECT_LE(snapshot.size(),
                        static_cast<size_t>(32 + kWriters * kOpsPerThread));
              break;
            }
            default: {
              HealthSnapshot health = proxy->Health();
              EXPECT_LE(health.predict_failures, health.predicts);
              break;
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(proxy->recorded(), write_ok.load())
        << "every successful write lands exactly once";
    EXPECT_GT(explain_ok.load(), 0u);
    HealthSnapshot health = proxy->Health();
    if (with_predict) EXPECT_GT(health.predicts, 0u);
  }

  std::unique_ptr<Dataset> data_;
  std::unique_ptr<ml::Gbdt> model_;
};

TEST_F(ProxyConcurrencyTest, ConcurrentRecordExplainHealth) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(proxy.ok());
  Stress(proxy->get(), /*with_predict=*/false);
}

TEST_F(ProxyConcurrencyTest, ConcurrentPredictRecordExplain) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.context_capacity = 128;  // exercise eviction under contention
  auto proxy =
      ExplainableProxy::Create(data_->schema_ptr(), model_.get(), options);
  ASSERT_TRUE(proxy.ok());
  Stress(proxy->get(), /*with_predict=*/true);
}

TEST_F(ProxyConcurrencyTest, ConcurrentTrafficWithDurability) {
  cce::testing::ScopedTestDir tmp;
  const std::string dir = tmp.path();
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.durability.dir = dir;
  // Batch fsyncs so the stress stays fast; compaction runs under load.
  options.durability.sync_every = 64;
  options.durability.compact_threshold_bytes = 4096;
  size_t total = 0;
  {
    auto proxy =
        ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
    ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();
    Stress(proxy->get(), /*with_predict=*/false);
    total = (*proxy)->recorded();
    EXPECT_GE((*proxy)->Health().wal_compactions, 1u);
  }
  // Everything the stress recorded is recovered on restart.
  auto revived =
      ExplainableProxy::Create(data_->schema_ptr(), nullptr, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recorded(), total);
}

}  // namespace
}  // namespace cce::serving
