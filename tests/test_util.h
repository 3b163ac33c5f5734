#ifndef CCE_TESTS_TEST_UTIL_H_
#define CCE_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dataset.h"
#include "core/schema.h"

namespace cce::testing {

/// Base seed for every FaultInjectingEnv schedule in the fault-injection
/// suites. Defaults to `fallback`; the CCE_FAULT_SEED environment
/// variable overrides it, so a torture-test failure seen in CI can be
/// replayed locally with the exact same fault schedule
/// (CCE_FAULT_SEED=<seed> ctest -R ...). Tests add their iteration index
/// on top and print the effective seed in failure messages.
inline uint64_t FaultScheduleSeed(uint64_t fallback) {
  const char* raw = std::getenv("CCE_FAULT_SEED");
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<uint64_t>(parsed);
}

/// A fresh directory private to the running test: named after the test
/// suite, the test and the process id (so parallel ctest processes and
/// repeated runs never share one), created empty on construction and
/// removed with everything in it on destruction.
class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr
                           ? std::string("no_test")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    // Parameterized names carry '/'; keep the directory one level deep.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = ::testing::TempDir() + "/" + name + "." +
            std::to_string(::getpid());
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  const std::string& path() const { return path_; }
  /// `path()/name`.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// The example context of the paper's Figure 2 (features Gender, Income,
/// Credit, Dependent; 7 loan instances x0..x6). The relative key for x0 is
/// {Income, Credit}; the 6/7-conformant key is {Credit}.
struct Fig2Context {
  std::shared_ptr<Schema> schema;
  Dataset context;
  FeatureId gender, income, credit, dependent;
  Label denied, approved;

  Fig2Context() : context(nullptr) {
    schema = std::make_shared<Schema>();
    gender = schema->AddFeature("Gender");
    income = schema->AddFeature("Income");
    credit = schema->AddFeature("Credit");
    dependent = schema->AddFeature("Dependent");
    denied = schema->InternLabel("Denied");
    approved = schema->InternLabel("Approved");
    context = Dataset(schema);
    Add("Male", "3-4K", "poor", "1", denied);      // x0
    Add("Male", "5-6K", "poor", "1", approved);    // x1
    Add("Female", "3-4K", "poor", "2", denied);    // x2
    Add("Male", "3-4K", "poor", "1", denied);      // x3
    Add("Male", "1-2K", "poor", "1", denied);      // x4
    Add("Male", "3-4K", "good", "0", approved);    // x5
    Add("Male", "3-4K", "good", "1", approved);    // x6
  }

  void Add(const std::string& g, const std::string& i, const std::string& c,
           const std::string& d, Label label) {
    Instance x(4);
    x[gender] = schema->InternValue(gender, g);
    x[income] = schema->InternValue(income, i);
    x[credit] = schema->InternValue(credit, c);
    x[dependent] = schema->InternValue(dependent, d);
    context.Add(std::move(x), label);
  }
};

/// A random context over `n` features with the given per-feature domain
/// size and binary labels — the workhorse of the property tests. `noise` is
/// the label-flip rate; 0 makes labels a pure function of the features, so
/// no conflicting duplicates can arise.
inline Dataset RandomContext(size_t rows, size_t n, size_t domain,
                             uint64_t seed, double noise = 0.15) {
  auto schema = std::make_shared<Schema>();
  for (size_t f = 0; f < n; ++f) {
    FeatureId id = schema->AddFeature("A" + std::to_string(f));
    for (size_t v = 0; v < domain; ++v) {
      schema->InternValue(id, "v" + std::to_string(v));
    }
  }
  schema->InternLabel("neg");
  schema->InternLabel("pos");
  Dataset dataset(schema);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    Instance x(n);
    for (size_t f = 0; f < n; ++f) {
      x[f] = static_cast<ValueId>(rng.Uniform(domain));
    }
    // Label correlated with the first two features plus noise, so keys are
    // usually small but not trivial.
    bool positive = (x[0] % 2 == 0) == (n < 2 || x[1] % 2 == 0);
    if (noise > 0.0 && rng.Bernoulli(noise)) positive = !positive;
    dataset.Add(std::move(x), positive ? 1u : 0u);
  }
  return dataset;
}

}  // namespace cce::testing

#endif  // CCE_TESTS_TEST_UTIL_H_
