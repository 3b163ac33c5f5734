#include "obs/metrics.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace cce::obs {

namespace internal {

size_t ThreadShard() {
  static thread_local const size_t shard =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  return shard;
}

}  // namespace internal

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

/// Canonical child key: labels sorted by key, rendered "k1=v1,k2=v2". The
/// value bytes go in verbatim — uniqueness, not readability, is the goal.
std::string LabelSignature(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string signature;
  for (const auto& [key, value] : sorted) {
    signature += key;
    signature += '=';
    signature += value;
    signature += ',';
  }
  return signature;
}

}  // namespace

// ------------------------------------------------------------------ Counter

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

// -------------------------------------------------------------------- Gauge

int64_t Gauge::Value() const {
  {
    std::lock_guard<std::mutex> lock(callback_mu_);
    if (callback_) return callback_();
  }
  return value_.load(std::memory_order_relaxed);
}

uint64_t Gauge::SetCallback(std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(callback_mu_);
  callback_ = std::move(fn);
  return ++callback_token_;
}

void Gauge::ClearCallback(uint64_t token) {
  std::lock_guard<std::mutex> lock(callback_mu_);
  if (callback_token_ == token) callback_ = nullptr;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(const Options& options, const std::atomic<bool>* enabled)
    : enabled_(enabled) {
  const int sub = std::max(1, options.sub_buckets_per_octave);
  const int64_t max_value = std::max<int64_t>(sub, options.max_value);
  for (int64_t bound = 1; bound <= sub; ++bound) bounds_.push_back(bound);
  for (int64_t octave = sub; octave < max_value; octave *= 2) {
    const int64_t step = octave / sub;
    for (int i = 1; i <= sub; ++i) {
      const int64_t bound = octave + i * step;
      if (bound > max_value) break;
      bounds_.push_back(bound);
    }
  }
  cells_ = std::vector<std::atomic<uint64_t>>(internal::kShards *
                                              (bounds_.size() + 1));
  for (auto& sum : sums_) sum.store(0, std::memory_order_relaxed);
}

size_t Histogram::BucketIndex(int64_t value) const {
  // First finite bound >= value; everything past the last bound overflows
  // into the trailing +Inf bucket.
  return std::lower_bound(bounds_.begin(), bounds_.end(), value) -
         bounds_.begin();
}

void Histogram::Observe(int64_t value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  if (value < 0) value = 0;
  const size_t shard = internal::ThreadShard() & (internal::kShards - 1);
  const size_t num_buckets = bounds_.size() + 1;
  cells_[shard * num_buckets + BucketIndex(value)].fetch_add(
      1, std::memory_order_relaxed);
  sums_[shard].fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  const size_t num_buckets = bounds_.size() + 1;
  snapshot.counts.assign(num_buckets, 0);
  for (size_t shard = 0; shard < internal::kShards; ++shard) {
    for (size_t b = 0; b < num_buckets; ++b) {
      snapshot.counts[b] +=
          cells_[shard * num_buckets + b].load(std::memory_order_relaxed);
    }
    snapshot.sum += sums_[shard].load(std::memory_order_relaxed);
  }
  for (uint64_t c : snapshot.counts) snapshot.count += c;
  return snapshot;
}

// ----------------------------------------------------------------- Registry

Registry::Registry(const Options& options)
    : clock_(options.clock), enabled_(options.enabled) {
  if (!clock_) {
    clock_ = [] { return std::chrono::steady_clock::now(); };
  }
}

Registry::Child* Registry::GetChild(const std::string& name,
                                    const std::string& help, MetricType type,
                                    const Labels& labels) {
  CCE_CHECK(ValidMetricName(name));
  for (const auto& [key, value] : labels) {
    CCE_CHECK(ValidMetricName(key));
    (void)value;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [family_it, created] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (created) {
    family.help = help;
    family.type = type;
  } else {
    // A name registered twice with a different type or help text would
    // make exposition depend on which site registered first; that is a
    // programmer error, not a runtime condition. An empty help is a
    // lookup of a family registered elsewhere.
    CCE_CHECK(family.type == type);
    CCE_CHECK(help.empty() || family.help == help);
  }
  Child& child = family.children[LabelSignature(labels)];
  if (child.labels.empty() && !labels.empty()) {
    child.labels = labels;
    std::sort(child.labels.begin(), child.labels.end());
  }
  return &child;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help,
                              const Labels& labels) {
  Child* child = GetChild(name, help, MetricType::kCounter, labels);
  if (child->counter == nullptr) {
    child->counter.reset(new Counter(&enabled_));
  }
  return child->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const Labels& labels) {
  Child* child = GetChild(name, help, MetricType::kGauge, labels);
  if (child->gauge == nullptr) {
    child->gauge.reset(new Gauge(&enabled_));
  }
  return child->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels,
                                  const Histogram::Options& options) {
  Child* child = GetChild(name, help, MetricType::kHistogram, labels);
  if (child->histogram == nullptr) {
    child->histogram.reset(new Histogram(options, &enabled_));
  }
  return child->histogram.get();
}

std::vector<Registry::FamilySnapshot> Registry::Collect() const {
  // Two phases: copy the family/child structure under the registry mutex,
  // then read values outside it so gauge callbacks may take their own locks
  // (e.g. the proxy mutex) without inverting against ours.
  struct PendingSample {
    Labels labels;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  struct PendingFamily {
    std::string name;
    std::string help;
    MetricType type;
    std::vector<PendingSample> samples;
  };
  std::vector<PendingFamily> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.reserve(families_.size());
    for (const auto& [name, family] : families_) {
      PendingFamily out{name, family.help, family.type, {}};
      out.samples.reserve(family.children.size());
      for (const auto& [signature, child] : family.children) {
        out.samples.push_back(PendingSample{child.labels, child.counter.get(),
                                            child.gauge.get(),
                                            child.histogram.get()});
      }
      pending.push_back(std::move(out));
    }
  }
  std::vector<FamilySnapshot> result;
  result.reserve(pending.size());
  for (const PendingFamily& family : pending) {
    FamilySnapshot out{family.name, family.help, family.type, {}};
    for (const PendingSample& sample : family.samples) {
      SampleSnapshot snapshot;
      snapshot.labels = sample.labels;
      if (sample.counter != nullptr) {
        snapshot.value = static_cast<int64_t>(sample.counter->Value());
      } else if (sample.gauge != nullptr) {
        snapshot.value = sample.gauge->Value();
      } else if (sample.histogram != nullptr) {
        snapshot.histogram = sample.histogram->TakeSnapshot();
      }
      out.samples.push_back(std::move(snapshot));
    }
    result.push_back(std::move(out));
  }
  return result;
}

Registry& GlobalRegistry() {
  static Registry* global = new Registry();
  return *global;
}

// --------------------------------------------------------- ThreadPoolGauges

ThreadPoolGauges::ThreadPoolGauges(Registry* registry, const ThreadPool* pool,
                                   const std::string& pool_name) {
  if (registry == nullptr || pool == nullptr) return;
  const Labels labels = {{"pool", pool_name}};
  depth_ = registry->GetGauge("cce_thread_pool_queue_depth",
                              "Tasks queued (not yet running) in the pool.",
                              labels);
  depth_token_ = depth_->SetCallback(
      [pool] { return static_cast<int64_t>(pool->queued()); });
  threads_ = registry->GetGauge("cce_thread_pool_threads",
                                "Worker threads in the pool.", labels);
  threads_token_ = threads_->SetCallback(
      [pool] { return static_cast<int64_t>(pool->num_threads()); });
}

ThreadPoolGauges::~ThreadPoolGauges() {
  if (depth_ != nullptr) depth_->ClearCallback(depth_token_);
  if (threads_ != nullptr) threads_->ClearCallback(threads_token_);
}

}  // namespace cce::obs
