#ifndef CCE_OBS_METRICS_H_
#define CCE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cce {
class ThreadPool;
}  // namespace cce

namespace cce::obs {

/// Process-wide metrics substrate (DESIGN.md §9). Three metric kinds in the
/// Prometheus tradition:
///
///   Counter   — monotonically increasing event count. Writes are sharded
///               across cache-line-aligned atomics (one relaxed fetch_add on
///               the shard owned by the calling thread's hash), so the
///               serving hot path pays roughly one uncontended cache line
///               per increment even when many threads instrument at once.
///   Gauge     — a settable level (queue depth, breaker state, live limit),
///               either stored or computed on read by a callback.
///   Histogram — a log-linear latency distribution: every power-of-two
///               octave is split into `sub_buckets_per_octave` linear
///               buckets, giving ~12% relative resolution across six
///               decades with ~100 buckets. Same sharding as counters.
///
/// Metrics are created through (and owned by) a Registry; the returned raw
/// pointers stay valid for the registry's lifetime and are safe to hammer
/// from any thread. Families are keyed by name, children by their label
/// set, so a metric exists in exactly one place — HealthSnapshot, the
/// Prometheus endpoint and the JSON endpoint all read the same cells.
///
/// A registry can be disabled (set_enabled(false)): every write becomes a
/// single relaxed load + branch, which is how bench_obs measures the cost
/// of instrumentation itself.

/// Label set of one metric child, e.g. {{"class", "predict"}}. Order given
/// at creation is normalised (sorted by key) internally.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

namespace internal {
/// Stable per-thread shard index; cheap (one thread_local read).
size_t ThreadShard();
constexpr size_t kShards = 8;
}  // namespace internal

/// Monotonically increasing event counter with sharded storage.
class Counter {
 public:
  void Increment() { Add(1); }

  void Add(uint64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[internal::ThreadShard() & (internal::kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over shards. Relaxed: concurrent writers may not be visible yet;
  /// exact after the writing threads are joined (or under a happens-before
  /// edge such as a mutex).
  uint64_t Value() const;

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, internal::kShards> shards_;
  const std::atomic<bool>* enabled_;
};

/// A settable level. Value() is either the stored cell or, when a callback
/// is bound, the callback's result — that is how cheap pull-style gauges
/// (thread-pool queue depth) are exposed without a write on every change.
class Gauge {
 public:
  void Set(int64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void Add(int64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const;

  /// Binds `fn` as the value source; returns a token for ClearCallback.
  /// The callback must stay valid until cleared; it is invoked under the
  /// gauge's own mutex, so clearing synchronises with in-flight reads.
  uint64_t SetCallback(std::function<int64_t()> fn);

  /// Unbinds the callback if `token` still owns it (a later SetCallback
  /// wins, which makes RAII binders safe to stack on one gauge name).
  void ClearCallback(uint64_t token);

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<int64_t> value_{0};
  const std::atomic<bool>* enabled_;
  mutable std::mutex callback_mu_;
  std::function<int64_t()> callback_;
  uint64_t callback_token_ = 0;
};

/// Log-linear histogram of non-negative integer observations (the serving
/// layer records microseconds). Bucket upper bounds are 1..S, then every
/// octave [S·2^k, S·2^(k+1)) split into S linear steps — e.g. with S=4:
/// 1,2,3,4,5,6,7,8,10,12,14,16,20,24,28,32,... plus a +Inf overflow bucket.
class Histogram {
 public:
  struct Options {
    /// Largest finite bucket bound; observations beyond land in +Inf.
    int64_t max_value = int64_t{1} << 30;
    /// Linear sub-buckets per power-of-two octave (resolution knob).
    int sub_buckets_per_octave = 4;
  };

  /// Point-in-time copy: per-bucket (non-cumulative) counts aligned with
  /// `bounds`, the +Inf overflow count last, plus total count and sum.
  struct Snapshot {
    std::vector<int64_t> bounds;   // finite upper bounds, ascending
    std::vector<uint64_t> counts;  // bounds.size() + 1 (last = +Inf)
    uint64_t count = 0;
    int64_t sum = 0;
  };

  void Observe(int64_t value);

  Snapshot TakeSnapshot() const;

  /// Finite bucket upper bounds (shared by every shard).
  const std::vector<int64_t>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  Histogram(const Options& options, const std::atomic<bool>* enabled);

  size_t BucketIndex(int64_t value) const;

  std::vector<int64_t> bounds_;
  /// Shard-major flat storage: shard s, bucket b at [s * num_buckets + b],
  /// where num_buckets = bounds_.size() + 1 (+Inf last).
  std::vector<std::atomic<uint64_t>> cells_;
  std::array<std::atomic<int64_t>, internal::kShards> sums_;
  const std::atomic<bool>* enabled_;
};

/// Owner and lookup point for every metric. Thread-safe. Creation is
/// find-or-create: asking twice for the same (name, labels) returns the
/// same cell, which is what lets the proxy, the overload controller and the
/// exposition endpoints agree on one set of counters.
class Registry {
 public:
  using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

  struct Options {
    /// Injectable monotonic clock used by ScopedLatency and anything else
    /// that times against this registry; tests drive it manually.
    ClockFn clock;
    /// Initial enabled state (see set_enabled).
    bool enabled = true;
  };

  Registry() : Registry(Options{}) {}
  explicit Registry(const Options& options);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. `help` is recorded on first creation; a type clash, or
  /// a non-empty help that differs from the recorded one, is a programmer
  /// error and aborts. An empty help looks up a family without restating
  /// its help.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {},
                          const Histogram::Options& options = {});

  /// Master write switch: when false every Increment/Add/Set/Observe is a
  /// relaxed load + branch and nothing else. Collection still works (it
  /// reports whatever was recorded while enabled).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::chrono::steady_clock::time_point now() const { return clock_(); }
  const ClockFn& clock() const { return clock_; }

  /// One collected sample (child) of a family.
  struct SampleSnapshot {
    Labels labels;  // sorted by key
    int64_t value = 0;  // counter / gauge reading
    Histogram::Snapshot histogram;  // populated for histogram families
  };
  /// One metric family with all its children, sorted for stable exposition.
  struct FamilySnapshot {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<SampleSnapshot> samples;
  };

  /// Snapshot of every family, sorted by name (children by label string).
  /// Gauge callbacks are invoked here, outside the registry mutex, so they
  /// may take their own locks.
  std::vector<FamilySnapshot> Collect() const;

 private:
  struct Child {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    /// Children keyed by canonical label signature, sorted.
    std::map<std::string, Child> children;
  };

  Child* GetChild(const std::string& name, const std::string& help,
                  MetricType type, const Labels& labels);

  ClockFn clock_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// The default process-wide registry. Components that are not told which
/// registry to use (e.g. the batch explain thread pool) report here; the
/// proxy defaults to a private registry per instance so tests and
/// co-located proxies never share counters unless asked to.
Registry& GlobalRegistry();

/// RAII latency sample: observes the elapsed time (in microseconds, on the
/// registry's clock) into `histogram` at scope exit. Null-safe.
class ScopedLatency {
 public:
  ScopedLatency(const Registry* registry, Histogram* histogram)
      : registry_(registry), histogram_(histogram) {
    if (registry_ != nullptr) start_ = registry_->now();
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (registry_ == nullptr || histogram_ == nullptr) return;
    histogram_->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                            registry_->now() - start_)
                            .count());
  }

 private:
  const Registry* registry_;
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
};

/// Binds pull-style gauges for a ThreadPool's live state:
///   cce_thread_pool_queue_depth{pool=...}  — tasks queued, not yet running
///   cce_thread_pool_threads{pool=...}      — worker count
/// The callbacks read the pool directly, so the pool must outlive this
/// object; the destructor unbinds them (the gauges then read 0), which
/// makes instrumenting short-lived pools safe.
class ThreadPoolGauges {
 public:
  ThreadPoolGauges(Registry* registry, const ThreadPool* pool,
                   const std::string& pool_name);
  ThreadPoolGauges(const ThreadPoolGauges&) = delete;
  ThreadPoolGauges& operator=(const ThreadPoolGauges&) = delete;
  ~ThreadPoolGauges();

 private:
  Gauge* depth_ = nullptr;
  uint64_t depth_token_ = 0;
  Gauge* threads_ = nullptr;
  uint64_t threads_token_ = 0;
};

}  // namespace cce::obs

#endif  // CCE_OBS_METRICS_H_
