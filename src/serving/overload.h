#ifndef CCE_SERVING_OVERLOAD_H_
#define CCE_SERVING_OVERLOAD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/deadline.h"
#include "common/status.h"
#include "common/token_bucket.h"
#include "core/key_result.h"
#include "core/types.h"
#include "obs/metrics.h"

namespace cce::serving {

/// Admission class of a proxy request. Predict and Record are cheap and
/// latency-critical — they must stay fast even when the proxy is drowning
/// in explanation work. Explain and Counterfactuals run combinatorial key
/// searches whose cost is highly skewed across instances, so they are the
/// sheddable classes: rate-limited, concurrency-bounded and queued.
enum class RequestClass { kPredict, kRecord, kExplain, kCounterfactuals };

const char* RequestClassName(RequestClass cls);

/// Parses the "retry_after_ms=N" hint the admission layer embeds in every
/// kResourceExhausted shed; -1 when the status carries no hint.
int64_t ParseRetryAfterMs(const Status& status);

/// CoDel-style persistent-queue-delay detector (Nichols & Jacobson): a
/// queue is only *bad* when its delay stays above `target` for a full
/// `interval` — transient bursts that drain quickly are healthy and must
/// not trigger shedding. The admission layer feeds it the queueing delay
/// (sojourn) of each admitted request; once sustained buildup is detected
/// it sheds new arrivals until a delay back under target is observed.
///
/// Deterministic state machine over (sojourn, now) observations; time is
/// supplied by the caller, so tests drive it with a manual clock.
class CodelDetector {
 public:
  struct Options {
    /// Acceptable standing queue delay.
    std::chrono::milliseconds target{5};
    /// How long the delay must stay above target before shedding starts.
    std::chrono::milliseconds interval{100};
  };

  explicit CodelDetector(const Options& options) : options_(options) {}

  /// Observes one admitted request's queueing delay at time `now`.
  /// Returns the (possibly updated) shedding state.
  bool Observe(std::chrono::nanoseconds sojourn,
               std::chrono::steady_clock::time_point now);

  bool shedding() const { return shedding_; }

  const Options& options() const { return options_; }

 private:
  Options options_;
  bool shedding_ = false;
  bool above_target_ = false;
  std::chrono::steady_clock::time_point first_above_{};
};

/// Gradient-free adaptive concurrency limit for the expensive classes,
/// AIMD on observed completion latency against a target (the scheme of
/// TCP congestion control and Netflix's concurrency-limits): a completion
/// under target is additive increase (+1 after every `increase_every`
/// fast completions), one over target is multiplicative decrease. The
/// limit therefore tracks the largest parallelism the machine sustains
/// while keeping individual searches responsive.
///
/// Pure function of the completion sequence — no randomness — so tests
/// replaying the same latencies always see the same limits.
class AdaptiveConcurrency {
 public:
  struct Options {
    int initial = 4;
    int min = 1;
    int max = 64;
    /// Completion latency above which the limit is cut.
    std::chrono::milliseconds latency_target{100};
    /// Multiplicative decrease factor in (0, 1).
    double decrease_factor = 0.5;
    /// Fast completions required per +1 additive increase.
    int increase_every = 4;
  };

  explicit AdaptiveConcurrency(const Options& options);

  /// Feeds one completion's observed latency into the controller.
  void OnCompletion(std::chrono::nanoseconds latency);

  int limit() const { return limit_; }
  uint64_t increases() const { return increases_; }
  uint64_t decreases() const { return decreases_; }

 private:
  Options options_;
  int limit_;
  int fast_streak_ = 0;
  uint64_t increases_ = 0;
  uint64_t decreases_ = 0;
};

/// Small LRU cache of recently computed relative keys, keyed by the
/// (discretized instance, label) pair. The cached rung of the degradation
/// ladder: under pressure an identical instance is answered from here — a
/// real, recently minimal key — before the proxy falls back to a padded
/// degraded key or sheds.
///
/// Entries are *generation-fresh*, not bounded-stale: every window change
/// (row recorded, row evicted) is appended to a bounded delta ring, and a
/// lookup replays the deltas the entry has not yet seen. A delta row
/// touches an entry only when it agrees with the cached instance on every
/// key feature; with a different label it moves the entry's violator
/// count. The entry is served — with a refreshed achieved_alpha — while
/// its key stays alpha-conformant against the *current* window, and is
/// dropped the moment conformity actually broke (the caller re-runs SRK).
/// Entries whose stamp the ring no longer covers are unverifiable and
/// dropped on lookup.
///
/// The LRU/index state is not thread-safe (the proxy uses it under its own
/// mutex); the delta ring has an internal mutex ordered strictly after
/// every proxy lock, so Record-path delta appends need no proxy-wide lock.
/// Counters live in a cce::obs registry (the proxy's, when provided) so
/// HealthSnapshot and the exposition endpoints read the same cells —
/// docs/metrics.md.
class ExplainCache {
 public:
  struct Options {
    /// Entry capacity; 0 disables the cache entirely.
    size_t capacity = 128;
    /// Window-change deltas (records + evictions) retained for
    /// revalidation. An entry stamped before the ring's tail cannot be
    /// proven fresh and is dropped on lookup.
    size_t revalidation_window = 1024;
    /// Conformity bound entries are revalidated against (the proxy wires
    /// its read-path alpha here).
    double alpha = 1.0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Lookups that found an entry the delta ring no longer covers
    /// (entry dropped unverifiable).
    uint64_t stale_drops = 0;
    uint64_t insertions = 0;
    /// Entries re-proven conformant against the current window by a
    /// delta replay.
    uint64_t revalidations = 0;
    /// Entries dropped because a window delta broke their conformity.
    uint64_t revalidation_failures = 0;
  };

  /// `registry` receives the cache's counters; null creates a private one.
  explicit ExplainCache(const Options& options,
                        obs::Registry* registry = nullptr);

  /// Appends one recorded row to the delta ring. Thread-safe.
  void RecordAdd(const Instance& x, Label y);

  /// Appends one evicted row to the delta ring. Thread-safe.
  void RecordRemove(const Instance& x, Label y);

  /// Sequence number of the newest delta (0 before any). Thread-safe. The
  /// proxy reads this *before* snapshotting the window; Put accepts the
  /// entry only if no delta landed in between, so an entry's violator
  /// bookkeeping is always exact with respect to its stamp.
  uint64_t delta_seq() const;

  /// Caches `key` for (x, y), computed against a window of `window_rows`
  /// rows as of delta `stamp`, evicting the least-recently-used entry at
  /// capacity. Dropped silently when deltas advanced past `stamp` (the
  /// key's window membership would be ambiguous).
  void Put(const Instance& x, Label y, uint64_t stamp, size_t window_rows,
           const KeyResult& key);

  /// Cached key for (x, y), revalidated against every delta since its
  /// stamp and marked `cached`; nullopt on miss, broken conformity, or an
  /// uncoverable stamp.
  std::optional<KeyResult> Get(const Instance& x, Label y);

  /// Drops every entry and the delta ring (window rebuilt out-of-band,
  /// e.g. shard repair: deltas were never observed, so nothing cached can
  /// be proven fresh).
  void Clear();

  /// Snapshot assembled from the registry counters (the single source).
  Stats stats() const;
  size_t size() const { return entries_.size(); }

 private:
  struct CacheKey {
    Instance x;
    Label y;
    bool operator==(const CacheKey& other) const {
      return y == other.y && x == other.x;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const;
  };
  struct Entry {
    CacheKey key;
    KeyResult result;
    /// Newest delta folded into this entry's bookkeeping.
    uint64_t stamp;
    /// Rows agreeing with x on every key feature but labelled != y, and
    /// the window size, both as of `stamp` — exactly what conformity
    /// needs: conformant iff violators <= floor((1-alpha)*window_rows).
    uint64_t violators;
    uint64_t window_rows;
  };
  struct Delta {
    uint64_t seq;
    bool add;  // true = recorded row, false = evicted row
    Instance x;
    Label y;
  };
  enum class Freshness { kFresh, kRevalidated, kUncovered, kBroken };

  /// Replays the deltas since entry->stamp (under delta_mu_) and either
  /// advances the entry's bookkeeping or reports why it cannot be served.
  Freshness Revalidate(Entry* entry);

  Options options_;
  /// Front = most recently used.
  std::list<Entry> entries_;
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_;
  /// Fallback registry when the caller supplied none.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* stale_drops_;
  obs::Counter* insertions_;
  obs::Counter* revalidations_;
  obs::Counter* revalidation_failures_;

  /// Guards the ring and delta_seq_ only; ordered after every proxy lock
  /// and never held while calling out.
  mutable std::mutex delta_mu_;
  /// Invariant: holds exactly the deltas (delta_seq_ - size, delta_seq_].
  std::deque<Delta> deltas_;
  uint64_t delta_seq_ = 0;
};

/// The per-class admission layer in front of every public proxy entry
/// point (DESIGN.md §8). Three mechanisms compose:
///
///   1. per-class token buckets — sustained rate + burst budget per class,
///      so a flood of Explains cannot starve Predict of admission;
///   2. a bounded, deadline-aware admission queue for the expensive
///      classes — arrivals whose deadline cannot cover the predicted
///      queue wait + service time are shed immediately, sustained queue
///      buildup sheds via the CoDel detector, and a full queue sheds with
///      a computed retry-after;
///   3. an adaptive (AIMD) concurrency limit bounding in-flight key
///      searches, so explanation work degrades gracefully instead of
///      oversubscribing every core.
///
/// Every shed is kResourceExhausted with a "retry_after_ms=N" hint in the
/// message (ParseRetryAfterMs). Thread-safe; the expensive-class admission
/// blocks (bounded by the caller's deadline) waiting for a slot.
class OverloadController {
 public:
  using Clock = std::chrono::steady_clock;
  using ClockFn = std::function<Clock::time_point()>;

  struct Options {
    /// Master switch, read by the proxy: when false the proxy does not
    /// construct a controller and every request is admitted unchecked
    /// (the pre-admission behaviour).
    bool enabled = false;

    /// Per-class token buckets. Default refill 0 = unlimited.
    TokenBucket::Options predict_bucket;
    TokenBucket::Options record_bucket;
    /// Shared by Explain and Counterfactuals (one expensive-work budget).
    TokenBucket::Options explain_bucket;

    /// Expensive-class requests allowed to wait for a slot; arrivals
    /// beyond this are shed.
    size_t max_queue = 32;

    CodelDetector::Options codel;
    AdaptiveConcurrency::Options concurrency;

    /// Shed an expensive arrival when its deadline is smaller than the
    /// EWMA-predicted queue wait + service time (it would only burn a
    /// slot to miss anyway).
    bool shed_unmeetable_deadlines = true;
    /// Smoothing of the Explain service-latency estimate.
    double latency_ewma_alpha = 0.2;

    /// Injectable clock for sojourn/latency measurement (tests).
    ClockFn clock;
  };

  struct Stats {
    uint64_t admitted_predicts = 0;
    uint64_t admitted_records = 0;
    uint64_t admitted_explains = 0;
    uint64_t admitted_counterfactuals = 0;
    /// Sheds by cause, all reported as kResourceExhausted + retry-after
    /// (except queue-deadline expiry, which is kDeadlineExceeded: that
    /// budget is already spent).
    uint64_t shed_rate_limited = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_deadline_unmeetable = 0;
    uint64_t shed_queue_deadline = 0;
    uint64_t shed_codel = 0;
    /// Expensive admissions that had to queue for a slot.
    uint64_t queue_waits = 0;
    int concurrency_limit = 0;
    int in_flight = 0;
    uint64_t concurrency_increases = 0;
    uint64_t concurrency_decreases = 0;
    /// EWMA of observed expensive-class service latency.
    int64_t explain_latency_ewma_us = 0;
  };

  /// Move-only admission slot for an expensive request; destruction
  /// releases the slot and feeds the observed service latency into the
  /// AIMD limiter.
  class Permit {
   public:
    Permit(Permit&& other) noexcept { *this = std::move(other); }
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        ReleaseNow();
        controller_ = other.controller_;
        admitted_at_ = other.admitted_at_;
        pressure_ = other.pressure_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { ReleaseNow(); }

    /// True when the request was admitted under load (had to queue, the
    /// limiter is saturated, or CoDel flagged sustained buildup): the
    /// caller should prefer a cheaper rung of the degradation ladder.
    bool under_pressure() const { return pressure_; }

   private:
    friend class OverloadController;
    Permit(OverloadController* controller, Clock::time_point admitted_at,
           bool pressure)
        : controller_(controller),
          admitted_at_(admitted_at),
          pressure_(pressure) {}

    void ReleaseNow() {
      if (controller_ != nullptr) controller_->Release(admitted_at_);
      controller_ = nullptr;
    }

    OverloadController* controller_ = nullptr;
    Clock::time_point admitted_at_{};
    bool pressure_ = false;
  };

  /// `registry` receives the admission counters, gauges and the queue-wait
  /// histogram (docs/metrics.md); null creates a private registry. Stats and
  /// HealthSnapshot are assembled from those cells — there is no parallel
  /// set of ad-hoc counters.
  explicit OverloadController(const Options& options,
                              obs::Registry* registry = nullptr);

  /// Token-bucket-only admission for the cheap, latency-critical classes
  /// (kPredict / kRecord). Never blocks.
  Status AdmitCheap(RequestClass cls);

  /// Full admission for the expensive classes (kExplain /
  /// kCounterfactuals): token bucket, deadline feasibility, CoDel state,
  /// then a bounded wait for a concurrency slot. Blocks at most until
  /// `deadline`.
  Result<Permit> AdmitExpensive(RequestClass cls, const Deadline& deadline);

  Stats stats() const;

 private:
  friend class Permit;

  /// Releases one expensive slot; `admitted_at` dates the service start.
  void Release(Clock::time_point admitted_at);

  /// kResourceExhausted carrying the machine-readable retry-after hint.
  static Status Shed(const std::string& reason,
                     std::chrono::milliseconds retry_after);

  /// Predicted wait+service budget for one more queued request, in µs;
  /// caller holds mu_.
  double EstimatedTotalUs() const;

  /// Feeds the AIMD controller one completion and mirrors the resulting
  /// limit (and any adjustment) into the registry; caller holds mu_.
  void OnCompletionLocked(std::chrono::nanoseconds latency);

  Options options_;
  ClockFn clock_;

  /// Fallback registry when the caller supplied none.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* admitted_[4];  // indexed by RequestClass
  obs::Counter* shed_rate_limited_;
  obs::Counter* shed_queue_full_;
  obs::Counter* shed_deadline_unmeetable_;
  obs::Counter* shed_queue_deadline_;
  obs::Counter* shed_codel_;
  obs::Counter* queue_waits_;
  obs::Counter* concurrency_increases_;
  obs::Counter* concurrency_decreases_;
  obs::Gauge* concurrency_limit_gauge_;
  obs::Gauge* in_flight_gauge_;
  obs::Gauge* latency_ewma_gauge_;
  obs::Histogram* queue_wait_us_;

  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  TokenBucket predict_bucket_;
  TokenBucket record_bucket_;
  TokenBucket explain_bucket_;
  CodelDetector codel_;
  AdaptiveConcurrency concurrency_;
  int in_flight_ = 0;
  size_t waiters_ = 0;
  double ewma_latency_us_ = 0.0;
  bool have_latency_ = false;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_OVERLOAD_H_
