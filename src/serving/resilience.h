#ifndef CCE_SERVING_RESILIENCE_H_
#define CCE_SERVING_RESILIENCE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/model.h"
#include "core/types.h"
#include "serving/context_shard.h"

namespace cce::serving {

/// A fallible prediction backend — the remote-service view of a model.
/// Where core::Model promises an answer, an endpoint may time out, throttle
/// or fail; the proxy's resilience machinery (retries, breaker, deadlines)
/// exists to absorb exactly that difference.
class ModelEndpoint {
 public:
  virtual ~ModelEndpoint() = default;

  /// Serves one prediction, or a non-OK status describing the failure.
  virtual Result<Label> Predict(const Instance& x) = 0;
};

/// Adapts an in-process core::Model (which cannot fail) to the endpoint
/// interface, for proxies serving a local model.
class LocalModelEndpoint : public ModelEndpoint {
 public:
  /// `model` is not owned and must outlive the endpoint.
  explicit LocalModelEndpoint(const Model* model) : model_(model) {}

  Result<Label> Predict(const Instance& x) override {
    return model_->Predict(x);
  }

 private:
  const Model* model_;
};

/// Capped exponential backoff with decorrelated jitter (the AWS
/// architecture-blog scheme): each delay is drawn uniformly from
/// [base, 3 * previous], capped at `max_backoff`. Jitter is driven by an
/// external cce::Rng so schedules are reproducible from a seed.
///
/// The policy only *computes* delays; the caller decides how to wait, which
/// keeps tests free of real sleeps.
class RetryPolicy {
 public:
  struct Options {
    /// Total tries including the first; <= 1 disables retrying.
    int max_attempts = 4;
    /// First (and minimum) backoff delay.
    std::chrono::milliseconds initial_backoff{1};
    /// Upper bound on any single delay.
    std::chrono::milliseconds max_backoff{250};
    /// Growth factor used when jitter is disabled.
    double multiplier = 2.0;
    /// Decorrelated jitter; false gives deterministic pure exponential.
    bool jitter = true;
  };

  explicit RetryPolicy(const Options& options);

  /// Delay to wait before retry number `attempt` (1-based: the delay after
  /// the first failure is attempt 1). Advances the decorrelated-jitter
  /// state; call Reset() between logical operations.
  std::chrono::milliseconds NextBackoff(Rng* rng);

  /// Forgets the jitter state so the next operation starts from
  /// initial_backoff again.
  void Reset();

  /// True while `attempt` (number of tries already made) leaves budget.
  bool ShouldRetry(int attempts_made) const {
    return attempts_made < options_.max_attempts;
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::chrono::milliseconds previous_;
  bool first_ = true;
};

/// Classic three-state circuit breaker protecting a model endpoint.
///
///   closed    — requests flow; `failure_threshold` *consecutive operation
///               failures* (an operation = one client call including all its
///               retries) trip it open.
///   open      — requests are rejected instantly (the proxy degrades to
///               record-only serving); after `open_cooldown` the next
///               request transitions to half-open.
///   half-open — up to `probe_budget` requests are let through as probes;
///               `successes_to_close` consecutive probe successes close the
///               breaker, any probe failure re-opens it.
///
/// Time is read through an injectable clock so the state machine is testable
/// without real waiting. Not thread-safe; the proxy serialises access.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    /// Consecutive operation failures that trip the breaker.
    int failure_threshold = 5;
    /// How long the breaker stays open before probing.
    std::chrono::milliseconds open_cooldown{1000};
    /// Max probes admitted while half-open before a verdict.
    int probe_budget = 3;
    /// Consecutive probe successes required to close again.
    int successes_to_close = 2;
  };

  /// Monotonic now; injectable for tests.
  using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

  explicit CircuitBreaker(const Options& options, ClockFn clock = nullptr);

  /// True when a request may proceed. Handles the open -> half-open
  /// transition when the cooldown has elapsed; a false return means the
  /// caller must fail fast (and may serve degraded results instead).
  bool AllowRequest();

  /// Reports the outcome of an admitted operation.
  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }

  uint64_t rejected_count() const { return rejected_; }
  uint64_t trip_count() const { return trips_; }

  static const char* StateName(State state);

 private:
  void TripOpen();

  Options options_;
  ClockFn clock_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probes_in_flight_ = 0;
  int probe_successes_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
  uint64_t rejected_ = 0;
  uint64_t trips_ = 0;
};

/// Point-in-time view of the proxy's resilience machinery, exposed for
/// observability (dashboards, alerting, tests).
struct HealthSnapshot {
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  /// Client calls to Predict() (before any retries).
  uint64_t predicts = 0;
  /// Predict operations that failed after exhausting retries.
  uint64_t predict_failures = 0;
  /// Individual retry attempts made across all operations.
  uint64_t retries = 0;
  /// Requests rejected fast because the breaker was open.
  uint64_t breaker_rejections = 0;
  /// Times the breaker tripped from closed/half-open to open.
  uint64_t breaker_trips = 0;
  /// Calls that ran out of deadline (Predict or Explain).
  uint64_t deadline_misses = 0;
  /// Explain calls answered with a degraded (deadline-truncated) key.
  uint64_t degraded_explains = 0;
  /// Explain/Counterfactual calls served while the breaker was open
  /// (record-only fallback mode still answering from context).
  uint64_t fallback_serves = 0;

  // Durability counters (all zero when Options::durability is disabled).
  /// Records appended to the write-ahead log.
  uint64_t wal_records_logged = 0;
  /// fsyncs issued by the log (sync policy + compactions).
  uint64_t wal_fsyncs = 0;
  /// Snapshot+truncate compactions performed.
  uint64_t wal_compactions = 0;
  /// Records replayed from snapshot + log at Create (crash recovery).
  uint64_t wal_records_recovered = 0;
  /// Lower bound on records lost to log corruption at recovery.
  uint64_t wal_records_dropped = 0;
  /// Compactions that failed and left the previous generation serving.
  uint64_t compaction_failures = 0;
  /// Records not durably applied (their shard was quarantined/read-only).
  uint64_t quarantine_drops = 0;
  /// Orphaned *.tmp files unlinked from the durability dir at startup.
  uint64_t tmp_orphans_removed = 0;

  // Sharded-context health (one entry per shard; always populated — a
  // classic single-WAL proxy reports one shard).
  struct ShardHealth {
    size_t index = 0;
    ContextShard::State state = ContextShard::State::kActive;
    size_t window_rows = 0;
    /// Heap bytes of the shard's bitset index.
    size_t index_bytes = 0;
    uint64_t total_recorded = 0;
    /// True while the shard's WAL refuses appends after a failed fsync.
    bool wal_poisoned = false;
    /// Non-empty while quarantined: what recovery could not salvage.
    std::string quarantine_reason;
    /// Bytes the last recovery's salvage truncated off this shard's WAL.
    uint64_t last_salvage_truncated_bytes = 0;
    /// Most recent quarantine, surviving Repair(): why, and which file
    /// class caused it ("snapshot" or "wal"; empty = never quarantined).
    std::string last_quarantine_reason;
    std::string last_quarantine_cause;
  };
  std::vector<ShardHealth> shards;
  uint64_t shards_quarantined = 0;
  uint64_t shards_read_only = 0;
  /// Quarantined shards re-admitted via RepairShard(), summed over shards.
  uint64_t shard_repairs = 0;
  /// True while any shard is quarantined: the merged context is missing
  /// rows and explanations are flagged degraded.
  bool degraded_context = false;

  // Overload-protection counters (DESIGN.md §8; admission fields are zero
  // when Options::overload.enabled is false).
  /// Client calls to Explain().
  uint64_t explains = 0;
  /// Requests rejected at the boundary for malformed input (wrong arity,
  /// out-of-domain value code, unknown label).
  uint64_t validation_rejects = 0;
  /// Admissions by class.
  uint64_t admitted_predicts = 0;
  uint64_t admitted_records = 0;
  uint64_t admitted_explains = 0;
  uint64_t admitted_counterfactuals = 0;
  /// Sheds by cause (kResourceExhausted with a retry_after_ms hint,
  /// except shed_queue_deadline which is kDeadlineExceeded).
  uint64_t shed_rate_limited = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline_unmeetable = 0;
  uint64_t shed_queue_deadline = 0;
  uint64_t shed_codel = 0;
  /// Expensive admissions that had to queue for a concurrency slot.
  uint64_t explain_queue_waits = 0;
  /// Current AIMD concurrency limit and its adjustment history.
  int concurrency_limit = 0;
  uint64_t concurrency_increases = 0;
  uint64_t concurrency_decreases = 0;
  /// EWMA of observed Explain service latency, µs.
  int64_t explain_latency_ewma_us = 0;
  /// Explanation-cache ladder: lookups, hits, entries whose window deltas
  /// outran the revalidation ring (dropped unverifiable), entries
  /// re-proven / disproven by a delta replay, and requests actually
  /// answered from the cache under pressure.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale_drops = 0;
  uint64_t cache_revalidations = 0;
  uint64_t cache_revalidation_failures = 0;
  uint64_t cache_served_explains = 0;
  /// Live key-search executions, scalar Explains included (one item each),
  /// and the items they answered (items / executions = the achieved
  /// amortization factor).
  uint64_t batch_executions = 0;
  uint64_t batch_items = 0;

  std::string ToString() const;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_RESILIENCE_H_
