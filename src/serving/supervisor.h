#ifndef CCE_SERVING_SUPERVISOR_H_
#define CCE_SERVING_SUPERVISOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/token_bucket.h"
#include "obs/metrics.h"
#include "serving/resilience.h"
#include "serving/serving_group.h"

namespace cce::serving {

/// Closes the self-healing loop over a ServingGroup: a background thread
/// that watches every fault domain (each leader context shard, each
/// replica) and walks an escalation ladder from observation to automatic
/// repair, so quarantines heal without a pager.
///
/// The ladder, per domain:
///
///   healthy    — nothing to do; an evicted replica that probes healthy is
///                readmitted to routing and the domain fully resets.
///   observing  — a fault was seen; `observe_threshold` consecutive faulty
///                cycles are required before acting (debounce: a torn read
///                that self-heals next cycle never triggers a repair).
///   repairing  — the domain-appropriate repair fires with jittered
///                decorrelated backoff between attempts: RepairShard(shard)
///                for a quarantined leader shard, ForceResync() for a sick
///                replica. `repair_attempts` failed attempts escalate.
///   evicted    — (replicas only; the leader cannot leave the group) the
///                backend is evicted from routing but keeps draining and
///                keeps being resynced on the same backoff schedule.
///   parked     — repairs are exhausted; the domain holds degraded for
///                `park_ticks` cycles, then re-enters the repair rung.
///                Give-up is a cooldown, not a terminal state — when the
///                underlying fault clears (disk replaced, faults stop), the
///                group converges back to fully-healthy with no manual
///                call, which is what SUITE=ha asserts.
///
/// Every action is gated by one TokenBucket across all domains, so a
/// flapping disk cannot turn auto-repair into a repair storm. One fault is
/// observed but never "repaired": a poisoned leader WAL heals itself at the
/// next compaction, and RepairShard on a healthy shard would be wrong — the
/// domain holds at the observing rung until the poison clears.
///
/// Thread safety: Start/Stop/TickOnce/Domains may be called concurrently;
/// one mutex serialises ticks. TickOnce is public so tests (and the HA
/// torture harness) can drive supervision deterministically without the
/// thread.
class Supervisor {
 public:
  struct Options {
    /// Cadence of the background supervision loop started by Start().
    std::chrono::milliseconds poll_interval{100};
    /// Consecutive faulty cycles before the first repair attempt.
    int observe_threshold = 2;
    /// Repair attempts per ladder rung before escalating.
    int repair_attempts = 3;
    /// Cycles a parked domain holds degraded before retrying repairs.
    int park_ticks = 8;
    /// Replica staleness (sequences behind the leader) treated as a fault.
    uint64_t lag_budget_seq = 1024;
    /// Jittered backoff between repair attempts on one domain.
    RetryPolicy::Options repair_backoff = [] {
      RetryPolicy::Options options;
      options.max_attempts = 1 << 20;  // the ladder bounds attempts, not this
      options.initial_backoff = std::chrono::milliseconds(100);
      options.max_backoff = std::chrono::milliseconds(5000);
      return options;
    }();
    /// Rate limit shared by every repair/evict action across domains.
    TokenBucket::Options action_rate = [] {
      TokenBucket::Options options;
      options.refill_per_sec = 5.0;
      options.burst = 10.0;
      return options;
    }();
    /// Clock for the token bucket and backoff gating; null = steady_clock.
    TokenBucket::ClockFn clock;
  };

  /// Escalation-ladder rung of one fault domain.
  enum class Level {
    kHealthy = 0,
    kObserving = 1,
    kRepairing = 2,
    kEvicted = 3,
    kParked = 4,
  };
  static const char* LevelName(Level level);

  struct DomainStatus {
    /// "leader_shard_<i>" or "replica_<r>".
    std::string name;
    bool is_replica = false;
    /// Group backend index the domain belongs to (0 for leader shards).
    size_t backend = 0;
    Level level = Level::kHealthy;
    /// Consecutive faulty cycles observed.
    int unhealthy_streak = 0;
    /// Repair attempts made on the current rung.
    int attempts = 0;
    /// Most recent fault: "quarantined_shard", "poisoned_wal",
    /// "tail_quarantine", "replica_lag", "manifest"; empty while healthy.
    std::string last_fault;
  };

  /// `group` is not owned and must outlive the supervisor. Metrics land in
  /// the group's registry; actions are traced into the group's trace ring.
  explicit Supervisor(ServingGroup* group);
  Supervisor(ServingGroup* group, const Options& options);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Starts/stops the background supervision thread (TickOnce every
  /// poll_interval). Start is idempotent; the destructor stops.
  void Start();
  void Stop();

  /// One synchronous supervision cycle: probe every domain, advance its
  /// ladder, take at most one gated action per domain. Serialised with the
  /// background thread.
  void TickOnce();

  std::vector<DomainStatus> Domains();

 private:
  struct Domain {
    Domain(std::string name_in, bool is_replica_in, size_t backend_in,
           size_t shard_in, const RetryPolicy::Options& backoff_options)
        : name(std::move(name_in)),
          is_replica(is_replica_in),
          backend(backend_in),
          shard(shard_in),
          backoff(backoff_options) {}

    std::string name;
    bool is_replica;
    size_t backend;
    /// Leader shard index (unused for replica domains).
    size_t shard;
    Level level = Level::kHealthy;
    int streak = 0;
    int attempts = 0;
    std::string last_fault;
    /// Earliest time the next repair may fire (backoff gate).
    std::chrono::steady_clock::time_point next_action{};
    RetryPolicy backoff;
    int park_remaining = 0;
    obs::Gauge* level_gauge = nullptr;
  };

  void InitInstruments();
  /// Advances one domain's ladder. `faulty` = the domain probed sick this
  /// cycle; `actionable` = a repair could plausibly help (false for
  /// observe-only faults). Under mu_.
  void AdvanceLocked(Domain& domain, bool faulty, const char* fault,
                     bool actionable,
                     std::chrono::steady_clock::time_point now);
  /// Fires the domain's repair action; returns its status. Under mu_.
  Status ActLocked(Domain& domain);
  void TraceAction(const char* action, const Domain& domain,
                   const Status& status);
  void SetLevelLocked(Domain& domain, Level level);

  ServingGroup* group_;
  Options options_;
  TokenBucket::ClockFn clock_;

  /// Serialises ticks and guards domains_ + the bucket + the rng.
  std::mutex mu_;
  std::vector<Domain> domains_;
  TokenBucket bucket_;
  Rng rng_;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;

  obs::Counter* cycles_ = nullptr;
  obs::Counter* repair_shards_ = nullptr;
  obs::Counter* force_resyncs_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* readmissions_ = nullptr;
  obs::Counter* rate_limited_ = nullptr;
  obs::Counter* backoff_holds_ = nullptr;
  obs::Counter* give_ups_ = nullptr;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_SUPERVISOR_H_
