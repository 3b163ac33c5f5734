#ifndef CCE_SERVING_SERVING_GROUP_H_
#define CCE_SERVING_SERVING_GROUP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/counterfactual.h"
#include "core/key_result.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/resilience.h"

namespace cce::serving {

/// How the group orders read backends (Explain / Counterfactuals). Writes
/// (Predict / Record) always go to the leader — replicas are read-only.
enum class RoutePolicy {
  /// Reads go to the leader only; replicas are never consulted and
  /// hedging is off. The availability of the group is the availability
  /// of the leader (the pre-group behaviour, and the bench baseline).
  kLeaderOnly = 0,
  /// Reads prefer the freshest non-degraded view: the leader first, then
  /// replicas by published sequence descending. A replica at the leader's
  /// sequence ties and the faster one (p95) wins. This is the default:
  /// leader answers unless it is sick.
  kPreferFresh = 1,
  /// Reads prefer whoever answers fastest among the healthy backends
  /// (p95 ascending, degraded views last), accepting bounded staleness.
  kPreferAvailable = 2,
};

const char* RoutePolicyName(RoutePolicy policy);

/// A self-healing serving group: one leader ExplainableProxy and N
/// ReplicaProxy followers behind the proxy's Predict/Record/Explain/
/// Counterfactuals surface. The group routes reads by backend health
/// (Health() probes + a per-backend CircuitBreaker), fails over when the
/// preferred backend is broken, and *hedges* slow lone Explains: when the
/// preferred backend has not answered within a per-backend p95-tracked
/// delay, the same request is fired at the next-healthiest backend and the
/// first acceptable answer wins. Explain is ExplainBatch of one item; a
/// batch of several is dispatched to one backend at a time.
///
/// The bit-identical-keys contract survives hedging by watermark fencing
/// on PublishedSequence(): every answer reports the published sequence of
/// the view it was computed from (`ExplainResult::view_seq`, a lower bound
/// sampled around the backend call), and
///
///   - a hedge answer whose view is staler than the primary's view at
///     request entry is never returned as non-degraded (it may still serve,
///     demoted to degraded, when the primary fails outright);
///   - non-degraded answers are monotonic in view_seq across the whole
///     group (a served watermark floor), so a client can never observe a
///     non-degraded key regress to an older context.
///
/// Within those fences a served key is exactly the leader's key at the
/// reported sequence, which is what SUITE=ha asserts under dual fault
/// injection: every backend answers through an ExplainableProxy's
/// ExplainBatch over its shard index (a replica's is its fed view).
///
/// The group takes no repair actions itself; pair it with a Supervisor
/// (serving/supervisor.h) to close the detect-to-repair loop, or drive
/// EvictBackend/ReadmitBackend from a runbook.
///
/// Thread safety: all public methods may be called concurrently. Breakers,
/// probes and latency rings are guarded by one group mutex; backend calls
/// run outside it. Backends are not owned and must outlive the group
/// (the destructor drains in-flight hedges first).
class ServingGroup {
 public:
  struct Options {
    RoutePolicy policy = RoutePolicy::kPreferFresh;

    /// Hedged Explains (ignored under kLeaderOnly). A hedge fires when
    /// the primary backend has not answered within
    ///   clamp(2 * p95(primary), hedge_min_delay, hedge_max_delay)
    /// (p95 over its last 64 Explains), further capped at
    /// `hedge_deadline_fraction` of the remaining deadline when one is
    /// set. Two hedge-pool threads, so a stuck primary cannot starve its
    /// own hedge.
    bool hedge = true;
    std::chrono::milliseconds hedge_min_delay{1};
    std::chrono::milliseconds hedge_max_delay{50};
    double hedge_deadline_fraction = 0.5;

    /// Per-backend circuit breaker configuration (one breaker per
    /// backend; an Explain failure on a backend counts against it, a
    /// failure that is the request's answer — kInvalidArgument,
    /// kResourceExhausted, kDeadlineExceeded — does not).
    CircuitBreaker::Options breaker;
    /// Clock for breaker cooldowns; null = steady_clock (tests inject
    /// manual time).
    CircuitBreaker::ClockFn clock;

    /// Metric sink; null aliases the leader's registry.
    std::shared_ptr<obs::Registry> registry;
    /// Group-level trace ring capacity (routing decisions + supervisor
    /// actions); 0 disables tracing.
    size_t trace_capacity = 64;

    /// Test/bench hook: invoked (outside the group mutex) right before
    /// each backend Explain, with the backend index. bench_ha uses this
    /// to replay a FaultInjectingModel latency-spike schedule onto the
    /// leader's read path; null in production.
    std::function<void(size_t backend)> explain_interceptor;
  };

  /// One served Explain, with its provenance.
  struct ExplainResult {
    KeyResult key;
    /// Backend that produced the answer: 0 = leader, 1 + r = replica r.
    size_t backend = 0;
    /// Published sequence of the serving view (lower bound sampled around
    /// the backend call) — the fence the key is exact at.
    uint64_t view_seq = 0;
    /// True when the answer came from a hedge request, not the primary.
    bool hedged = false;
  };

  struct BackendHealth {
    size_t index = 0;
    bool is_leader = false;
    bool evicted = false;
    /// Routable and serving a non-degraded view at the leader's sequence.
    bool healthy = false;
    /// Last probe saw a degraded view (quarantined shards / tails, or a
    /// failing manifest).
    bool degraded = false;
    uint64_t published_seq = 0;
    /// Sequences behind the leader's published sequence.
    uint64_t lag_seq = 0;
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
    /// Rolling p95 of this backend's Explain latency, microseconds
    /// (0 until a sample exists).
    int64_t p95_us = 0;
  };

  struct GroupHealth {
    RoutePolicy policy = RoutePolicy::kPreferFresh;
    std::vector<BackendHealth> backends;
    uint64_t explains = 0;
    uint64_t hedges = 0;
    uint64_t hedge_wins = 0;
    uint64_t failovers = 0;
    uint64_t stale_hedge_rejects = 0;
    uint64_t degraded_serves = 0;
    uint64_t errors = 0;
    /// True when every backend is routed (not evicted), its breaker is
    /// closed, its view is non-degraded and at the leader's sequence —
    /// the SUITE=ha convergence target.
    bool fully_healthy = false;
  };

  /// `leader` must be non-null; backends are not owned and must outlive
  /// the group. Replicas may be empty (a leader-only group still adds
  /// breaker fail-fast + group metrics).
  static Result<std::unique_ptr<ServingGroup>> Create(
      ExplainableProxy* leader, std::vector<ReplicaProxy*> replicas,
      const Options& options);

  ~ServingGroup();
  ServingGroup(const ServingGroup&) = delete;
  ServingGroup& operator=(const ServingGroup&) = delete;

  /// Writes go to the leader (replicas are read-only followers).
  Result<Label> Predict(const Instance& x, const Deadline& deadline = {});
  Status Record(const Instance& x, Label y);

  /// Routed, breaker-guarded, optionally hedged Explain: ExplainBatch of
  /// one item, traced as "group_explain". kUnavailable when no backend is
  /// routable (all evicted or broken).
  Result<ExplainResult> Explain(const Instance& x, Label y,
                                const Deadline& deadline = {});

  /// Routed batch Explain: one routing decision and one backend
  /// ExplainBatch call (one shared read of that backend's index) answers
  /// every item. Only a lone item is hedged (when hedging applies); a
  /// batch of several fails over sequentially. Results are positional — result i
  /// answers items[i] — and item failures are individual: per-item
  /// deadlines and degradation flags are honored one by one, and the batch
  /// fails over to the next backend only when the current one served *no*
  /// item and at least one failure was the backend's fault. A failure that
  /// is the request's answer — kInvalidArgument, kResourceExhausted (a
  /// shed, hint intact) or kDeadlineExceeded — is returned as it is: it
  /// neither trips nor heals the breaker and is never failed over.
  /// Watermark fencing applies to every item.
  std::vector<Result<ExplainResult>> ExplainBatch(
      const std::vector<BatchQuery>& items);

  /// Routed with sequential failover (never hedged — witnesses are
  /// cheap relative to key searches); failures that are answers (see
  /// ExplainBatch) are returned as they are. `deadline` bounds the
  /// leader's admission wait.
  Result<std::vector<RelativeCounterfactual>> Counterfactuals(
      const Instance& x, Label y, const Deadline& deadline = {});

  /// Re-reads every backend's Health()/GetHealth() into the routing
  /// probes (including the leader's PublishedSequence). Called by the
  /// Supervisor each tick and by Health(); call it manually when running
  /// without a supervisor and routing on freshness.
  void RefreshProbes();

  GroupHealth Health();

  /// Removes / restores a backend from the read routing set. An evicted
  /// backend keeps draining (its proxy object still serves whoever holds
  /// a direct pointer) and keeps being probed, it just receives no routed
  /// traffic. Evicting the leader only stops *reads*; writes have nowhere
  /// else to go. Out-of-range indices are ignored.
  void EvictBackend(size_t index);
  void ReadmitBackend(size_t index);

  void set_policy(RoutePolicy policy);
  RoutePolicy policy() const;

  size_t num_backends() const { return backends_.size(); }
  ExplainableProxy* leader() const { return leader_; }
  size_t num_replicas() const { return backends_.size() - 1; }
  ReplicaProxy* replica(size_t r) const { return backends_[1 + r].replica; }

  obs::Registry& registry() const { return *registry_; }
  /// Group trace ring (shared with the Supervisor); null when
  /// trace_capacity = 0.
  obs::TraceRing* trace_ring() const { return traces_.get(); }

 private:
  struct Backend {
    ReplicaProxy* replica = nullptr;  // null for the leader (index 0)
    std::unique_ptr<CircuitBreaker> breaker;
    bool evicted = false;
    // Cached probe (RefreshProbes).
    bool degraded = false;
    uint64_t published = 0;
    // Rolling Explain latency ring for the p95 estimate.
    std::vector<int64_t> latencies_us;
    size_t latency_next = 0;
    size_t latency_count = 0;
    obs::Counter* explains = nullptr;
    obs::Gauge* healthy_gauge = nullptr;
    obs::Gauge* evicted_gauge = nullptr;
    obs::Gauge* p95_gauge = nullptr;
  };

  /// One backend call's outcome, as the hedging machinery sees it.
  struct Attempt {
    Result<KeyResult> result = Status::Unavailable("not attempted");
    uint64_t view_seq = 0;
    size_t backend = 0;
    bool done = false;
  };
  struct HedgeState;

  ServingGroup(ExplainableProxy* leader, std::vector<ReplicaProxy*> replicas,
               const Options& options);
  void InitInstruments();

  /// Published-sequence lower bound for a backend right now (leader:
  /// PublishedSequence barrier — cheap at sane shard counts; replica:
  /// its view watermark).
  uint64_t BackendSeq(size_t index) const;

  /// Preference-ordered routable backends under the current policy; the
  /// caller dispatches through AdmitBackend. Takes mu_.
  std::vector<size_t> RouteOrder();

  /// Breaker admission for an actual dispatch (under mu_ internally);
  /// false counts a failover.
  bool AdmitBackend(size_t index);

  /// The one Explain implementation behind Explain and ExplainBatch: routes,
  /// fences, then hands a lone hedgeable item to HedgedExplain and
  /// everything else to Dispatch. `op` (a string literal) names the trace.
  std::vector<Result<ExplainResult>> ExplainItems(
      const std::vector<BatchQuery>& items, const char* op);

  /// The hedge race for one item: the primary gets a head start of
  /// HedgeDelay, then the next admissible backend races it.
  Result<ExplainResult> HedgedExplain(obs::RequestTrace& trace,
                                      const std::vector<size_t>& order,
                                      uint64_t fence_seq,
                                      const BatchQuery& item);

  /// Sequential failover down `order`: one backend call answers every
  /// item (see ExplainBatch for the failover and breaker rules).
  std::vector<Result<ExplainResult>> Dispatch(
      obs::RequestTrace& trace, const std::vector<size_t>& order,
      uint64_t fence_seq, const std::vector<BatchQuery>& items);

  /// Runs one backend Explain and records latency + breaker outcome.
  Attempt CallBackend(size_t index, const Instance& x, Label y,
                      const Deadline& deadline);

  void RecordOutcome(size_t index, const Status& status, int64_t micros);
  int64_t P95Locked(const Backend& backend) const;
  std::chrono::milliseconds HedgeDelay(size_t primary,
                                       const Deadline& deadline);

  /// Applies the watermark fences to a candidate answer: demotes a
  /// non-degraded answer to degraded (counting the reject) when its view
  /// is behind `fence_seq` or behind the group's served floor.
  void ApplyFence(Attempt* attempt, uint64_t fence_seq, bool hedged);

  /// Finalises a served answer: served-floor advance, metrics, trace.
  Result<ExplainResult> FinishExplain(obs::RequestTrace& trace,
                                      Attempt attempt, bool hedged,
                                      bool hedge_won);

  ExplainableProxy* leader_;
  Options options_;
  std::vector<Backend> backends_;  // [0] = leader, [1 + r] = replica r

  /// Guards backends_ (breakers, probes, latency rings) and policy_.
  mutable std::mutex mu_;
  RoutePolicy policy_;

  /// Highest view_seq ever returned non-degraded (monotonic-reads floor).
  std::atomic<uint64_t> served_floor_{0};

  std::shared_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::TraceRing> traces_;
  /// Executes hedged attempts; declared after the members tasks touch and
  /// reset first in the destructor so in-flight hedges drain before
  /// anything they reference dies.
  std::unique_ptr<ThreadPool> hedge_pool_;

  obs::Counter* hedges_ = nullptr;
  obs::Counter* hedge_wins_ = nullptr;
  obs::Counter* failovers_ = nullptr;
  obs::Counter* stale_hedge_rejects_ = nullptr;
  obs::Counter* degraded_serves_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Histogram* explain_latency_us_ = nullptr;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_SERVING_GROUP_H_
