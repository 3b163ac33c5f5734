#ifndef CCE_SERVING_PROXY_H_
#define CCE_SERVING_PROXY_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "common/status.h"
#include "core/cce.h"
#include "core/counterfactual.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "core/model.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/context_shard.h"
#include "serving/overload.h"
#include "serving/read_path.h"
#include "serving/resilience.h"

namespace cce::serving {

/// The CCE deployment story in one object (paper Section 6): a proxy that
/// sits between a client and a (possibly remote) model. Every Predict()
/// passes through to the model and is recorded into a rolling client-side
/// context; explanations, counterfactuals and drift monitoring then come
/// from the recorded context alone — the model is never consulted for
/// explaining.
///
/// The proxy also works without any model (`Create` with nullptr +
/// `Record`): a client of a remote API can feed the served predictions it
/// observed and retain every explanation capability.
///
/// Fault tolerance (the production half of the story): model calls go
/// through a retry policy (capped exponential backoff, decorrelated jitter)
/// and a circuit breaker. The degradation ladder is
///
///   full service  ->  retries absorb transient faults
///                 ->  breaker opens on persistent failure; Predict fails
///                     fast with kUnavailable while Explain/Counterfactuals
///                     keep answering from the recorded context (CCE needs
///                     no model call to explain), i.e. record-only mode
///                 ->  breaker half-opens after a cooldown and probes the
///                     backend back to health.
///
/// Per-call Deadlines bound Predict (including its retries) and Explain
/// (the SRK search returns a padded, `degraded` key at budget exhaustion).
/// Health() exposes the machinery for observability.
///
/// Overload protection (DESIGN.md §8): with Options::overload.enabled,
/// every entry point passes a per-class admission layer — token-bucket
/// rate limits, a bounded deadline-aware queue with CoDel-style shedding,
/// and an AIMD concurrency limit on in-flight key searches — so the proxy
/// survives its own clients, not just a failing backend. In the served
/// stack the leader's controller is the only admission point, beside the
/// cache its sheds fall back to. Explain's degradation ladder becomes
///
///   full key  ->  cached key for an identical recently-explained
///                 instance when admitted under pressure or shed; the
///                 cache is generation-fresh — each hit is revalidated
///                 against the window deltas since it was stored, and
///                 only keys whose conformity provably survived the
///                 slide are served (see ExplainCache)
///             ->  padded degraded key at deadline expiry
///             ->  shed with kResourceExhausted + a retry_after hint.
///
/// Malformed instances (wrong arity, out-of-domain value codes, unknown
/// labels) are rejected with kInvalidArgument at every boundary before
/// they can reach the context, the WAL, or a key search.
///
/// Durability and fault isolation (DESIGN.md §7, §10): the context is
/// partitioned into Options::shards ContextShards by instance hash, each
/// with its own WAL, snapshot/compaction cycle, drift monitor and write
/// lock — Records on different shards do not contend, and damage to one
/// shard's files is that shard's problem alone. Every recorded pair is
/// appended to its shard's checksummed write-ahead log before it enters
/// the in-memory window, and Create() replays every shard (salvaging the
/// valid prefix of a corrupt log). Recovery is fail-soft: a shard whose
/// files cannot be salvaged is *quarantined* — Create still succeeds, the
/// remaining shards keep serving, Explain results carry `degraded = true`,
/// and RepairShard() re-admits the shard on a fresh generation. A shard
/// whose fsync fails goes read-only (its WAL is poisoned; no append may
/// claim durability on top of possibly-dropped pages) until compaction
/// rewrites the log. Rows carry a proxy-global sequence number, so keys are
/// bit-identical to a 1-shard proxy.
///
/// Explain reads each shard's persistent bitset index instead of a context
/// copy (docs/algorithms.md "The shard-index read path"): under each shard
/// lock in turn it copies only x0's slice — the violator words and one
/// agreement array per feature — plus the sequence numbers of the shard's
/// first rows, then runs one SRK greedy over the per-shard parts outside
/// every lock. Counts add across disjoint shards and the tie-break sample
/// is merged by sequence, so keys equal Srk::ExplainInstance on
/// ContextSnapshot() bit for bit.
///
/// Thread safety: all public methods may be called concurrently. Predict
/// is serialised by an internal mutex (the breaker counts consecutive
/// *operations*, which only means anything serialised); Record takes only
/// its target shard's lock; Explain and Counterfactuals copy what they
/// need under the shard locks and search outside them, so slow
/// explanations never block recording.
class ExplainableProxy {
 public:
  struct Options {
    /// Rolling context capacity across all shards; 0 = unbounded (batch
    /// users). Eviction is globally oldest-first by sequence number, so
    /// the retained window matches the 1-shard proxy's exactly.
    size_t context_capacity = 0;
    /// Conformity bound for explanations.
    double alpha = 1.0;
    /// Context shards (fault domains / write-lock stripes). 1 keeps the
    /// classic single-WAL layout on disk; N > 1 adds per-shard WAL +
    /// snapshot files ("context.<i>.wal"). A directory written with a
    /// different shard count is adopted: rows from orphan shard files are
    /// re-routed by hash and re-logged, then the orphans are deleted.
    size_t shards = 1;
    /// Enable the succinctness-based drift monitor (one per shard; with
    /// shards = 1 this is exactly the classic monitor).
    bool monitor_drift = true;
    DriftMonitor::Options drift;

    /// Retry schedule for model calls; max_attempts <= 1 disables retries.
    RetryPolicy::Options retry;
    /// Circuit breaker guarding the model endpoint.
    CircuitBreaker::Options breaker;
    /// Seed for the retry jitter (deterministic backoff schedules).
    uint64_t resilience_seed = 42;
    /// How Predict waits out a backoff delay. Defaults to a real
    /// sleep_for; tests inject a recorder to stay fast and deterministic.
    std::function<void(std::chrono::milliseconds)> sleep;
    /// Clock for the breaker's cooldown timer (tests inject manual time).
    CircuitBreaker::ClockFn clock;

    /// Crash-durable context. When `dir` is set, Create() recovers the
    /// context recorded by any previous proxy on the same directory.
    struct Durability {
      /// Directory holding the per-shard snapshots + write-ahead logs;
      /// empty disables durability. Created if missing (parents must
      /// exist). Orphaned "*.tmp.*" files from writers that died between
      /// create and rename are swept on startup.
      std::string dir;
      /// fsync after every N recorded pairs (per shard); 1 = every record
      /// is durable before Record/Predict returns, 0 = never sync
      /// automatically (the OS decides — fastest, weakest).
      size_t sync_every = 1;
      /// Snapshot a shard's window and truncate its log once the log
      /// exceeds this many bytes; 0 = never compact.
      uint64_t compact_threshold_bytes = 4 * 1024 * 1024;
      /// I/O surface for every durability file operation; null means
      /// io::Env::Default(). Tests inject an io::FaultInjectingEnv to
      /// exercise torn writes, EIO, ENOSPC and failed fsyncs.
      io::Env* env = nullptr;
    };
    Durability durability;

    /// Admission control / load shedding for every entry point; disabled
    /// by default (overload.enabled) so private or batch proxies keep the
    /// unchecked fast path.
    OverloadController::Options overload;
    /// Explanation cache backing the "cached key" rung of the degradation
    /// ladder; only consulted when overload protection is enabled.
    ExplainCache::Options explain_cache;

    /// Metrics + tracing (DESIGN.md §9). Always on: the registry write
    /// path is a relaxed sharded increment, cheap enough to leave enabled.
    struct Observability {
      /// Registry receiving every proxy/overload/cache metric. Null means
      /// the proxy owns a private registry (the common case); share one
      /// registry across proxies to aggregate, or pass
      /// obs::GlobalRegistry() via a non-owning shared_ptr.
      std::shared_ptr<obs::Registry> registry;
      /// Per-request trace ring capacity (last-N requests, phase timings,
      /// cause of outcome); 0 disables tracing.
      size_t trace_capacity = 128;
      /// Clock for trace timestamps and the private registry; defaults to
      /// steady_clock (tests inject manual time).
      obs::Registry::ClockFn clock;
    };
    Observability observability;
  };

  /// `model` may be null (record-only mode via Record()); it is not owned
  /// and must outlive the proxy when provided. The model is wrapped in a
  /// LocalModelEndpoint internally. With durability enabled, replays every
  /// shard's snapshot + log under `durability.dir` (salvaging the valid
  /// prefix of a corrupt log; quarantining unsalvageable shards) before
  /// returning; the recovered counts are visible in Health(). The only
  /// recovery error that fails Create is a schema clash — the directory
  /// belongs to a different deployment.
  static Result<std::unique_ptr<ExplainableProxy>> Create(
      std::shared_ptr<const Schema> schema, const Model* model,
      const Options& options);

  /// As Create, but serving an arbitrary (possibly remote, possibly
  /// failing) endpoint. `endpoint` is not owned and must outlive the proxy.
  static Result<std::unique_ptr<ExplainableProxy>> CreateWithEndpoint(
      std::shared_ptr<const Schema> schema, ModelEndpoint* endpoint,
      const Options& options);

  /// Serves one prediction through the wrapped endpoint and records it.
  /// Transient endpoint failures are retried with backoff within the
  /// deadline; persistent failure trips the breaker, after which calls
  /// fail fast with kUnavailable until the backend recovers (record-only
  /// degradation: Explain keeps working). When the target context shard is
  /// quarantined or read-only the prediction is still served — the drop is
  /// counted in cce_quarantine_drops_total and the trace is kDegraded.
  /// FailedPrecondition when constructed without a model.
  Result<Label> Predict(const Instance& x, const Deadline& deadline = {});

  /// Records an externally served (instance, prediction) pair. The label
  /// must exist in the schema's label dictionary — an arbitrary integer
  /// would poison both the context and the write-ahead log. kUnavailable
  /// when the pair's shard is quarantined or read-only (the caller asked
  /// for durability the shard cannot give).
  Status Record(const Instance& x, Label y);

  /// Relative key for a recorded (instance, prediction) against the
  /// current context: ExplainBatch of one item, traced as "explain". Never
  /// touches the model, so it works at every rung of the degradation
  /// ladder. A finite deadline bounds the key search; on expiry the result
  /// is valid but `degraded` (non-minimal key). The key is also flagged
  /// `degraded` when any shard is quarantined: the answer is honest about
  /// being computed from an incomplete context.
  Result<KeyResult> Explain(const Instance& x, Label y,
                            const Deadline& deadline = {}) const;

  /// Explains a batch of recorded (instance, prediction) pairs against ONE
  /// read of the shard indexes, taking each shard lock once for every
  /// item's slice. Results are positional — result i answers items[i] —
  /// and every key is bit-identical to what a serial Explain of that item
  /// against the same window would return, at any batch split. Admission
  /// is charged once for the whole batch (one shared read is one
  /// expensive-work unit); per-item deadlines still apply
  /// individually inside the key search, so one slow item degrades only
  /// itself. On shed, items are answered from the explain cache where a
  /// generation-fresh entry exists and shed individually otherwise.
  std::vector<Result<KeyResult>> ExplainBatch(
      const std::vector<BatchQuery>& items) const;

  /// Closest counterfactual witnesses from the current context. A finite
  /// deadline bounds the admission queue wait.
  Result<std::vector<RelativeCounterfactual>> Counterfactuals(
      const Instance& x, Label y, const Deadline& deadline = {}) const;

  /// Re-admits quarantined shard `shard` with an empty window and a fresh
  /// on-disk generation. kFailedPrecondition when the shard is healthy;
  /// kInvalidArgument for an out-of-range index.
  Status RepairShard(size_t shard);

  /// True when any shard's drift monitor has raised an alarm.
  bool DriftAlarmed() const;

  /// Snapshot of the current context, merged across shards in global
  /// arrival order (e.g. for io::SaveDataset).
  Context ContextSnapshot() const;

  /// Point-in-time resilience + durability counters, breaker state and
  /// per-shard health, assembled from the metrics registry
  /// (docs/metrics.md): every counter lives in exactly one registry cell;
  /// this is a read, not a second bookkeeping path.
  HealthSnapshot Health() const;

  /// Total pairs ever recorded across shards, including those recovered
  /// at Create.
  size_t recorded() const;

  /// The replication watermark P: every acknowledged record has sequence
  /// < P and is durably in its shard's file. Takes all shard locks for an
  /// instant (sequence claims happen under the owning shard's lock, so
  /// holding every lock rules out in-flight claims); cheap at sane shard
  /// counts, but a barrier — call it per ship cycle, not per request.
  uint64_t PublishedSequence() const;

  /// Number of context shards (Options::shards, clamped to >= 1).
  size_t num_shards() const { return shards_.size(); }

  /// The registry all proxy metrics land in (the injected one, or the
  /// proxy's private registry). Feed to obs::RenderPrometheusText /
  /// obs::RenderJson for exposition.
  obs::Registry& registry() const { return *registry_; }

  /// Recent-request trace ring; null when observability.trace_capacity = 0.
  const obs::TraceRing* traces() const { return traces_.get(); }

 private:
  /// Entry-point index for the requests_total{op,outcome} matrix; values
  /// deliberately mirror RequestClass.
  enum class Op { kPredict = 0, kRecord = 1, kExplain = 2, kCfs = 3 };
  static constexpr int kNumOps = 4;
  static constexpr int kNumOutcomes = 7;  // TraceOutcome minus kUnset

  ExplainableProxy(std::shared_ptr<const Schema> schema,
                   ModelEndpoint* endpoint, const Options& options);

  /// Creates every proxy-level metric cell in registry_ (called once from
  /// the constructor, before any request can race with it).
  void InitInstruments();

  /// Stamps the trace outcome (+ failure detail) and bumps
  /// cce_requests_total{op,outcome}.
  void FinishTrace(obs::RequestTrace& trace, Op op, obs::TraceOutcome outcome,
                   const Status* failure = nullptr) const;

  /// Folds a breaker state change (if any) into the transition counters and
  /// the state gauge; caller holds mu_ and captured `before` just before
  /// the mutating breaker call.
  void SyncBreakerLocked(CircuitBreaker::State before) const;

  /// One endpoint call guarded by retries; shared by Predict. Reports the
  /// number of attempts made through `attempts` (always >= 1).
  Result<Label> CallEndpoint(const Instance& x, const Deadline& deadline,
                             int* attempts);

  /// Builds the shards, sweeps orphaned temp files, recovers every shard
  /// (fail-soft), and adopts rows from shard files left by a different
  /// shard-count configuration. Only a schema clash returns an error.
  Status InitShards();

  /// Unlinks "*.tmp.*" leftovers in the durability dir (AtomicWriteFile
  /// casualties); counts them in cce_tmp_orphans_removed_total.
  void SweepOrphanTmpFiles();

  /// Re-routes rows from "context.<i>.wal/.snapshot" files with i >= the
  /// live shard count into the live shards (re-logged), then removes the
  /// orphan files. Unsalvageable orphan files are left in place.
  void AdoptOrphanShardFiles();

  /// Boundary validation of a client-supplied (instance, label); counts
  /// rejects in cce_validation_rejects_total. Lock-free.
  /// `check_label` = false for Predict, whose label comes from the model.
  Status ValidateRequest(const Instance& x, Label y, bool check_label) const;

  /// The one Explain implementation behind Explain and ExplainBatch; `op`
  /// (a string literal) names the trace.
  std::vector<Result<KeyResult>> ExplainItems(
      const std::vector<BatchQuery>& items, const char* op) const;

  /// Routes (x, y) to its shard, appends it there (WAL first), then
  /// enforces the global capacity. `x` must already be validated.
  Status RecordToShard(const Instance& x, Label y);

  /// Evicts globally-oldest rows (min front_seq across shards) until the
  /// total window fits context_capacity.
  void EvictToCapacity();

  /// All shard rows merged into global arrival order.
  std::vector<ContextShard::Row> MergedRows() const;

  /// MergedRows as a Dataset (the ContextSnapshot/Counterfactuals copy).
  Context MergedContext() const;

  /// True when any shard is quarantined (Explain's degraded-context flag).
  bool AnyShardQuarantined() const;

  /// Refreshes the window-size/recorded gauges and the degraded gauge.
  void SyncContextGauges() const;

  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<LocalModelEndpoint> owned_endpoint_;  // Create(Model*) path
  ModelEndpoint* endpoint_;  // may be null (record-only construction)
  Options options_;
  io::Env* env_;  // durability.env or Env::Default(); never null

  /// Serialises Predict (breaker semantics) and guards the resilience
  /// machinery + explain cache. Lock order: mu_ -> evict_mu_ -> shard
  /// locks; never the reverse.
  mutable std::mutex mu_;

  /// The sharded context. Never resized after Create; the vector itself
  /// is immutable, each shard is internally synchronised.
  std::vector<std::unique_ptr<ContextShard>> shards_;
  /// Global arrival order; incremented under the recording shard's lock.
  std::atomic<uint64_t> global_seq_{0};
  /// Rows currently across all shard windows (maintained by the proxy;
  /// shards do not know about the global capacity).
  std::atomic<size_t> total_rows_{0};
  /// Serialises global eviction so concurrent Records cannot over-evict.
  std::mutex evict_mu_;

  RetryPolicy retry_policy_;
  CircuitBreaker breaker_;
  Rng retry_rng_;
  std::function<void(std::chrono::milliseconds)> sleep_;

  /// Admission layer; null when overload protection is disabled. Has its
  /// own mutex — expensive-class admission must wait for a slot without
  /// holding mu_, so Predict/Record stay unblocked.
  std::unique_ptr<OverloadController> overload_;
  /// Cached-key ladder rung; null when overload disabled. Entry storage is
  /// guarded by mu_; the cache's window-delta ring is internally
  /// synchronised so RecordToShard/EvictToCapacity can append deltas
  /// without taking mu_ (Record never holds mu_).
  std::unique_ptr<ExplainCache> explain_cache_;

  /// Injected or privately owned; every metric cell below points into it.
  std::shared_ptr<obs::Registry> registry_;
  /// Recent-request ring; null when tracing is disabled.
  std::unique_ptr<obs::TraceRing> traces_;

  /// Raw metric cells (owned by registry_; cached here so the hot path is
  /// one pointer chase + one sharded atomic op). Created in
  /// InitInstruments; the mutable ones are written from const entry points
  /// (Explain/Counterfactuals are logically const but count serves).
  struct Instruments {
    obs::Counter* requests[kNumOps][kNumOutcomes] = {};
    obs::Counter* predicts = nullptr;
    obs::Counter* predict_failures = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* deadline_misses = nullptr;
    obs::Counter* explains = nullptr;
    obs::Counter* degraded_explains = nullptr;
    obs::Counter* cache_served_explains = nullptr;
    obs::Counter* batch_executions = nullptr;
    obs::Counter* batch_items = nullptr;
    obs::Counter* fallback_serves = nullptr;
    obs::Counter* validation_rejects = nullptr;
    obs::Counter* breaker_rejections = nullptr;
    obs::Counter* breaker_transitions[3] = {};  // indexed by breaker State
    obs::Gauge* breaker_state = nullptr;
    obs::Counter* wal_records_logged = nullptr;
    obs::Counter* wal_fsyncs = nullptr;
    obs::Counter* wal_compactions = nullptr;
    obs::Counter* wal_records_recovered = nullptr;
    obs::Counter* wal_records_dropped = nullptr;
    obs::Counter* compaction_failures = nullptr;
    obs::Counter* quarantine_drops = nullptr;
    obs::Counter* tmp_orphans_removed = nullptr;
    obs::Counter* bitmap_rebuilds = nullptr;
    obs::Gauge* context_window_size = nullptr;
    obs::Gauge* recorded_pairs = nullptr;
    obs::Gauge* context_degraded = nullptr;
    obs::Histogram* predict_latency_us = nullptr;
    obs::Histogram* explain_latency_us = nullptr;
    obs::Histogram* wal_append_us = nullptr;
  };
  mutable Instruments ins_;
  /// Per-shard cells ({shard="<i>"} labels), one set per configured shard;
  /// handed to the matching ContextShard at construction.
  std::vector<ContextShard::Instruments> shard_ins_;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_PROXY_H_
