#ifndef CCE_SERVING_REPLICA_PROXY_H_
#define CCE_SERVING_REPLICA_PROXY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "common/status.h"
#include "core/cce.h"
#include "core/counterfactual.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "io/env.h"
#include "io/ship_manifest.h"
#include "obs/metrics.h"
#include "serving/context_shard.h"
#include "serving/proxy.h"
#include "serving/read_path.h"
#include "serving/resilience.h"

namespace cce::serving {

/// Follower half of WAL-shipping replication: a read-only proxy that
/// bootstraps from a ShardLogShipper's ship directory and serves
/// Explain/Counterfactuals from a generation-consistent view of the
/// leader's recorded context — with keys *bit-identical* to the leader's
/// at the same published sequence.
///
/// The served view is a record-only, in-memory ExplainableProxy fed the
/// shipped pairs: each view publish records only the rows that crossed the
/// watermark, in global sequence order, and the view's own capacity
/// eviction keeps the leader's window. Leader and replica therefore answer
/// from the same shard index through the same ExplainBatch, and no read
/// rebuilds anything.
///
/// Consistency model. Each manifest shard record carries a per-shard
/// watermark p (complete up to p); the replica's served view is the
/// sequence min(p) over shards it has fully applied. A shard whose
/// shipped files are torn, divergent or unreadable is *tail-quarantined*:
/// its last-good applied rows keep serving, its watermark stops
/// advancing, and the whole view holds at the old watermark — stale but
/// never inconsistent. Explains then carry degraded = true, and
/// Health().lag_seq bounds the staleness in sequence numbers.
///
/// Fail-soft discipline (mirrors the leader's shards): no shipped-file
/// damage crashes the replica or fails Create. A corrupt manifest keeps
/// the previous view; a torn segment quarantines one shard's tail; a
/// divergence digest mismatch triggers an automatic resync of that shard
/// from the shipped files (dropping only replica-side state — the ship
/// directory is the source of truth).
///
/// Thread safety: all public methods may be called concurrently. CatchUp,
/// Scrub and ForceResync serialise on an internal catch-up mutex and feed
/// the view under a short lock; reads copy the view pointer under that
/// lock and search outside it. A read that overlaps a feed may therefore
/// see rows at or above the published_seq() sampled before it (never a
/// torn row: rows enter the view whole, in sequence order) —
/// published_seq() is a lower bound, as the leader's PublishedSequence()
/// is for its concurrent reads.
class ReplicaProxy {
 public:
  struct Options {
    /// The ship directory a ShardLogShipper publishes into.
    std::string ship_dir;
    /// Rolling window capacity — must equal the leader's
    /// context_capacity for bit-identical keys (0 = unbounded).
    size_t context_capacity = 0;
    /// Conformity bound — must equal the leader's alpha.
    double alpha = 1.0;
    /// I/O surface; null means io::Env::Default(). Tests inject
    /// io::FaultInjectingEnv to fault the replication read path.
    io::Env* env = nullptr;
    /// Metric sink; null means a private registry.
    std::shared_ptr<obs::Registry> registry;
    /// Cadence of the background tailing loop started by Start().
    std::chrono::milliseconds poll_interval{50};
    /// Run the divergence scrubber every N background catch-ups; 0
    /// disables background scrubbing (Scrub() can still be called).
    size_t scrub_every = 8;
  };

  /// Point-in-time replica health.
  struct Health {
    /// The view watermark: every served row has seq < view_published,
    /// and every leader row with seq < view_published is in the view.
    uint64_t view_published = 0;
    /// Watermark of the newest good manifest seen.
    uint64_t latest_published = 0;
    /// latest_published - view_published: staleness bound in sequences.
    uint64_t lag_seq = 0;
    /// True when any tail is quarantined or the last manifest load
    /// failed: Explains are flagged degraded.
    bool degraded = false;
    /// False until a manifest has been loaded successfully.
    bool manifest_ok = false;
    /// Rows in the served window (capacity-trimmed, as ContextSnapshot()).
    uint64_t rows_in_view = 0;
    struct Tail {
      size_t index = 0;
      bool bootstrapped = false;
      bool quarantined = false;
      /// Why the tail is quarantined ("wal", "snapshot", "divergence",
      /// "read"); empty while healthy.
      std::string cause;
      uint64_t applied_rows = 0;
      uint64_t applied_through = 0;
      /// Snapshot generation currently applied.
      uint64_t base = 0;
    };
    std::vector<Tail> tails;
    uint64_t catchups = 0;
    uint64_t divergences = 0;
    uint64_t resyncs = 0;
    uint64_t manifest_failures = 0;
    /// Extra delay the background loop currently adds between polls
    /// because manifest loads keep failing; 0 while loads succeed.
    int64_t manifest_backoff_ms = 0;
  };

  /// Builds the replica and runs one catch-up (fail-soft: a missing or
  /// damaged ship directory yields an empty, degraded view, not an
  /// error). Fails only for invalid options. `schema` must be the
  /// leader's schema.
  static Result<std::unique_ptr<ReplicaProxy>> Create(
      std::shared_ptr<const Schema> schema, const Options& options);

  ~ReplicaProxy();
  ReplicaProxy(const ReplicaProxy&) = delete;
  ReplicaProxy& operator=(const ReplicaProxy&) = delete;

  /// One synchronous catch-up pass: reload the manifest, bootstrap or
  /// tail every shard, verify digests, advance the view. Returns OK even
  /// when shards were quarantined (fail-soft); the error cases are
  /// recorded in Health(). Serialised with Scrub/ForceResync.
  Status CatchUp();

  /// Divergence scrub: recompute every caught-up shard's digest from
  /// applied state against the manifest; a mismatch counts a divergence
  /// and resyncs the shard from the shipped files.
  Status Scrub();

  /// Drops all replica-side state and rebuilds from the ship directory
  /// (the runbook's forced-resync operation).
  Status ForceResync();

  /// Starts/stops the background tailing thread (CatchUp every
  /// poll_interval, Scrub every scrub_every cycles). Start is idempotent.
  void Start();
  void Stop();

  /// Relative key for (x, y) against the replica's current view:
  /// ExplainBatch of one item.
  Result<KeyResult> Explain(const Instance& x, Label y,
                            const Deadline& deadline = {}) const;

  /// The view's ExplainBatch: one read of its index answers every item,
  /// each key bit-identical to the leader's at the same published
  /// sequence. Keys are also flagged `degraded` while the view is behind a
  /// quarantined or failing replication path. kFailedPrecondition while
  /// the view is empty.
  std::vector<Result<KeyResult>> ExplainBatch(
      const std::vector<BatchQuery>& items) const;

  /// Closest counterfactual witnesses from the current view.
  Result<std::vector<RelativeCounterfactual>> Counterfactuals(
      const Instance& x, Label y) const;

  /// The served view as a Context (rows with seq < published_seq() in
  /// arrival order, capacity-windowed) — the replica-side twin of
  /// ExplainableProxy::ContextSnapshot().
  Context ContextSnapshot() const;

  /// The view watermark (Health().view_published).
  uint64_t published_seq() const;

  Health GetHealth() const;

  obs::Registry& registry() const { return *registry_; }

 private:
  static constexpr size_t kReseed = SIZE_MAX;

  struct ShardTail {
    bool bootstrapped = false;
    bool quarantined = false;
    std::string cause;
    /// Snapshot generation (covers == wal base) currently applied.
    uint64_t base = 0;
    /// Applied rows of the current generation, ascending seq. Never
    /// trimmed while the generation lives — the digest covers them all.
    std::vector<ContextShard::Row> rows;
    /// Manifest watermark this tail is complete up to.
    uint64_t applied_through = 0;
    /// rows[0, fed) are in the served view; kReseed for a new tail and
    /// after its rows were replaced (bootstrap, new generation, resync).
    size_t fed = kReseed;
  };

  /// One shard's shipped file contents, read before any lock is taken.
  struct ShardFiles {
    std::string snapshot;
    bool snapshot_ok = false;
    std::string wal;
    bool wal_ok = false;
  };

  ReplicaProxy(std::shared_ptr<const Schema> schema, const Options& options);

  void InitInstruments();
  /// Reads the manifest and every shard's shipped files (all the file
  /// I/O of a catch-up or resync, no locks beyond catchup_mu_). On
  /// failure `*quiet` says whether this is the benign
  /// leader-has-not-shipped-yet case. Under catchup_mu_.
  Status LoadShipState(io::ShipManifest* manifest,
                       std::vector<ShardFiles>* files, bool* quiet);
  /// Advance / clear the tail-loop manifest backoff. Under catchup_mu_.
  void ArmManifestBackoff();
  void ResetManifestBackoff();
  /// Applies one manifest shard record to its tail (bootstrap, tail, or
  /// quarantine). File contents are already read; mutates only `tail`
  /// and (thread-safe) counters, so callers may run it on a private
  /// tail outside mu_.
  void ApplyShard(const io::ShipManifest::Shard& entry,
                  const std::string& snapshot_content, bool snapshot_read_ok,
                  const std::string& wal_content, bool wal_read_ok,
                  ShardTail* tail);
  /// CRC-32C digest over `rows` with seq < `published` (the follower
  /// half of the manifest digest contract).
  static uint32_t DigestRows(const std::vector<ContextShard::Row>& rows,
                             uint64_t published);
  /// Brings `*view`, fed through watermark `fed_through`, to the tails'
  /// watermark min(applied_through) and returns it: records the rows that
  /// crossed it, or first swaps in a fresh view when there is none, the
  /// watermark fell, or a tail's rows were replaced.
  uint64_t AdvanceView(std::vector<ShardTail>* tails, uint64_t fed_through,
                       std::shared_ptr<ExplainableProxy>* view) const;
  /// Advances the view and refreshes the gauges. Under mu_.
  void PublishViewLocked();
  /// The served view; `degraded` reports a quarantined tail or a failing
  /// manifest.
  std::shared_ptr<const ExplainableProxy> View(bool* degraded) const;
  Status CatchUpLocked();
  /// Lazily creates the per-shard tail-quarantined gauge.
  obs::Gauge* TailGauge(size_t shard) const;

  std::shared_ptr<const Schema> schema_;
  Options options_;
  io::Env* env_;

  /// Serialises CatchUp/Scrub/ForceResync (file I/O happens under this,
  /// never under mu_).
  std::mutex catchup_mu_;
  /// Guards tails_ + view fields. Held only for memory work.
  mutable std::mutex mu_;
  std::vector<ShardTail> tails_;
  /// The served window: a record-only proxy (private registry, one shard)
  /// holding the rows below view_published_. Swapped whole on a reseed, so
  /// a reader's copy stays valid.
  std::shared_ptr<ExplainableProxy> view_;
  uint64_t view_published_ = 0;
  uint64_t latest_published_ = 0;
  bool manifest_ok_ = false;
  /// A manifest has loaded successfully at least once (distinguishes
  /// "leader has not shipped yet" from "the manifest went bad").
  bool had_manifest_ = false;

  /// Manifest-failure backoff state (mutated under catchup_mu_ only; the
  /// current value is atomic so the tail loop and Health read it lock
  /// free).
  RetryPolicy manifest_backoff_;
  Rng backoff_rng_;
  std::atomic<int64_t> manifest_backoff_ms_{0};

  std::shared_ptr<obs::Registry> registry_;

  /// Background tailing loop.
  std::thread tail_thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;

  obs::Histogram* lag_hist_ = nullptr;
  obs::Histogram* catchup_micros_ = nullptr;
  obs::Gauge* backoff_gauge_ = nullptr;
  obs::Gauge* published_gauge_ = nullptr;
  obs::Counter* catchups_ = nullptr;
  obs::Counter* records_applied_ = nullptr;
  obs::Counter* divergences_ = nullptr;
  obs::Counter* resyncs_ = nullptr;
  obs::Counter* manifest_failures_ = nullptr;
  obs::Counter* fence_skips_ = nullptr;
  obs::Counter* scrubs_ = nullptr;
  obs::Counter* explains_ = nullptr;
  obs::Histogram* explain_latency_us_ = nullptr;
  /// Per-shard {shard="<i>"} quarantine gauges, created lazily (the
  /// shard count is discovered from the manifest).
  mutable std::vector<obs::Gauge*> tail_gauges_;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_REPLICA_PROXY_H_
