#ifndef CCE_SERVING_CONTEXT_SHARD_H_
#define CCE_SERVING_CONTEXT_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/cce.h"
#include "core/dataset.h"
#include "core/types.h"
#include "io/context_wal.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "serving/shard_index.h"

namespace cce::serving {

/// One fault domain of the proxy's recorded context: a slice of the rolling
/// window plus its own write-ahead log, snapshot/compaction cycle, drift
/// monitor and write lock. The proxy routes each recorded pair to the shard
/// chosen by ShardFor(instance) so concurrent Records on different shards
/// never contend, and a damaged shard never takes the others down.
///
/// Every row carries a proxy-global sequence number assigned under the
/// shard lock at record time; the merged context orders shard windows by
/// sequence, so it reproduces the exact arrival order and relative keys are
/// bit-identical to a 1-shard configuration.
///
/// Each shard also keeps a persistent bitset index of its window (a
/// ShardIndex, fed every window change under the shard lock), from which
/// ReadIndex copies exactly what one key search needs (docs/algorithms.md
/// "The shard-index read path").
///
/// States (fail-soft discipline; Create never fails for I/O damage):
///
///   active      — recording and serving normally.
///   read-only   — the WAL is poisoned (failed fsync, or failed rollback
///                 after a torn append): no append may claim durability, so
///                 Record fails with kUnavailable. The shard still serves
///                 its rows. Each Record first retries compaction, which
///                 rewrites the log on a fresh handle and re-activates.
///   quarantined — recovery could not salvage the shard's files (unreadable
///                 or unparseable snapshot/WAL). The shard serves nothing
///                 and refuses Record until Repair() starts a fresh
///                 generation. Only a *schema clash* escapes the fail-soft
///                 rule: a snapshot describing a different feature space
///                 means the directory belongs to another deployment, and
///                 Recover returns a hard kInvalidArgument instead.
///
/// Thread safety: all methods may be called concurrently; mutations are
/// serialised by an internal mutex, cheap readers are lock-free atomics.
class ContextShard {
 public:
  enum class State { kActive = 0, kReadOnly = 1, kQuarantined = 2 };

  struct Options {
    /// Shard index, for labels and error messages.
    size_t index = 0;
    /// WAL path; empty = in-memory shard (durability disabled).
    std::string wal_path;
    std::string snapshot_path;
    /// fsync cadence (see ContextWal::Options).
    size_t sync_every = 1;
    /// Snapshot + truncate once the shard's log exceeds this; 0 = never.
    uint64_t compact_threshold_bytes = 4 * 1024 * 1024;
    /// I/O surface; null means io::Env::Default().
    io::Env* env = nullptr;
    /// Per-shard succinctness drift monitor.
    bool monitor_drift = false;
    DriftMonitor::Options drift;
  };

  /// Registry cells the shard reports into, created by the proxy (owned by
  /// its registry). Cells prefixed `shard_` carry a {shard="<i>"} label;
  /// the `agg_` ones are the proxy-wide legacy aggregates.
  struct Instruments {
    obs::Counter* shard_wal_appends = nullptr;
    obs::Counter* shard_wal_fsyncs = nullptr;
    obs::Counter* shard_recovered_records = nullptr;
    obs::Counter* shard_salvage_dropped = nullptr;
    obs::Counter* shard_repairs = nullptr;
    obs::Gauge* shard_quarantined = nullptr;  // 0/1
    obs::Gauge* shard_read_only = nullptr;    // 0/1
    /// Bytes the last salvage truncated off this shard's log (gauge: the
    /// most recent recovery's damage, not a lifetime sum).
    obs::Gauge* shard_salvage_truncated_bytes = nullptr;
    /// Quarantine events attributed to the file that caused them
    /// ({cause="snapshot"} / {cause="wal"}).
    obs::Counter* shard_quarantines_snapshot = nullptr;
    obs::Counter* shard_quarantines_wal = nullptr;
    obs::Counter* agg_records_logged = nullptr;
    obs::Counter* agg_fsyncs = nullptr;
    obs::Counter* agg_compactions = nullptr;
    obs::Counter* agg_records_recovered = nullptr;
    obs::Counter* agg_records_dropped = nullptr;
    obs::Counter* compaction_failures = nullptr;
    /// Index compactions triggered by the live-fraction rule.
    obs::Counter* index_compactions = nullptr;
    obs::Histogram* wal_append_us = nullptr;
    /// Registry whose clock times wal_append_us; null skips the latency.
    const obs::Registry* registry = nullptr;
  };

  /// One context row with its global arrival sequence number.
  struct Row {
    uint64_t seq = 0;
    Instance x;
    Label y = 0;
  };

  ContextShard(std::shared_ptr<const Schema> schema, const Options& options,
               const Instruments& instruments);

  /// Which of `num_shards` shards owns `x` (FNV-1a over the value ids).
  /// Stable across runs and shard-count-independent inputs to the hash, so
  /// a directory written with N shards re-routes cleanly under M (orphan
  /// adoption).
  static size_t ShardFor(const Instance& x, size_t num_shards);

  /// Replays this shard's snapshot + WAL, assigning fresh global sequence
  /// numbers from `seq` in replay order (snapshot rows, then log frames).
  /// Fail-soft: I/O damage quarantines the shard and returns OK; only a
  /// schema clash is a hard error. Rows are schema-validated; invalid ones
  /// are dropped and counted. When anything was replayed or discarded the
  /// shard folds the recovered state into a fresh generation (compaction).
  Status Recover(std::atomic<uint64_t>* seq);

  /// Appends (x, y): WAL first (durable per the sync policy), then the
  /// window, tagged with a sequence number drawn from `seq` under the
  /// shard lock. kUnavailable while quarantined; while read-only, retries
  /// compaction first and only fails if the log still cannot be rewritten.
  /// `x` must already be schema-validated by the proxy boundary.
  Status Record(const Instance& x, Label y, std::atomic<uint64_t>* seq);

  /// Appends copies of the shard's rows to `out` (no ordering guarantee
  /// beyond per-shard sequence order; the caller merges by seq).
  void SnapshotInto(std::vector<Row>* out) const;

  using SliceQuery = ShardIndex::SliceQuery;

  /// Where ReadIndex put this shard's slices in the caller's buffer.
  struct IndexSlices : ShardIndex::Slices {
    /// Rows in the window.
    size_t rows = 0;
  };

  /// Under the shard lock, appends the index's slices for `queries` to
  /// `words` (ShardIndex::AppendSlices) and replaces `head_seqs` with the
  /// sequence numbers of the window's first min(window, head_rows) rows
  /// (the caller merges them across shards to find each shard's share of
  /// the global head).
  IndexSlices ReadIndex(const std::vector<SliceQuery>& queries,
                        size_t head_rows, std::vector<uint64_t>* words,
                        std::vector<uint64_t>* head_seqs) const;

  /// Evicts the oldest row; false when the window is empty. The evicted
  /// row stays in the WAL until the next compaction (same policy the
  /// 1-shard proxy always had). When `evicted` is non-null the popped row
  /// is moved into it — the explain cache's delta ring needs the row's
  /// (x, y) to revalidate cached keys against the slide.
  bool PopFront(Row* evicted = nullptr);

  /// Writes the window to the snapshot (with a covers-through marker) and
  /// resets the WAL to a fresh generation. A failure leaves the previous
  /// snapshot + log generation intact and readable.
  Status Compact();

  /// Re-admits a quarantined shard with an empty window and a fresh WAL
  /// generation (the damaged files are removed). kFailedPrecondition when
  /// the shard is not quarantined.
  Status Repair();

  State state() const { return state_.load(std::memory_order_acquire); }
  /// Sequence number of the oldest row; UINT64_MAX when empty.
  uint64_t front_seq() const {
    return front_seq_.load(std::memory_order_acquire);
  }
  size_t window_size() const {
    return window_size_.load(std::memory_order_acquire);
  }
  /// Pairs ever recorded into this shard, including compacted-away ones.
  uint64_t total_recorded() const {
    return total_recorded_.load(std::memory_order_acquire);
  }
  bool DriftAlarmed() const;
  bool wal_poisoned() const;
  /// Why the shard is quarantined; empty while not quarantined.
  std::string quarantine_reason() const;
  /// Bytes the last recovery's salvage truncated off the WAL (0 when the
  /// log came back clean). Sticky across compactions so operators can see
  /// the damage after the shard healed itself.
  uint64_t last_salvage_truncated_bytes() const;
  /// The most recent quarantine's reason and causing file ("snapshot" or
  /// "wal"). Unlike quarantine_reason(), these survive Repair(): they
  /// answer "what happened to this shard" rather than "what is wrong now".
  std::string last_quarantine_reason() const;
  std::string last_quarantine_cause() const;
  size_t index() const { return options_.index; }
  /// Heap bytes of the shard's bitset index (docs/operations.md "Sizing
  /// the shard index").
  size_t index_bytes() const;

  /// Exclusive hold on the shard's mutex, for callers that must freeze
  /// several shards at once (the proxy's published-sequence barrier).
  /// While held, no Record can claim a sequence number in this shard.
  std::unique_lock<std::mutex> AcquireLock() const {
    return std::unique_lock<std::mutex>(mu_);
  }

 private:
  /// Marks the shard quarantined with `reason`, attributed to the damaged
  /// file class `cause` ("snapshot" or "wal"); returns OK (the fail-soft
  /// translation of an unrecoverable error).
  Status QuarantineLocked(const std::string& reason, const char* cause);
  Status RecordLocked(const Instance& x, Label y, std::atomic<uint64_t>* seq);
  Status CompactLocked();
  /// Exports wal_->fsyncs() deltas into the per-shard + aggregate cells.
  void SyncFsyncCountersLocked();
  void SetStateLocked(State state);
  void PushRowLocked(uint64_t seq, const Instance& x, Label y);

  std::shared_ptr<const Schema> schema_;
  Options options_;
  io::Env* env_;
  Instruments ins_;

  mutable std::mutex mu_;
  std::deque<Row> window_;
  ShardIndex index_;  // holds exactly window_'s rows, in window order
  std::unique_ptr<io::ContextWal> wal_;  // null for in-memory shards
  std::unique_ptr<DriftMonitor> drift_;
  std::string quarantine_reason_;
  std::string last_quarantine_reason_;
  std::string last_quarantine_cause_;
  uint64_t last_salvage_truncated_bytes_ = 0;
  uint64_t wal_fsyncs_exported_ = 0;

  std::atomic<State> state_{State::kActive};
  std::atomic<uint64_t> front_seq_{UINT64_MAX};
  std::atomic<size_t> window_size_{0};
  std::atomic<uint64_t> total_recorded_{0};
};

}  // namespace cce::serving

#endif  // CCE_SERVING_CONTEXT_SHARD_H_
