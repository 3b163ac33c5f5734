#include "serving/context_shard.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "io/atomic_file.h"
#include "io/serialize.h"
#include "io/shard_snapshot.h"

namespace cce::serving {

ContextShard::ContextShard(std::shared_ptr<const Schema> schema,
                           const Options& options,
                           const Instruments& instruments)
    : schema_(std::move(schema)),
      options_(options),
      env_(options.env != nullptr ? options.env : io::Env::Default()),
      ins_(instruments),
      index_(*schema_) {
  if (options_.monitor_drift) {
    drift_ = std::make_unique<DriftMonitor>(schema_, options_.drift);
  }
}

size_t ContextShard::ShardFor(const Instance& x, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const ValueId v : x) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ull;  // FNV prime
  }
  return static_cast<size_t>(h % num_shards);
}

void ContextShard::SetStateLocked(State state) {
  state_.store(state, std::memory_order_release);
  if (ins_.shard_quarantined != nullptr) {
    ins_.shard_quarantined->Set(state == State::kQuarantined ? 1 : 0);
  }
  if (ins_.shard_read_only != nullptr) {
    ins_.shard_read_only->Set(state == State::kReadOnly ? 1 : 0);
  }
}

Status ContextShard::QuarantineLocked(const std::string& reason,
                                      const char* cause) {
  quarantine_reason_ = reason;
  last_quarantine_reason_ = reason;
  last_quarantine_cause_ = cause;
  if (std::string(cause) == "snapshot") {
    if (ins_.shard_quarantines_snapshot != nullptr) {
      ins_.shard_quarantines_snapshot->Increment();
    }
  } else if (ins_.shard_quarantines_wal != nullptr) {
    ins_.shard_quarantines_wal->Increment();
  }
  wal_.reset();
  window_.clear();
  index_.Clear();
  window_size_.store(0, std::memory_order_release);
  front_seq_.store(UINT64_MAX, std::memory_order_release);
  total_recorded_.store(0, std::memory_order_release);
  SetStateLocked(State::kQuarantined);
  return Status::Ok();
}

void ContextShard::PushRowLocked(uint64_t seq, const Instance& x, Label y) {
  if (window_.empty()) {
    front_seq_.store(seq, std::memory_order_release);
  }
  window_.push_back(Row{seq, x, y});
  index_.Push(x, y);
  window_size_.store(window_.size(), std::memory_order_release);
  if (drift_ != nullptr) drift_->Observe(x, y);
}

size_t ContextShard::index_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.bytes();
}

void ContextShard::SyncFsyncCountersLocked() {
  if (wal_ == nullptr) return;
  const uint64_t fsyncs = wal_->fsyncs();
  if (fsyncs > wal_fsyncs_exported_) {
    const uint64_t delta = fsyncs - wal_fsyncs_exported_;
    if (ins_.shard_wal_fsyncs != nullptr) ins_.shard_wal_fsyncs->Add(delta);
    if (ins_.agg_fsyncs != nullptr) ins_.agg_fsyncs->Add(delta);
    wal_fsyncs_exported_ = fsyncs;
  }
}

Status ContextShard::Recover(std::atomic<uint64_t>* seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.wal_path.empty()) return Status::Ok();  // in-memory shard

  io::LoadedShardSnapshot snapshot;
  snapshot.rows = Dataset(schema_);
  if (env_->FileExists(options_.snapshot_path)) {
    auto loaded = io::LoadShardSnapshot(env_, options_.snapshot_path);
    if (!loaded.ok()) {
      return QuarantineLocked("shard " + std::to_string(options_.index) +
                                  " snapshot unrecoverable: " +
                                  loaded.status().message(),
                              "snapshot");
    }
    snapshot = std::move(loaded).value();
    Status compatible =
        io::CheckShardSchemaCompatible(*schema_, snapshot.rows.schema());
    // A schema clash is the hard failure that must stop Create: serving
    // another deployment's context would silently mis-explain everything.
    CCE_RETURN_IF_ERROR(compatible);
  }

  // Collect the log's frames first, then decide what to apply: the skip
  // count below depends on recovery stats only known after Open returns.
  std::vector<Row> frames;
  io::ContextWal::RecoveryStats stats;
  io::ContextWal::Options wal_options;
  wal_options.sync_every = options_.sync_every;
  wal_options.env = env_;
  auto replay = [&frames](uint64_t frame_seq, const Instance& x, Label y) {
    frames.push_back(Row{frame_seq, x, y});
    return Status::Ok();
  };
  auto opened = io::ContextWal::Open(options_.wal_path, wal_options, replay,
                                     &stats);
  if (!opened.ok()) {
    return QuarantineLocked("shard " + std::to_string(options_.index) +
                                " wal unrecoverable: " +
                                opened.status().message(),
                            "wal");
  }
  wal_ = std::move(opened).value();
  last_salvage_truncated_bytes_ = stats.bytes_discarded;
  if (ins_.shard_salvage_truncated_bytes != nullptr) {
    ins_.shard_salvage_truncated_bytes->Set(
        static_cast<int64_t>(stats.bytes_discarded));
  }

  // Torn-compaction healing: a crash after the snapshot rename but before
  // the WAL reset leaves log frames that the snapshot already contains.
  // The wrapper's covers count identifies exactly how many to skip.
  const uint64_t base = stats.base_recorded;
  uint64_t skip = 0;
  if (snapshot.covers_valid && snapshot.covers > base) {
    skip = std::min<uint64_t>(snapshot.covers - base, frames.size());
  }

  uint64_t replayed = 0;
  uint64_t dropped = stats.records_dropped;
  // Rows recovered with a persisted sequence keep it — that is what lets
  // the proxy re-merge N shard windows into the exact cross-shard arrival
  // order — and the shared counter is advanced past it so new records
  // never collide. Legacy rows (headerless snapshot) take fresh numbers.
  auto admit = [&](uint64_t row_seq, bool seq_known, const Instance& x,
                   Label y) {
    if (!schema_->ValidateInstance(x).ok() ||
        !schema_->ValidateLabel(y).ok()) {
      // A poisoned row in a tampered file is dropped, not admitted.
      ++dropped;
      return;
    }
    if (seq_known) {
      // Recovery runs shard-sequentially on one thread; a plain
      // load/store max is race-free here.
      if (seq->load(std::memory_order_relaxed) <= row_seq) {
        seq->store(row_seq + 1, std::memory_order_relaxed);
      }
    } else {
      row_seq = seq->fetch_add(1, std::memory_order_relaxed);
    }
    PushRowLocked(row_seq, x, y);
    ++replayed;
  };
  for (size_t row = 0; row < snapshot.rows.size(); ++row) {
    const bool seq_known = snapshot.covers_valid;
    admit(seq_known ? snapshot.seqs[row] : 0, seq_known,
          snapshot.rows.instance(row), snapshot.rows.label(row));
  }
  for (size_t i = static_cast<size_t>(skip); i < frames.size(); ++i) {
    admit(frames[i].seq, true, frames[i].x, frames[i].y);
  }

  // Total ever recorded: the covers count (or the log base) accounts for
  // everything compacted away, including rows evicted from the window.
  const uint64_t covered =
      snapshot.covers_valid ? snapshot.covers
                            : static_cast<uint64_t>(snapshot.rows.size());
  total_recorded_.store(std::max<uint64_t>(covered, base + frames.size()),
                        std::memory_order_release);

  if (ins_.shard_recovered_records != nullptr && replayed > 0) {
    ins_.shard_recovered_records->Add(replayed);
  }
  if (ins_.agg_records_recovered != nullptr && replayed > 0) {
    ins_.agg_records_recovered->Add(replayed);
  }
  if (dropped > 0) {
    if (ins_.shard_salvage_dropped != nullptr) {
      ins_.shard_salvage_dropped->Add(dropped);
    }
    if (ins_.agg_records_dropped != nullptr) {
      ins_.agg_records_dropped->Add(dropped);
    }
  }

  // Start the new process on a clean generation whenever the recovered
  // state differs from (snapshot, empty log): fold it into a fresh
  // snapshot + reset log. Fail-soft — a failed fold leaves the previous
  // generation readable and the shard serving.
  if (stats.records_recovered > 0 || stats.bytes_discarded > 0 ||
      (snapshot.covers_valid && snapshot.covers != base)) {
    Status folded = CompactLocked();
    if (!folded.ok()) {
      if (ins_.compaction_failures != nullptr) {
        ins_.compaction_failures->Increment();
      }
      if (wal_->poisoned()) SetStateLocked(State::kReadOnly);
    }
  }
  SyncFsyncCountersLocked();
  return Status::Ok();
}

Status ContextShard::Record(const Instance& x, Label y,
                            std::atomic<uint64_t>* seq) {
  std::lock_guard<std::mutex> lock(mu_);
  return RecordLocked(x, y, seq);
}

Status ContextShard::RecordLocked(const Instance& x, Label y,
                                  std::atomic<uint64_t>* seq) {
  const State state = state_.load(std::memory_order_relaxed);
  if (state == State::kQuarantined) {
    return Status::Unavailable(
        "context shard " + std::to_string(options_.index) +
        " is quarantined (" + quarantine_reason_ + "); RepairShard() to "
        "re-admit it");
  }
  if (state == State::kReadOnly) {
    // The poisoned log can only be trusted again once rewritten from
    // scratch; compaction is exactly that rewrite.
    Status healed = CompactLocked();
    if (!healed.ok()) {
      if (ins_.compaction_failures != nullptr) {
        ins_.compaction_failures->Increment();
      }
      return Status::Unavailable(
          "context shard " + std::to_string(options_.index) +
          " is read-only: wal is poisoned by a failed fsync and could not "
          "be rewritten (" + healed.message() + ")");
    }
    SetStateLocked(State::kActive);
  }
  // The sequence is claimed before the WAL write so the number on disk is
  // the number the row serves under; a failed append leaves a gap in the
  // global order, which recovery tolerates (sequences are sparse per
  // shard anyway).
  const uint64_t row_seq = seq->fetch_add(1, std::memory_order_relaxed);
  if (wal_ != nullptr) {
    Status appended;
    {
      obs::ScopedLatency latency(ins_.registry, ins_.wal_append_us);
      appended = wal_->Append(x, y, row_seq);
    }
    if (!appended.ok()) {
      if (wal_->poisoned()) SetStateLocked(State::kReadOnly);
      return appended;
    }
    if (ins_.shard_wal_appends != nullptr) {
      ins_.shard_wal_appends->Increment();
    }
    if (ins_.agg_records_logged != nullptr) {
      ins_.agg_records_logged->Increment();
    }
    SyncFsyncCountersLocked();
    if (wal_->poisoned()) {
      // sync_every fired on this append and the fsync failed: the bytes
      // may never reach disk, so the append must not report OK.
      SetStateLocked(State::kReadOnly);
      return Status::Unavailable(
          "context shard " + std::to_string(options_.index) +
          " wal fsync failed; the record is not durable and the shard is "
          "read-only until the log is rewritten");
    }
  }
  PushRowLocked(row_seq, x, y);
  total_recorded_.fetch_add(1, std::memory_order_release);
  if (wal_ != nullptr && options_.compact_threshold_bytes > 0 &&
      wal_->size_bytes() >= options_.compact_threshold_bytes) {
    Status compacted = CompactLocked();
    if (!compacted.ok()) {
      // The record itself is durable and applied; a failed compaction
      // only means the log stays long. Count it and keep serving unless
      // the WAL came out poisoned.
      if (ins_.compaction_failures != nullptr) {
        ins_.compaction_failures->Increment();
      }
      if (wal_->poisoned()) SetStateLocked(State::kReadOnly);
    }
  }
  return Status::Ok();
}

Status ContextShard::CompactLocked() {
  if (wal_ == nullptr) return Status::Ok();
  const uint64_t covers = total_recorded_.load(std::memory_order_relaxed);
  Context rows(schema_);
  for (const Row& row : window_) rows.Add(row.x, row.y);
  Status wrote = io::AtomicWriteFile(
      env_, options_.snapshot_path, [&](std::ostream* out) {
        *out << io::kShardSnapshotMagic << "\n"
             << "covers " << covers << "\n"
             << "seqs";
        for (const Row& row : window_) *out << ' ' << row.seq;
        *out << "\n";
        return io::SaveDataset(rows, out);
      });
  // On failure the rename never happened: the previous snapshot and the
  // current log generation are both still intact and readable.
  CCE_RETURN_IF_ERROR(wrote);
  CCE_RETURN_IF_ERROR(wal_->Reset(covers));
  if (ins_.agg_compactions != nullptr) ins_.agg_compactions->Increment();
  SyncFsyncCountersLocked();
  return Status::Ok();
}

Status ContextShard::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) == State::kQuarantined) {
    return Status::FailedPrecondition("shard is quarantined");
  }
  Status compacted = CompactLocked();
  if (compacted.ok() &&
      state_.load(std::memory_order_relaxed) == State::kReadOnly) {
    SetStateLocked(State::kActive);
  }
  return compacted;
}

Status ContextShard::Repair() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) != State::kQuarantined) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(options_.index) + " is not quarantined");
  }
  // The damaged generation is abandoned wholesale; a fresh WAL starts the
  // shard from zero records.
  (void)env_->RemoveFile(options_.wal_path);
  (void)env_->RemoveFile(options_.snapshot_path);
  io::ContextWal::Options wal_options;
  wal_options.sync_every = options_.sync_every;
  wal_options.env = env_;
  auto opened = io::ContextWal::Open(options_.wal_path, wal_options,
                                     nullptr, nullptr);
  if (!opened.ok()) return opened.status();
  wal_ = std::move(opened).value();
  wal_fsyncs_exported_ = 0;
  window_.clear();
  index_.Clear();
  window_size_.store(0, std::memory_order_release);
  front_seq_.store(UINT64_MAX, std::memory_order_release);
  total_recorded_.store(0, std::memory_order_release);
  quarantine_reason_.clear();
  if (drift_ != nullptr) {
    drift_ = std::make_unique<DriftMonitor>(schema_, options_.drift);
  }
  SetStateLocked(State::kActive);
  if (ins_.shard_repairs != nullptr) ins_.shard_repairs->Increment();
  SyncFsyncCountersLocked();
  return Status::Ok();
}

void ContextShard::SnapshotInto(std::vector<Row>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->insert(out->end(), window_.begin(), window_.end());
}

ContextShard::IndexSlices ContextShard::ReadIndex(
    const std::vector<SliceQuery>& queries, size_t head_rows,
    std::vector<uint64_t>* words, std::vector<uint64_t>* head_seqs) const {
  std::lock_guard<std::mutex> lock(mu_);
  const IndexSlices slices{index_.AppendSlices(queries, words),
                           window_.size()};
  head_seqs->clear();
  const size_t head = std::min(head_rows, window_.size());
  for (size_t i = 0; i < head; ++i) head_seqs->push_back(window_[i].seq);
  return slices;
}

bool ContextShard::PopFront(Row* evicted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (window_.empty()) return false;
  if (evicted != nullptr) *evicted = std::move(window_.front());
  window_.pop_front();
  if (index_.PopFront() && ins_.index_compactions != nullptr) {
    ins_.index_compactions->Increment();
  }
  window_size_.store(window_.size(), std::memory_order_release);
  front_seq_.store(window_.empty() ? UINT64_MAX : window_.front().seq,
                   std::memory_order_release);
  return true;
}

bool ContextShard::DriftAlarmed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_ != nullptr && drift_->Alarmed();
}

bool ContextShard::wal_poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ != nullptr && wal_->poisoned();
}

std::string ContextShard::quarantine_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_reason_;
}

uint64_t ContextShard::last_salvage_truncated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_salvage_truncated_bytes_;
}

std::string ContextShard::last_quarantine_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_quarantine_reason_;
}

std::string ContextShard::last_quarantine_cause() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_quarantine_cause_;
}

}  // namespace cce::serving
