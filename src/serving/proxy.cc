#include "serving/proxy.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/srk.h"
#include "io/atomic_file.h"
#include "serving/shard_layout.h"

namespace cce::serving {
namespace {

const char* OpName(int op) {
  switch (op) {
    case 0:
      return "predict";
    case 1:
      return "record";
    case 2:
      return "explain";
    case 3:
      return "counterfactuals";
  }
  return "unknown";
}

const char* BreakerStateLabel(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// What the key searches of one request read from the shard indexes.
struct IndexRead {
  /// Every shard's Srk::BitsetPart blocks, back to back.
  std::vector<uint64_t> words;
  std::vector<ContextShard::IndexSlices> slices;  // per shard
  /// Per shard: sequence numbers of its first window rows, then (after the
  /// merge) how many of them fall in the context's tie-break sample.
  std::vector<std::vector<uint64_t>> head_seqs;
  std::vector<size_t> head_share;
  size_t rows = 0;
};

/// The calling thread's IndexRead, reused across requests so a read
/// allocates nothing once its buffers have grown to the window.
IndexRead& ThreadIndexRead() {
  thread_local IndexRead read;
  return read;
}

/// Copies every shard's index slice for `queries`, one shard lock at a
/// time, then merges the shard heads by sequence number: the context's
/// first Srk::kTieBreakSampleRows rows are exactly the union of each
/// shard's first head_share[s] rows, because every shard window is in
/// sequence order.
void ReadShardIndexes(const std::vector<std::unique_ptr<ContextShard>>& shards,
                      const std::vector<ContextShard::SliceQuery>& queries,
                      IndexRead* read) {
  const size_t num_shards = shards.size();
  read->words.clear();
  read->slices.resize(num_shards);
  read->head_seqs.resize(num_shards);
  read->rows = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    read->slices[s] = shards[s]->ReadIndex(queries, Srk::kTieBreakSampleRows,
                                           &read->words, &read->head_seqs[s]);
    read->rows += read->slices[s].rows;
  }
  read->head_share.assign(num_shards, 0);
  const size_t sample = std::min(read->rows, Srk::kTieBreakSampleRows);
  for (size_t taken = 0; taken < sample; ++taken) {
    size_t oldest = num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<uint64_t>& head = read->head_seqs[s];
      if (read->head_share[s] == head.size()) continue;
      if (oldest == num_shards ||
          head[read->head_share[s]] <
              read->head_seqs[oldest][read->head_share[oldest]]) {
        oldest = s;
      }
    }
    ++read->head_share[oldest];
  }
}

/// Query `q`'s key: one greedy over every non-empty shard's part.
Result<KeyResult> SearchIndex(IndexRead* read, size_t q, size_t num_features,
                              double alpha, const Deadline& deadline) {
  std::vector<Srk::BitsetPart> parts;
  parts.reserve(read->slices.size());
  for (size_t s = 0; s < read->slices.size(); ++s) {
    const ContextShard::IndexSlices& slices = read->slices[s];
    if (slices.words == 0) continue;
    parts.push_back(Srk::BitsetPart{
        read->words.data() + slices.offset +
            q * (num_features + 1) * slices.words,
        slices.words, slices.first_bit + read->head_share[s]});
  }
  return Srk::ExplainParts(parts, num_features, read->rows, alpha, deadline);
}

}  // namespace

ExplainableProxy::ExplainableProxy(std::shared_ptr<const Schema> schema,
                                   ModelEndpoint* endpoint,
                                   const Options& options)
    : schema_(std::move(schema)),
      endpoint_(endpoint),
      options_(options),
      env_(options.durability.env != nullptr ? options.durability.env
                                             : io::Env::Default()),
      retry_policy_(options.retry),
      breaker_(options.breaker, options.clock),
      retry_rng_(options.resilience_seed),
      sleep_(options.sleep) {
  if (!sleep_) {
    sleep_ = [](std::chrono::milliseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
  registry_ = options_.observability.registry;
  if (registry_ == nullptr) {
    obs::Registry::Options registry_options;
    registry_options.clock = options_.observability.clock;
    registry_ = std::make_shared<obs::Registry>(registry_options);
  }
  if (options_.observability.trace_capacity > 0) {
    traces_ = std::make_unique<obs::TraceRing>(
        options_.observability.trace_capacity, registry_->clock());
  }
  InitInstruments();
  if (options_.overload.enabled) {
    overload_ =
        std::make_unique<OverloadController>(options_.overload,
                                             registry_.get());
    // The cache revalidates entries against the proxy's conformity bound,
    // so its alpha always mirrors the proxy's regardless of what the
    // caller left in explain_cache.alpha.
    ExplainCache::Options cache_options = options_.explain_cache;
    cache_options.alpha = options_.alpha;
    explain_cache_ =
        std::make_unique<ExplainCache>(cache_options, registry_.get());
  }
}

void ExplainableProxy::InitInstruments() {
  obs::Registry& reg = *registry_;
  for (int op = 0; op < kNumOps; ++op) {
    for (int outcome = 0; outcome < kNumOutcomes; ++outcome) {
      ins_.requests[op][outcome] = reg.GetCounter(
          "cce_requests_total",
          "Requests finished, by entry point and cause of outcome.",
          {{"op", OpName(op)},
           {"outcome", obs::TraceOutcomeName(
                           static_cast<obs::TraceOutcome>(outcome + 1))}});
    }
  }
  ins_.predicts = reg.GetCounter("cce_predicts_total",
                                 "Predict() calls accepted for serving.");
  ins_.predict_failures =
      reg.GetCounter("cce_predict_failures_total",
                     "Predict() calls that failed after retries.");
  ins_.retries = reg.GetCounter(
      "cce_retries_total", "Backend call retries performed by Predict().");
  ins_.deadline_misses = reg.GetCounter(
      "cce_deadline_misses_total",
      "Requests that exhausted their deadline (Predict expiry or degraded "
      "Explain).");
  ins_.explains =
      reg.GetCounter("cce_explains_total", "Explain() calls received.");
  ins_.degraded_explains = reg.GetCounter(
      "cce_degraded_explains_total",
      "Explains answered degraded: padded non-minimal key at deadline "
      "expiry, or computed against an incomplete (quarantine-degraded) "
      "context.");
  ins_.cache_served_explains =
      reg.GetCounter("cce_cache_served_explains_total",
                     "Explains answered from the explanation cache.");
  ins_.batch_executions = reg.GetCounter(
      "cce_batch_executions_total",
      "Live key-search executions (one read of the shard indexes shared "
      "by every item searched; a scalar Explain is one execution of one "
      "item).");
  ins_.batch_items = reg.GetCounter(
      "cce_batch_items_total",
      "Explain items answered by live key-search executions.");
  ins_.fallback_serves = reg.GetCounter(
      "cce_fallback_serves_total",
      "Explain/Counterfactuals served from context while the breaker was "
      "open (record-only mode).");
  ins_.validation_rejects = reg.GetCounter(
      "cce_validation_rejects_total",
      "Malformed requests rejected at the proxy boundary.");
  ins_.breaker_rejections = reg.GetCounter(
      "cce_breaker_rejections_total",
      "Predicts rejected fast because the circuit breaker was open.");
  for (int state = 0; state < 3; ++state) {
    ins_.breaker_transitions[state] = reg.GetCounter(
        "cce_breaker_transitions_total",
        "Circuit breaker state transitions, by destination state.",
        {{"to",
          BreakerStateLabel(static_cast<CircuitBreaker::State>(state))}});
  }
  ins_.breaker_state = reg.GetGauge(
      "cce_breaker_state",
      "Circuit breaker state: 0 = closed, 1 = open, 2 = half-open.");
  ins_.wal_records_logged =
      reg.GetCounter("cce_wal_records_logged_total",
                     "Pairs appended to the write-ahead logs (all shards).");
  ins_.wal_fsyncs = reg.GetCounter(
      "cce_wal_fsyncs_total", "WAL fsync() calls issued (all shards).");
  ins_.wal_compactions = reg.GetCounter(
      "cce_wal_compactions_total",
      "Log compactions (snapshot written, log truncated; all shards).");
  ins_.wal_records_recovered = reg.GetCounter(
      "cce_wal_records_recovered_total",
      "Pairs replayed into the context at startup (snapshot + log, all "
      "shards).");
  ins_.wal_records_dropped = reg.GetCounter(
      "cce_wal_records_dropped_total",
      "Recovery records dropped (corrupt tail or schema-incompatible).");
  ins_.compaction_failures = reg.GetCounter(
      "cce_compaction_failures_total",
      "Compactions that failed (snapshot write or log reset); the previous "
      "generation stays in service.");
  ins_.quarantine_drops = reg.GetCounter(
      "cce_quarantine_drops_total",
      "Records not durably applied because their shard was quarantined or "
      "read-only.");
  ins_.tmp_orphans_removed = reg.GetCounter(
      "cce_tmp_orphans_removed_total",
      "Orphaned *.tmp files swept from the durability dir at startup.");
  ins_.bitmap_rebuilds = reg.GetCounter(
      "cce_bitmap_rebuilds_total",
      "Shard-index compactions: one each time a shard's live fraction "
      "drops below half.");
  ins_.context_window_size = reg.GetGauge(
      "cce_context_window_size",
      "Pairs currently in the rolling context (all shards).");
  ins_.recorded_pairs = reg.GetGauge(
      "cce_recorded_pairs",
      "Pairs ever recorded, including those recovered at startup.");
  ins_.context_degraded = reg.GetGauge(
      "cce_context_degraded",
      "1 while at least one context shard is quarantined (explanations "
      "carry degraded = true).");
  ins_.predict_latency_us = reg.GetHistogram(
      "cce_predict_latency_us",
      "End-to-end Predict() latency in microseconds.");
  ins_.explain_latency_us = reg.GetHistogram(
      "cce_explain_latency_us",
      "End-to-end Explain() latency in microseconds.");
  ins_.wal_append_us = reg.GetHistogram(
      "cce_wal_append_us", "WAL append (+ conditional fsync) latency in "
      "microseconds.");

  const size_t num_shards = std::max<size_t>(1, options_.shards);
  shard_ins_.resize(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const obs::Labels labels = {{"shard", std::to_string(i)}};
    ContextShard::Instruments& cells = shard_ins_[i];
    cells.shard_wal_appends = reg.GetCounter(
        "cce_shard_wal_appends_total",
        "Pairs appended to one shard's write-ahead log.", labels);
    cells.shard_wal_fsyncs = reg.GetCounter(
        "cce_shard_wal_fsyncs_total",
        "fsync() calls issued by one shard's log.", labels);
    cells.shard_recovered_records = reg.GetCounter(
        "cce_shard_recovered_records_total",
        "Pairs replayed into one shard at startup.", labels);
    cells.shard_salvage_dropped = reg.GetCounter(
        "cce_shard_salvage_dropped_total",
        "Records one shard dropped at recovery (corrupt tail or invalid "
        "rows).",
        labels);
    cells.shard_repairs = reg.GetCounter(
        "cce_shard_repairs_total",
        "Times this shard was re-admitted from quarantine via "
        "RepairShard().",
        labels);
    cells.shard_quarantined = reg.GetGauge(
        "cce_shard_quarantined",
        "1 while this shard is quarantined (unrecoverable files).", labels);
    cells.shard_read_only = reg.GetGauge(
        "cce_shard_read_only",
        "1 while this shard is read-only (poisoned WAL awaiting rewrite).",
        labels);
    cells.shard_salvage_truncated_bytes = reg.GetGauge(
        "cce_shard_salvage_truncated_bytes",
        "Bytes the last recovery's salvage truncated off this shard's WAL "
        "(0 = the log came back clean).",
        labels);
    {
      obs::Labels cause_labels = labels;
      cause_labels.push_back({"cause", "snapshot"});
      cells.shard_quarantines_snapshot = reg.GetCounter(
          "cce_shard_quarantines_total",
          "Quarantine events for this shard, by the file class that caused "
          "them.",
          cause_labels);
      cause_labels.back().second = "wal";
      cells.shard_quarantines_wal = reg.GetCounter(
          "cce_shard_quarantines_total",
          "Quarantine events for this shard, by the file class that caused "
          "them.",
          cause_labels);
    }
    cells.agg_records_logged = ins_.wal_records_logged;
    cells.agg_fsyncs = ins_.wal_fsyncs;
    cells.agg_compactions = ins_.wal_compactions;
    cells.agg_records_recovered = ins_.wal_records_recovered;
    cells.agg_records_dropped = ins_.wal_records_dropped;
    cells.compaction_failures = ins_.compaction_failures;
    cells.index_compactions = ins_.bitmap_rebuilds;
    cells.wal_append_us = ins_.wal_append_us;
    cells.registry = registry_.get();
  }
}

void ExplainableProxy::FinishTrace(obs::RequestTrace& trace, Op op,
                                   obs::TraceOutcome outcome,
                                   const Status* failure) const {
  trace.set_outcome(outcome);
  if (failure != nullptr && trace.active()) {
    trace.set_detail(failure->message());
  }
  ins_.requests[static_cast<int>(op)][static_cast<int>(outcome) - 1]
      ->Increment();
}

void ExplainableProxy::SyncBreakerLocked(CircuitBreaker::State before) const {
  const CircuitBreaker::State after = breaker_.state();
  if (after != before) {
    ins_.breaker_transitions[static_cast<int>(after)]->Increment();
  }
  ins_.breaker_state->Set(static_cast<int64_t>(after));
}

Result<std::unique_ptr<ExplainableProxy>> ExplainableProxy::Create(
    std::shared_ptr<const Schema> schema, const Model* model,
    const Options& options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must not be null");
  }
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  auto proxy = std::unique_ptr<ExplainableProxy>(
      new ExplainableProxy(std::move(schema), nullptr, options));
  if (model != nullptr) {
    proxy->owned_endpoint_ = std::make_unique<LocalModelEndpoint>(model);
    proxy->endpoint_ = proxy->owned_endpoint_.get();
  }
  CCE_RETURN_IF_ERROR(proxy->InitShards());
  return proxy;
}

Result<std::unique_ptr<ExplainableProxy>> ExplainableProxy::CreateWithEndpoint(
    std::shared_ptr<const Schema> schema, ModelEndpoint* endpoint,
    const Options& options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must not be null");
  }
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  auto proxy = std::unique_ptr<ExplainableProxy>(
      new ExplainableProxy(std::move(schema), endpoint, options));
  CCE_RETURN_IF_ERROR(proxy->InitShards());
  return proxy;
}

Status ExplainableProxy::InitShards() {
  const Options::Durability& durability = options_.durability;
  const size_t num_shards = std::max<size_t>(1, options_.shards);
  const bool durable = !durability.dir.empty();
  if (durable) {
    CCE_RETURN_IF_ERROR(env_->CreateDir(durability.dir));
    SweepOrphanTmpFiles();
  }
  for (size_t i = 0; i < num_shards; ++i) {
    ContextShard::Options shard_options;
    shard_options.index = i;
    if (durable) {
      shard_options.wal_path =
          durability.dir + "/" + ShardFileName(i, "wal");
      shard_options.snapshot_path =
          durability.dir + "/" + ShardFileName(i, "snapshot");
    }
    shard_options.sync_every = durability.sync_every;
    shard_options.compact_threshold_bytes =
        durability.compact_threshold_bytes;
    shard_options.env = env_;
    shard_options.monitor_drift = options_.monitor_drift;
    shard_options.drift = options_.drift;
    shards_.push_back(std::make_unique<ContextShard>(
        schema_, shard_options, shard_ins_[i]));
  }
  // Shard-major recovery order: deterministic, and each shard is its own
  // fault domain — only a schema clash (another deployment's directory)
  // can fail Create; I/O damage quarantines the one shard it hit.
  for (auto& shard : shards_) {
    CCE_RETURN_IF_ERROR(shard->Recover(&global_seq_));
  }
  size_t rows = 0;
  for (const auto& shard : shards_) rows += shard->window_size();
  total_rows_.store(rows, std::memory_order_release);
  EvictToCapacity();
  if (durable) AdoptOrphanShardFiles();
  SyncContextGauges();
  return Status::Ok();
}

void ExplainableProxy::SweepOrphanTmpFiles() {
  std::vector<std::string> names;
  if (!env_->ListDir(options_.durability.dir, &names).ok()) return;
  for (const std::string& name : names) {
    if (!io::IsAtomicTempName(name)) continue;
    if (env_->RemoveFile(options_.durability.dir + "/" + name).ok()) {
      ins_.tmp_orphans_removed->Increment();
    }
  }
}

void ExplainableProxy::AdoptOrphanShardFiles() {
  std::vector<std::string> names;
  if (!env_->ListDir(options_.durability.dir, &names).ok()) return;
  std::vector<size_t> orphans;
  for (const std::string& name : names) {
    size_t shard = 0;
    if (ParseShardWalName(name, &shard) && shard >= shards_.size()) {
      orphans.push_back(shard);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  // Recover every orphan first, then re-log all their rows in one pass
  // sorted by the original arrival sequence: rows that interleaved across
  // two abandoned shards keep that interleaving in the adopted context.
  struct OrphanRow {
    ContextShard::Row row;
    size_t orphan;  // position in `orphans`
  };
  std::vector<OrphanRow> pending;
  std::vector<bool> salvaged(orphans.size(), false);
  for (size_t i = 0; i < orphans.size(); ++i) {
    const size_t index = orphans[i];
    // A throwaway shard reuses the whole recovery path (salvage, covers
    // skip, validation); its rows are then re-routed by hash and re-logged
    // into the live shards.
    ContextShard::Options orphan_options;
    orphan_options.index = index;
    orphan_options.wal_path =
        options_.durability.dir + "/" + ShardFileName(index, "wal");
    orphan_options.snapshot_path =
        options_.durability.dir + "/" + ShardFileName(index, "snapshot");
    orphan_options.sync_every = 0;  // the live shards re-log durably
    orphan_options.compact_threshold_bytes = 0;
    orphan_options.env = env_;
    ContextShard orphan(schema_, orphan_options, ContextShard::Instruments{});
    if (!orphan.Recover(&global_seq_).ok() ||
        orphan.state() != ContextShard::State::kActive) {
      // Unsalvageable or foreign: leave the files for forensics.
      continue;
    }
    salvaged[i] = true;
    std::vector<ContextShard::Row> rows;
    orphan.SnapshotInto(&rows);
    for (ContextShard::Row& row : rows) {
      pending.push_back(OrphanRow{std::move(row), i});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const OrphanRow& a, const OrphanRow& b) {
              return a.row.seq < b.row.seq;
            });
  std::vector<bool> adopted(orphans.size(), true);
  for (const OrphanRow& entry : pending) {
    if (!RecordToShard(entry.row.x, entry.row.y).ok()) {
      adopted[entry.orphan] = false;
    }
  }
  for (size_t i = 0; i < orphans.size(); ++i) {
    if (!salvaged[i] || !adopted[i]) continue;
    (void)env_->RemoveFile(options_.durability.dir + "/" +
                           ShardFileName(orphans[i], "wal"));
    (void)env_->RemoveFile(options_.durability.dir + "/" +
                           ShardFileName(orphans[i], "snapshot"));
  }
}

Result<Label> ExplainableProxy::CallEndpoint(const Instance& x,
                                             const Deadline& deadline,
                                             int* attempts) {
  retry_policy_.Reset();
  *attempts = 0;
  while (true) {
    if (deadline.expired()) {
      ins_.deadline_misses->Increment();
      return Status::DeadlineExceeded(
          "predict deadline expired after " + std::to_string(*attempts) +
          " attempt(s)");
    }
    Result<Label> served = endpoint_->Predict(x);
    ++*attempts;
    if (served.ok()) return served;
    if (!served.status().IsRetryable() ||
        !retry_policy_.ShouldRetry(*attempts)) {
      return served.status();
    }
    ins_.retries->Increment();
    std::chrono::milliseconds backoff =
        retry_policy_.NextBackoff(&retry_rng_);
    if (!deadline.infinite()) {
      // Never sleep past the deadline; the expiry check at the top of the
      // loop then converts the exhausted budget into kDeadlineExceeded.
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline.remaining());
      backoff = std::min(backoff, remaining);
    }
    if (backoff.count() > 0) sleep_(backoff);
  }
}

Status ExplainableProxy::ValidateRequest(const Instance& x, Label y,
                                         bool check_label) const {
  Status valid = schema_->ValidateInstance(x);
  if (valid.ok() && check_label) valid = schema_->ValidateLabel(y);
  if (!valid.ok()) ins_.validation_rejects->Increment();
  return valid;
}

Status ExplainableProxy::RecordToShard(const Instance& x, Label y) {
  ContextShard& shard =
      *shards_[ContextShard::ShardFor(x, shards_.size())];
  Status recorded = shard.Record(x, y, &global_seq_);
  if (!recorded.ok()) {
    if (recorded.code() == StatusCode::kUnavailable) {
      ins_.quarantine_drops->Increment();
    }
    return recorded;
  }
  total_rows_.fetch_add(1, std::memory_order_acq_rel);
  // The delta must land after the row is durably in its window and before
  // eviction deltas for the rows it displaces: the cache replays deltas in
  // ring order to re-prove cached keys against the slid window.
  if (explain_cache_ != nullptr) explain_cache_->RecordAdd(x, y);
  EvictToCapacity();
  SyncContextGauges();
  return Status::Ok();
}

void ExplainableProxy::EvictToCapacity() {
  const size_t capacity = options_.context_capacity;
  if (capacity == 0) return;
  std::lock_guard<std::mutex> lock(evict_mu_);
  while (total_rows_.load(std::memory_order_acquire) > capacity) {
    // Globally oldest first: the shard holding the minimum sequence
    // number loses its front row, which reproduces the single-window
    // FIFO exactly.
    ContextShard* oldest = nullptr;
    uint64_t best = UINT64_MAX;
    for (const auto& shard : shards_) {
      const uint64_t front = shard->front_seq();
      if (front < best) {
        best = front;
        oldest = shard.get();
      }
    }
    ContextShard::Row evicted;
    if (oldest == nullptr ||
        !oldest->PopFront(explain_cache_ != nullptr ? &evicted : nullptr)) {
      break;
    }
    total_rows_.fetch_sub(1, std::memory_order_acq_rel);
    if (explain_cache_ != nullptr) {
      explain_cache_->RecordRemove(evicted.x, evicted.y);
    }
  }
}

std::vector<ContextShard::Row> ExplainableProxy::MergedRows() const {
  std::vector<ContextShard::Row> rows;
  for (const auto& shard : shards_) shard->SnapshotInto(&rows);
  std::sort(rows.begin(), rows.end(),
            [](const ContextShard::Row& a, const ContextShard::Row& b) {
              return a.seq < b.seq;
            });
  return rows;
}

Context ExplainableProxy::MergedContext() const {
  Context context(schema_);
  for (const ContextShard::Row& row : MergedRows()) context.Add(row.x, row.y);
  return context;
}

uint64_t ExplainableProxy::PublishedSequence() const {
  // Freeze every shard at once (ascending index; the only multi-shard
  // lock acquisition in the proxy, so no ordering cycle is possible).
  // Sequence numbers are claimed and WAL-appended under the owning
  // shard's lock, so while all locks are held there is no in-flight
  // claim: every acknowledged record has seq < global_seq_ and is in its
  // shard's file. That makes the value a sound replication watermark.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.push_back(shard->AcquireLock());
  return global_seq_.load(std::memory_order_acquire);
}

bool ExplainableProxy::AnyShardQuarantined() const {
  for (const auto& shard : shards_) {
    if (shard->state() == ContextShard::State::kQuarantined) return true;
  }
  return false;
}

void ExplainableProxy::SyncContextGauges() const {
  ins_.context_window_size->Set(
      static_cast<int64_t>(total_rows_.load(std::memory_order_acquire)));
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_recorded();
  ins_.recorded_pairs->Set(static_cast<int64_t>(total));
  ins_.context_degraded->Set(AnyShardQuarantined() ? 1 : 0);
}

Result<Label> ExplainableProxy::Predict(const Instance& x,
                                        const Deadline& deadline) {
  obs::RequestTrace trace(traces_.get(), "predict");
  obs::ScopedLatency latency(registry_.get(), ins_.predict_latency_us);
  std::lock_guard<std::mutex> lock(mu_);
  ins_.predicts->Increment();
  if (endpoint_ == nullptr) {
    Status status = Status::FailedPrecondition(
        "proxy was created without a model; use Record()");
    FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kError, &status);
    return status;
  }
  {
    auto span = trace.Phase("validate");
    Status valid = ValidateRequest(x, 0, /*check_label=*/false);
    if (!valid.ok()) {
      FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kError, &valid);
      return valid;
    }
  }
  if (overload_ != nullptr) {
    auto span = trace.Phase("admit");
    Status admitted = overload_->AdmitCheap(RequestClass::kPredict);
    if (!admitted.ok()) {
      FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kShed, &admitted);
      return admitted;
    }
  }
  {
    // AllowRequest mutates on the open -> half-open cooldown edge; fold
    // any transition into the gauge + transition counters.
    const CircuitBreaker::State before = breaker_.state();
    const bool allowed = breaker_.AllowRequest();
    SyncBreakerLocked(before);
    if (!allowed) {
      ins_.breaker_rejections->Increment();
      Status status = Status::Unavailable(
          "circuit breaker open; proxy is serving record-only (Explain "
          "still available)");
      FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kBroke, &status);
      return status;
    }
  }
  int attempts = 0;
  Result<Label> served = [&] {
    auto span = trace.Phase("model_call");
    return CallEndpoint(x, deadline, &attempts);
  }();
  if (!served.ok()) {
    // A deadline miss reflects the client's budget, not backend health, so
    // it does not count towards tripping the breaker.
    if (served.status().code() != StatusCode::kDeadlineExceeded) {
      const CircuitBreaker::State before = breaker_.state();
      breaker_.RecordFailure();
      SyncBreakerLocked(before);
    }
    ins_.predict_failures->Increment();
    FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kError,
                &served.status());
    return served.status();
  }
  {
    const CircuitBreaker::State before = breaker_.state();
    breaker_.RecordSuccess();
    SyncBreakerLocked(before);
  }
  {
    auto span = trace.Phase("record");
    Status recorded = RecordToShard(x, *served);
    if (!recorded.ok()) {
      if (recorded.code() == StatusCode::kUnavailable) {
        // The prediction is valid; only its durable recording failed
        // (quarantined or read-only shard). Serve it and say so.
        FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kDegraded,
                    &recorded);
        return *served;
      }
      FinishTrace(trace, Op::kPredict, obs::TraceOutcome::kError, &recorded);
      return recorded;
    }
  }
  FinishTrace(trace, Op::kPredict,
              attempts > 1 ? obs::TraceOutcome::kRetried
                           : obs::TraceOutcome::kServedFull);
  return *served;
}

Status ExplainableProxy::Record(const Instance& x, Label y) {
  obs::RequestTrace trace(traces_.get(), "record");
  {
    auto span = trace.Phase("validate");
    Status valid = ValidateRequest(x, y, /*check_label=*/true);
    if (!valid.ok()) {
      FinishTrace(trace, Op::kRecord, obs::TraceOutcome::kError, &valid);
      return valid;
    }
  }
  if (overload_ != nullptr) {
    auto span = trace.Phase("admit");
    Status admitted = overload_->AdmitCheap(RequestClass::kRecord);
    if (!admitted.ok()) {
      FinishTrace(trace, Op::kRecord, obs::TraceOutcome::kShed, &admitted);
      return admitted;
    }
  }
  auto span = trace.Phase("record");
  Status recorded = RecordToShard(x, y);
  span.End();
  if (!recorded.ok()) {
    FinishTrace(trace, Op::kRecord, obs::TraceOutcome::kError, &recorded);
    return recorded;
  }
  FinishTrace(trace, Op::kRecord, obs::TraceOutcome::kServedFull);
  return Status::Ok();
}

Context ExplainableProxy::ContextSnapshot() const { return MergedContext(); }

Result<KeyResult> ExplainableProxy::Explain(const Instance& x, Label y,
                                            const Deadline& deadline) const {
  return std::move(
      ExplainItems({BatchQuery{x, y, deadline}}, "explain").front());
}

std::vector<Result<KeyResult>> ExplainableProxy::ExplainBatch(
    const std::vector<BatchQuery>& items) const {
  return ExplainItems(items, "explain_batch");
}

std::vector<Result<KeyResult>> ExplainableProxy::ExplainItems(
    const std::vector<BatchQuery>& items, const char* op) const {
  std::vector<Result<KeyResult>> results(
      items.size(), Result<KeyResult>(Status::Internal("unanswered")));
  if (items.empty()) return results;
  obs::RequestTrace trace(traces_.get(), op);
  obs::ScopedLatency latency(registry_.get(), ins_.explain_latency_us);
  ins_.explains->Add(items.size());
  // Every item lands in the cce_requests_total{op="explain"} matrix on its
  // own. The trace keeps the worst item outcome — TraceOutcome lists the
  // ones an Explain can end in from served_full up to error — and the
  // first failure's detail, so a one-item call traces exactly its item.
  auto count_item = [&](obs::TraceOutcome outcome) {
    ins_.requests[static_cast<int>(Op::kExplain)]
                 [static_cast<int>(outcome) - 1]
        ->Increment();
    if (outcome > trace.outcome()) trace.set_outcome(outcome);
  };
  bool detailed = false;
  auto fail_item = [&](size_t i, obs::TraceOutcome outcome,
                       const Status& status) {
    count_item(outcome);
    if (!detailed && trace.active()) trace.set_detail(status.message());
    detailed = true;
    results[i] = status;
  };
  // Validate every item individually — one malformed instance must not
  // poison its batchmates.
  std::vector<size_t> live;
  live.reserve(items.size());
  {
    auto span = trace.Phase("validate");
    for (size_t i = 0; i < items.size(); ++i) {
      Status valid =
          ValidateRequest(items[i].x, items[i].y, /*check_label=*/true);
      if (valid.ok()) {
        live.push_back(i);
      } else {
        fail_item(i, obs::TraceOutcome::kError, valid);
      }
    }
  }
  if (live.empty()) return results;
  // Serve item `i` from the cache if a generation-fresh entry exists;
  // caller holds mu_. Returns false when the item still needs a search. A
  // cached key that Get() just re-proved conformant against the current
  // window is a real answer, not a stale approximation.
  auto serve_cached_locked = [&](size_t i) {
    if (explain_cache_ == nullptr) return false;
    auto cached = explain_cache_->Get(items[i].x, items[i].y);
    if (!cached.has_value()) return false;
    ins_.cache_served_explains->Increment();
    count_item(obs::TraceOutcome::kServedCached);
    results[i] = *std::move(cached);
    return true;
  };
  // One admission charge per call, outside mu_ (a request queued for an
  // explain slot must never block Predict/Record traffic): the expensive
  // unit of work is the shared index read, and each item's greedy is
  // cheap next to it. The earliest deadline bounds the queue wait so no
  // item waits past its own budget just to be admitted.
  std::optional<OverloadController::Permit> permit;
  if (overload_ != nullptr) {
    Deadline admit_deadline = items[live.front()].deadline;
    for (size_t i : live) {
      if (items[i].deadline.expiry() < admit_deadline.expiry()) {
        admit_deadline = items[i].deadline;
      }
    }
    auto span = trace.Phase("admit");
    auto admitted =
        overload_->AdmitExpensive(RequestClass::kExplain, admit_deadline);
    span.End();
    if (!admitted.ok()) {
      // Shed: each item falls back to the cached rung individually; the
      // ones without a fresh entry are shed with the controller's
      // retry_after hint.
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i : live) {
        if (serve_cached_locked(i)) continue;
        fail_item(i, obs::TraceOutcome::kShed, admitted.status());
      }
      return results;
    }
    permit.emplace(std::move(admitted).value());
  }
  IndexRead& read = ThreadIndexRead();
  uint64_t cache_stamp = 0;
  bool degraded_context = false;
  std::vector<size_t> pending;
  pending.reserve(live.size());
  {
    auto span = trace.Phase("index");
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Explaining consults only the recorded context (paper Section 6),
      // so it keeps working when the breaker has taken the model out of
      // the path — that serve is the "record-only fallback" rung.
      if (breaker_.state() == CircuitBreaker::State::kOpen) {
        ins_.fallback_serves->Increment();
      }
      // Admitted but under pressure (queued, saturated limiter, CoDel):
      // items with a fresh cached key skip the search; only the remainder
      // costs index work.
      const bool under_pressure =
          permit.has_value() && permit->under_pressure();
      for (size_t i : live) {
        if (under_pressure && serve_cached_locked(i)) continue;
        pending.push_back(i);
      }
    }
    if (pending.empty()) return results;
    // Stamp the delta ring *before* reading: any Record that lands
    // between this read and the index copy advances the ring past the
    // stamp, and Put() refuses entries whose window membership is
    // ambiguous — the cache's exactness gate.
    if (explain_cache_ != nullptr) cache_stamp = explain_cache_->delta_seq();
    // One pass over the shards copies every pending item's slice.
    std::vector<ContextShard::SliceQuery> queries;
    queries.reserve(pending.size());
    for (size_t i : pending) queries.push_back({&items[i].x, items[i].y});
    ReadShardIndexes(shards_, queries, &read);
    degraded_context = AnyShardQuarantined();
    if (read.rows == 0) {
      Status status =
          Status::FailedPrecondition("no predictions recorded yet");
      for (size_t i : pending) fail_item(i, obs::TraceOutcome::kError, status);
      return results;
    }
  }
  // The greedy runs on the copied slices, outside every lock: a slow
  // Explain never stalls Predict/Record traffic.
  std::vector<Result<KeyResult>> keys;
  keys.reserve(pending.size());
  {
    auto span = trace.Phase("search");
    for (size_t j = 0; j < pending.size(); ++j) {
      keys.push_back(SearchIndex(&read, j, schema_->num_features(),
                                 options_.alpha, items[pending[j]].deadline));
    }
  }
  ins_.batch_executions->Increment();
  ins_.batch_items->Add(pending.size());
  // mu_ guards only the cache here; the counters are atomic.
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (explain_cache_ != nullptr) lock.lock();
  for (size_t j = 0; j < pending.size(); ++j) {
    const size_t i = pending[j];
    if (!keys[j].ok()) {
      fail_item(i, obs::TraceOutcome::kError, keys[j].status());
      continue;
    }
    KeyResult key = std::move(keys[j]).value();
    const bool deadline_degraded = key.degraded;
    // A quarantined shard means rows are missing from the context; the
    // key is honest about its provenance.
    if (degraded_context) key.degraded = true;
    if (key.degraded) {
      ins_.degraded_explains->Increment();
      if (deadline_degraded) ins_.deadline_misses->Increment();
      count_item(obs::TraceOutcome::kDegraded);
    } else {
      // Only full (minimised) keys are worth caching: a padded degraded
      // key served from cache would degrade answers even when idle.
      if (explain_cache_ != nullptr) {
        explain_cache_->Put(items[i].x, items[i].y, cache_stamp, read.rows,
                            key);
      }
      count_item(obs::TraceOutcome::kServedFull);
    }
    results[i] = std::move(key);
  }
  return results;
}

Result<std::vector<RelativeCounterfactual>>
ExplainableProxy::Counterfactuals(const Instance& x, Label y,
                                  const Deadline& deadline) const {
  obs::RequestTrace trace(traces_.get(), "counterfactuals");
  {
    auto span = trace.Phase("validate");
    Status valid = ValidateRequest(x, y, /*check_label=*/true);
    if (!valid.ok()) {
      FinishTrace(trace, Op::kCfs, obs::TraceOutcome::kError, &valid);
      return valid;
    }
  }
  std::optional<OverloadController::Permit> permit;
  if (overload_ != nullptr) {
    auto span = trace.Phase("admit");
    auto admitted =
        overload_->AdmitExpensive(RequestClass::kCounterfactuals, deadline);
    span.End();
    if (!admitted.ok()) {
      FinishTrace(trace, Op::kCfs, obs::TraceOutcome::kShed,
                  &admitted.status());
      return admitted.status();
    }
    permit.emplace(std::move(admitted).value());
  }
  Context context(schema_);
  {
    auto span = trace.Phase("snapshot");
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (breaker_.state() == CircuitBreaker::State::kOpen) {
        ins_.fallback_serves->Increment();
      }
    }
    context = MergedContext();
    if (context.size() == 0) {
      Status status =
          Status::FailedPrecondition("no predictions recorded yet");
      FinishTrace(trace, Op::kCfs, obs::TraceOutcome::kError, &status);
      return status;
    }
  }
  auto result = [&] {
    auto span = trace.Phase("search");
    return CounterfactualFinder::FindForInstance(context, x, y, {});
  }();
  if (result.ok()) {
    FinishTrace(trace, Op::kCfs, obs::TraceOutcome::kServedFull);
  } else {
    FinishTrace(trace, Op::kCfs, obs::TraceOutcome::kError,
                &result.status());
  }
  return result;
}

Status ExplainableProxy::RepairShard(size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("no such shard: " +
                                   std::to_string(shard));
  }
  CCE_RETURN_IF_ERROR(shards_[shard]->Repair());
  if (explain_cache_ != nullptr) {
    // Repair swaps the shard's window wholesale without emitting window
    // deltas, so cached keys can no longer be re-proven — drop them all
    // rather than serve an answer the delta replay cannot vouch for.
    std::lock_guard<std::mutex> lock(mu_);
    explain_cache_->Clear();
  }
  SyncContextGauges();
  return Status::Ok();
}

bool ExplainableProxy::DriftAlarmed() const {
  for (const auto& shard : shards_) {
    if (shard->DriftAlarmed()) return true;
  }
  return false;
}

size_t ExplainableProxy::recorded() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_recorded();
  return static_cast<size_t>(total);
}

HealthSnapshot ExplainableProxy::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Every counter below is a read of the one registry cell that tracks the
  // event (docs/metrics.md); HealthSnapshot is an assembled view, not a
  // second set of books.
  HealthSnapshot snapshot;
  snapshot.predicts = ins_.predicts->Value();
  snapshot.predict_failures = ins_.predict_failures->Value();
  snapshot.retries = ins_.retries->Value();
  snapshot.deadline_misses = ins_.deadline_misses->Value();
  snapshot.explains = ins_.explains->Value();
  snapshot.degraded_explains = ins_.degraded_explains->Value();
  snapshot.cache_served_explains = ins_.cache_served_explains->Value();
  snapshot.fallback_serves = ins_.fallback_serves->Value();
  snapshot.validation_rejects = ins_.validation_rejects->Value();
  snapshot.breaker_state = breaker_.state();
  snapshot.breaker_rejections = ins_.breaker_rejections->Value();
  snapshot.breaker_trips =
      ins_.breaker_transitions[static_cast<int>(CircuitBreaker::State::kOpen)]
          ->Value();
  snapshot.wal_records_logged = ins_.wal_records_logged->Value();
  snapshot.wal_fsyncs = ins_.wal_fsyncs->Value();
  snapshot.wal_compactions = ins_.wal_compactions->Value();
  snapshot.wal_records_recovered = ins_.wal_records_recovered->Value();
  snapshot.wal_records_dropped = ins_.wal_records_dropped->Value();
  snapshot.compaction_failures = ins_.compaction_failures->Value();
  snapshot.quarantine_drops = ins_.quarantine_drops->Value();
  snapshot.tmp_orphans_removed = ins_.tmp_orphans_removed->Value();
  snapshot.degraded_context = AnyShardQuarantined();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ContextShard& shard = *shards_[i];
    HealthSnapshot::ShardHealth health;
    health.index = i;
    health.state = shard.state();
    health.window_rows = shard.window_size();
    health.index_bytes = shard.index_bytes();
    health.total_recorded = shard.total_recorded();
    health.wal_poisoned = shard.wal_poisoned();
    health.quarantine_reason = shard.quarantine_reason();
    health.last_salvage_truncated_bytes =
        shard.last_salvage_truncated_bytes();
    health.last_quarantine_reason = shard.last_quarantine_reason();
    health.last_quarantine_cause = shard.last_quarantine_cause();
    if (health.state == ContextShard::State::kQuarantined) {
      ++snapshot.shards_quarantined;
    }
    if (health.state == ContextShard::State::kReadOnly) {
      ++snapshot.shards_read_only;
    }
    snapshot.shard_repairs += shard_ins_[i].shard_repairs->Value();
    snapshot.shards.push_back(std::move(health));
  }
  if (overload_ != nullptr) {
    // Lock order is always mu_ -> controller mutex (admission itself
    // never holds mu_), so this nested snapshot cannot invert.
    OverloadController::Stats admission = overload_->stats();
    snapshot.admitted_predicts = admission.admitted_predicts;
    snapshot.admitted_records = admission.admitted_records;
    snapshot.admitted_explains = admission.admitted_explains;
    snapshot.admitted_counterfactuals = admission.admitted_counterfactuals;
    snapshot.shed_rate_limited = admission.shed_rate_limited;
    snapshot.shed_queue_full = admission.shed_queue_full;
    snapshot.shed_deadline_unmeetable = admission.shed_deadline_unmeetable;
    snapshot.shed_queue_deadline = admission.shed_queue_deadline;
    snapshot.shed_codel = admission.shed_codel;
    snapshot.explain_queue_waits = admission.queue_waits;
    snapshot.concurrency_limit = admission.concurrency_limit;
    snapshot.concurrency_increases = admission.concurrency_increases;
    snapshot.concurrency_decreases = admission.concurrency_decreases;
    snapshot.explain_latency_ewma_us = admission.explain_latency_ewma_us;
  }
  if (explain_cache_ != nullptr) {
    const ExplainCache::Stats cache = explain_cache_->stats();
    snapshot.cache_hits = cache.hits;
    snapshot.cache_misses = cache.misses;
    snapshot.cache_stale_drops = cache.stale_drops;
    snapshot.cache_revalidations = cache.revalidations;
    snapshot.cache_revalidation_failures = cache.revalidation_failures;
  }
  snapshot.batch_executions = ins_.batch_executions->Value();
  snapshot.batch_items = ins_.batch_items->Value();
  return snapshot;
}

}  // namespace cce::serving
