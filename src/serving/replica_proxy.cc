#include "serving/replica_proxy.h"

#include <algorithm>
#include <utility>

#include "common/crc32c.h"
#include "common/logging.h"
#include "io/shard_snapshot.h"
#include "io/wal_segment.h"
#include "serving/shard_layout.h"

namespace cce::serving {
namespace {

/// Decorrelated-jitter backoff the background loop adds on top of
/// poll_interval after a *failed* manifest load, so a corrupt ship
/// directory does not burn a core: 50 ms rising to 5 s, never giving up.
/// A leader that has not shipped yet (quiet NotFound) never backs off.
constexpr RetryPolicy::Options kManifestBackoff{
    .max_attempts = 1 << 20,
    .initial_backoff = std::chrono::milliseconds(50),
    .max_backoff = std::chrono::milliseconds(5000)};
/// Seed for its jitter (deterministic schedules).
constexpr uint64_t kManifestBackoffSeed = 42;

}  // namespace

ReplicaProxy::ReplicaProxy(std::shared_ptr<const Schema> schema,
                           const Options& options)
    : schema_(std::move(schema)),
      options_(options),
      env_(options.env != nullptr ? options.env : io::Env::Default()),
      manifest_backoff_(kManifestBackoff),
      backoff_rng_(kManifestBackoffSeed) {
  registry_ = options_.registry;
  if (registry_ == nullptr) {
    registry_ = std::make_shared<obs::Registry>(obs::Registry::Options{});
  }
  InitInstruments();
  AdvanceView(&tails_, 0, &view_);  // the empty view
}

ReplicaProxy::~ReplicaProxy() { Stop(); }

Result<std::unique_ptr<ReplicaProxy>> ReplicaProxy::Create(
    std::shared_ptr<const Schema> schema, const Options& options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must not be null");
  }
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (options.ship_dir.empty()) {
    return Status::InvalidArgument("ship_dir must not be empty");
  }
  auto replica = std::unique_ptr<ReplicaProxy>(
      new ReplicaProxy(std::move(schema), options));
  // First catch-up is fail-soft like everything after it: a leader that
  // has not shipped yet just yields an empty view.
  (void)replica->CatchUp();
  return replica;
}

void ReplicaProxy::InitInstruments() {
  obs::Registry& reg = *registry_;
  lag_hist_ = reg.GetHistogram(
      "cce_replica_lag_seq",
      "Replication staleness bound at each view publish: newest manifest "
      "watermark minus the replica's served view watermark, in sequence "
      "numbers (the current value is Health().lag_seq).");
  catchup_micros_ = reg.GetHistogram(
      "cce_replica_catchup_micros",
      "Catch-up apply latency in microseconds: one full pass over the "
      "ship directory (manifest + shard files + apply).");
  backoff_gauge_ = reg.GetGauge(
      "cce_replica_manifest_backoff_ms",
      "Extra delay the background tail loop currently adds between polls "
      "because manifest loads keep failing; 0 while loads succeed.");
  published_gauge_ = reg.GetGauge(
      "cce_replica_published_seq",
      "The replica's served view watermark (every served row is below "
      "it; every leader row below it is served).");
  catchups_ = reg.GetCounter("cce_replica_catchups_total",
                             "Catch-up passes over the ship directory.");
  records_applied_ = reg.GetCounter(
      "cce_replica_records_applied_total",
      "Rows applied into replica tails (bootstraps re-count their rows).");
  divergences_ = reg.GetCounter(
      "cce_replica_divergence_total",
      "Digest mismatches between applied state and the ship manifest "
      "(each triggers an automatic shard resync).");
  resyncs_ = reg.GetCounter(
      "cce_replica_resyncs_total",
      "Shard resyncs: replica-side state dropped and rebuilt from the "
      "shipped files (automatic on divergence, or via ForceResync()).");
  manifest_failures_ = reg.GetCounter(
      "cce_replica_manifest_failures_total",
      "Ship manifest loads that failed (unreadable or corrupt); the "
      "replica keeps serving its previous view.");
  fence_skips_ = reg.GetCounter(
      "cce_replica_fence_skips_total",
      "Shards skipped during a catch-up because the shipped files and "
      "the manifest disagreed on the generation (a ship cycle was in "
      "flight); resolved by the next catch-up.");
  scrubs_ = reg.GetCounter("cce_replica_scrubs_total",
                           "Divergence scrub passes over applied state.");
  explains_ = reg.GetCounter(
      "cce_replica_explains_total",
      "Explain items served by the replica (a batch counts each item).");
  explain_latency_us_ = reg.GetHistogram(
      "cce_replica_explain_latency_us",
      "End-to-end replica Explain()/ExplainBatch() latency in "
      "microseconds, one sample per call.");
}

obs::Gauge* ReplicaProxy::TailGauge(size_t shard) const {
  if (shard >= tail_gauges_.size()) tail_gauges_.resize(shard + 1, nullptr);
  if (tail_gauges_[shard] == nullptr) {
    tail_gauges_[shard] = registry_->GetGauge(
        "cce_replica_tail_quarantined",
        "1 while this shard's replication tail is quarantined (torn or "
        "divergent shipped files); the shard serves its last-good rows.",
        {{"shard", std::to_string(shard)}});
  }
  return tail_gauges_[shard];
}

uint32_t ReplicaProxy::DigestRows(
    const std::vector<ContextShard::Row>& rows, uint64_t published) {
  uint32_t digest = 0;
  for (const ContextShard::Row& row : rows) {
    if (row.seq >= published) break;  // rows are seq-ascending
    const std::string payload =
        io::EncodeWalRecordPayload(row.x, row.y, row.seq);
    digest = crc32c::Extend(digest, payload.data(), payload.size());
  }
  return digest;
}

void ReplicaProxy::ApplyShard(const io::ShipManifest::Shard& entry,
                              const std::string& snapshot_content,
                              bool snapshot_read_ok,
                              const std::string& wal_content,
                              bool wal_read_ok, ShardTail* tail) {
  auto quarantine = [&](const char* cause) {
    // The tail keeps its last-good rows and watermark: stale, never
    // inconsistent. Only the quarantine flag changes.
    tail->quarantined = true;
    tail->cause = cause;
  };
  // A manifest older than what this tail already applied (a catch-up
  // racing the shipper's rename) must never roll the tail back.
  if (entry.published < tail->applied_through) return;
  if ((entry.has_snapshot && !snapshot_read_ok) ||
      (entry.wal_bytes > 0 && !wal_read_ok)) {
    quarantine("read");
    return;
  }

  io::WalSegmentView view;
  if (entry.wal_bytes > 0) {
    view = io::ScanWalSegment(wal_content);
    if (!view.header_ok) {
      quarantine("wal");
      return;
    }
    if (view.base_recorded != entry.wal_base) {
      // Generation skew between files and manifest: a ship cycle is in
      // flight. Not damage — hold state and let the next pass resolve.
      if (fence_skips_ != nullptr) fence_skips_->Increment();
      return;
    }
    if (view.valid_end < entry.wal_bytes) {
      // The manifest promises more valid bytes than the segment holds:
      // a torn ship (or post-ship corruption).
      quarantine("wal");
      return;
    }
  }

  io::LoadedShardSnapshot snapshot;
  if (entry.has_snapshot) {
    auto parsed = io::ParseShardSnapshot(
        snapshot_content, ShippedShardFileName(entry.index, "snapshot"));
    if (!parsed.ok()) {
      quarantine("snapshot");
      return;
    }
    snapshot = std::move(parsed).value();
    if (!snapshot.covers_valid || snapshot.covers != entry.wal_base) {
      if (fence_skips_ != nullptr) fence_skips_->Increment();
      return;
    }
    if (!io::CheckShardSchemaCompatible(*schema_, snapshot.rows.schema())
             .ok()) {
      quarantine("snapshot");
      return;
    }
  }

  auto rebuild = [&]() {
    tail->rows.clear();
    if (entry.has_snapshot) {
      for (size_t r = 0; r < snapshot.rows.size(); ++r) {
        tail->rows.push_back(ContextShard::Row{
            snapshot.seqs[r], snapshot.rows.instance(r),
            snapshot.rows.label(r)});
      }
    }
    for (const io::WalFrame& frame : view.frames) {
      tail->rows.push_back(ContextShard::Row{frame.seq, frame.x, frame.y});
    }
    tail->base = entry.wal_base;
    tail->bootstrapped = true;
    tail->fed = kReseed;
  };

  uint64_t applied_before = tail->rows.size();
  bool rebuilt = false;
  if (!tail->bootstrapped || tail->base != entry.wal_base) {
    // New replica, or the leader compacted into a new generation: the
    // shipped pair replaces this tail's state wholesale. Rows are never
    // lost by this — the new snapshot covers everything the old
    // generation held (and more).
    rebuild();
    rebuilt = true;
    applied_before = 0;
  } else {
    // Same generation: the shipped segment is an append-only extension
    // of what we already applied. Take the new frames.
    const uint64_t last_seq =
        tail->rows.empty() ? 0 : tail->rows.back().seq;
    const bool any = !tail->rows.empty();
    for (const io::WalFrame& frame : view.frames) {
      if (any && frame.seq <= last_seq) continue;
      tail->rows.push_back(ContextShard::Row{frame.seq, frame.x, frame.y});
    }
  }

  // Divergence check: the digest over applied rows below the shard's
  // watermark must reproduce the shipper's. One automatic resync from
  // the shipped files; if the shipped files themselves are divergent,
  // quarantine.
  if (DigestRows(tail->rows, entry.published) != entry.digest) {
    if (divergences_ != nullptr) divergences_->Increment();
    if (!rebuilt) {
      if (resyncs_ != nullptr) resyncs_->Increment();
      rebuild();
    }
    if (DigestRows(tail->rows, entry.published) != entry.digest) {
      quarantine("divergence");
      return;
    }
  }

  if (records_applied_ != nullptr &&
      tail->rows.size() > applied_before) {
    records_applied_->Add(tail->rows.size() - applied_before);
  }
  tail->applied_through = entry.published;
  tail->quarantined = false;
  tail->cause.clear();
}

uint64_t ReplicaProxy::AdvanceView(
    std::vector<ShardTail>* tails, uint64_t fed_through,
    std::shared_ptr<ExplainableProxy>* view) const {
  uint64_t published = tails->empty() ? 0 : UINT64_MAX;
  bool reseed = *view == nullptr;
  for (const ShardTail& tail : *tails) {
    published = std::min(published, tail.applied_through);
    if (tail.fed == kReseed) reseed = true;
  }
  if (reseed || published < fed_through) {
    // One shard: keys do not depend on the shard count. A private
    // registry keeps view traffic out of the leader's request metrics.
    ExplainableProxy::Options options;
    options.context_capacity = options_.context_capacity;
    options.alpha = options_.alpha;
    options.monitor_drift = false;
    options.observability.trace_capacity = 0;
    auto fresh = ExplainableProxy::Create(schema_, nullptr, options);
    CCE_CHECK_OK(fresh.status());  // Create already validated alpha
    *view = std::move(fresh).value();
    for (ShardTail& tail : *tails) tail.fed = 0;
  }
  // Every row fed before has seq below the previous watermark and each
  // tail is seq-ascending, so appending the crossing rows in sequence
  // order keeps the view in global arrival order; its capacity eviction
  // then keeps exactly the leader's window (the globally newest rows).
  std::vector<const ContextShard::Row*> crossing;
  for (ShardTail& tail : *tails) {
    for (; tail.fed < tail.rows.size() && tail.rows[tail.fed].seq < published;
         ++tail.fed) {
      crossing.push_back(&tail.rows[tail.fed]);
    }
  }
  std::sort(crossing.begin(), crossing.end(),
            [](const ContextShard::Row* a, const ContextShard::Row* b) {
              return a->seq < b->seq;
            });
  // A schema-invalid shipped row is refused, as the leader's shard
  // recovery drops one.
  for (const ContextShard::Row* row : crossing) {
    (void)(*view)->Record(row->x, row->y);
  }
  return published;
}

void ReplicaProxy::PublishViewLocked() {
  for (size_t i = 0; i < tails_.size(); ++i) {
    TailGauge(i)->Set(tails_[i].quarantined ? 1 : 0);
  }
  view_published_ = AdvanceView(&tails_, view_published_, &view_);
  published_gauge_->Set(static_cast<int64_t>(view_published_));
  const uint64_t lag = latest_published_ > view_published_
                           ? latest_published_ - view_published_
                           : 0;
  lag_hist_->Observe(static_cast<int64_t>(lag));
}

Status ReplicaProxy::LoadShipState(io::ShipManifest* manifest,
                                   std::vector<ShardFiles>* files,
                                   bool* quiet) {
  auto loaded = io::LoadShipManifest(
      env_, options_.ship_dir + "/" + kShipManifestName);
  if (!loaded.ok()) {
    *quiet =
        loaded.status().code() == StatusCode::kNotFound && !had_manifest_;
    return loaded.status();
  }
  *manifest = std::move(loaded).value();
  had_manifest_ = true;

  // All file I/O happens before mu_ so a slow disk never blocks Explain.
  files->assign(manifest->shards.size(), ShardFiles{});
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    const io::ShipManifest::Shard& entry = manifest->shards[i];
    ShardFiles& shard_files = (*files)[i];
    if (entry.has_snapshot) {
      shard_files.snapshot_ok =
          env_->ReadFileToString(
                  options_.ship_dir + "/" +
                      ShippedShardFileName(entry.index, "snapshot"),
                  &shard_files.snapshot)
              .ok();
    }
    if (entry.wal_bytes > 0) {
      shard_files.wal_ok =
          env_->ReadFileToString(options_.ship_dir + "/" +
                                     ShippedShardFileName(entry.index, "wal"),
                                 &shard_files.wal)
              .ok();
    }
  }
  return Status::Ok();
}

void ReplicaProxy::ArmManifestBackoff() {
  const std::chrono::milliseconds backoff =
      manifest_backoff_.NextBackoff(&backoff_rng_);
  manifest_backoff_ms_.store(backoff.count(), std::memory_order_relaxed);
  if (backoff_gauge_ != nullptr) backoff_gauge_->Set(backoff.count());
}

void ReplicaProxy::ResetManifestBackoff() {
  if (manifest_backoff_ms_.load(std::memory_order_relaxed) == 0) return;
  manifest_backoff_.Reset();
  manifest_backoff_ms_.store(0, std::memory_order_relaxed);
  if (backoff_gauge_ != nullptr) backoff_gauge_->Set(0);
}

Status ReplicaProxy::CatchUpLocked() {
  obs::ScopedLatency catchup_latency(registry_.get(), catchup_micros_);
  if (catchups_ != nullptr) catchups_->Increment();
  io::ShipManifest manifest;
  std::vector<ShardFiles> files;
  bool quiet = false;
  Status loaded = LoadShipState(&manifest, &files, &quiet);
  if (!loaded.ok()) {
    if (!quiet && manifest_failures_ != nullptr) {
      manifest_failures_->Increment();
    }
    // Back off the tail loop only on real failures — a leader that has
    // not shipped yet keeps being polled at full cadence.
    if (quiet) {
      ResetManifestBackoff();
    } else {
      ArmManifestBackoff();
    }
    std::lock_guard<std::mutex> lock(mu_);
    manifest_ok_ = false;
    PublishViewLocked();
    return Status::Ok();
  }
  ResetManifestBackoff();

  std::lock_guard<std::mutex> lock(mu_);
  if (tails_.size() != manifest.shards.size()) {
    // The leader's shard count changed: every tail's generation story is
    // void. Full rebuild (counted as a resync when state existed).
    if (!tails_.empty() && resyncs_ != nullptr) resyncs_->Increment();
    tails_.assign(manifest.shards.size(), ShardTail{});
  }
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    ApplyShard(manifest.shards[i], files[i].snapshot, files[i].snapshot_ok,
               files[i].wal, files[i].wal_ok, &tails_[i]);
  }
  latest_published_ = manifest.published_seq;
  manifest_ok_ = true;
  PublishViewLocked();
  return Status::Ok();
}

Status ReplicaProxy::CatchUp() {
  std::lock_guard<std::mutex> lock(catchup_mu_);
  return CatchUpLocked();
}

Status ReplicaProxy::Scrub() {
  std::lock_guard<std::mutex> lock(catchup_mu_);
  if (scrubs_ != nullptr) scrubs_->Increment();
  auto loaded = io::LoadShipManifest(
      env_, options_.ship_dir + "/" + kShipManifestName);
  if (!loaded.ok()) {
    if (manifest_failures_ != nullptr &&
        (loaded.status().code() != StatusCode::kNotFound || had_manifest_)) {
      manifest_failures_->Increment();
    }
    return Status::Ok();
  }
  const io::ShipManifest manifest = std::move(loaded).value();
  bool need_resync = false;
  {
    std::lock_guard<std::mutex> state_lock(mu_);
    for (size_t i = 0;
         i < manifest.shards.size() && i < tails_.size(); ++i) {
      const io::ShipManifest::Shard& entry = manifest.shards[i];
      ShardTail& tail = tails_[i];
      if (!tail.bootstrapped || tail.quarantined ||
          tail.base != entry.wal_base ||
          tail.applied_through != entry.published) {
        continue;  // not comparable against this manifest
      }
      if (DigestRows(tail.rows, entry.published) != entry.digest) {
        // Applied state no longer matches what was shipped (memory rot,
        // or a bug): drop it and rebuild from the source of truth.
        if (divergences_ != nullptr) divergences_->Increment();
        if (resyncs_ != nullptr) resyncs_->Increment();
        tail = ShardTail{};
        tail.quarantined = true;
        tail.cause = "divergence";
        need_resync = true;
      }
    }
    if (need_resync) PublishViewLocked();
  }
  if (need_resync) return CatchUpLocked();
  return Status::Ok();
}

Status ReplicaProxy::ForceResync() {
  std::lock_guard<std::mutex> lock(catchup_mu_);
  io::ShipManifest manifest;
  std::vector<ShardFiles> files;
  bool quiet = false;
  Status loaded = LoadShipState(&manifest, &files, &quiet);
  if (!loaded.ok()) {
    // No readable manifest: fall back to dropping state — the runbook
    // hammer must still clear a replica whose ship directory is gone.
    if (!quiet && manifest_failures_ != nullptr) {
      manifest_failures_->Increment();
    }
    if (quiet) {
      ResetManifestBackoff();
    } else {
      ArmManifestBackoff();
    }
    std::lock_guard<std::mutex> state_lock(mu_);
    if (!tails_.empty() && resyncs_ != nullptr) resyncs_->Increment();
    tails_.clear();
    manifest_ok_ = false;
    PublishViewLocked();
    return Status::Ok();
  }
  ResetManifestBackoff();

  // Rebuild replacement tails and their view from the shipped files
  // *outside* mu_, then swap atomically: concurrent Explains keep serving
  // the old view for the whole rebuild and never see a transient empty
  // window — which is what makes ForceResync on an in-sync replica a safe
  // no-op.
  std::vector<ShardTail> fresh(manifest.shards.size());
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    ApplyShard(manifest.shards[i], files[i].snapshot, files[i].snapshot_ok,
               files[i].wal, files[i].wal_ok, &fresh[i]);
  }
  std::shared_ptr<ExplainableProxy> view;
  const uint64_t published = AdvanceView(&fresh, 0, &view);
  std::lock_guard<std::mutex> state_lock(mu_);
  if (!tails_.empty() && resyncs_ != nullptr) resyncs_->Increment();
  tails_ = std::move(fresh);
  view_ = std::move(view);
  view_published_ = published;
  latest_published_ = manifest.published_seq;
  manifest_ok_ = true;
  PublishViewLocked();
  return Status::Ok();
}

void ReplicaProxy::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  tail_thread_ = std::thread([this] {
    size_t cycle = 0;
    while (true) {
      {
        // Failed manifest loads stretch the poll with decorrelated
        // jitter so a corrupt ship directory does not burn a core.
        const auto wait =
            options_.poll_interval +
            std::chrono::milliseconds(
                manifest_backoff_ms_.load(std::memory_order_relaxed));
        std::unique_lock<std::mutex> wait_lock(stop_mu_);
        stop_cv_.wait_for(wait_lock, wait, [this] { return stopping_; });
        if (stopping_) return;
      }
      (void)CatchUp();
      ++cycle;
      if (options_.scrub_every > 0 && cycle % options_.scrub_every == 0) {
        (void)Scrub();
      }
    }
  });
}

void ReplicaProxy::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (tail_thread_.joinable()) tail_thread_.join();
  std::lock_guard<std::mutex> lock(stop_mu_);
  started_ = false;
}

std::shared_ptr<const ExplainableProxy> ReplicaProxy::View(
    bool* degraded) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded != nullptr) {
    *degraded = !manifest_ok_;
    for (const ShardTail& tail : tails_) {
      if (tail.quarantined) *degraded = true;
    }
  }
  return view_;
}

Result<KeyResult> ReplicaProxy::Explain(const Instance& x, Label y,
                                        const Deadline& deadline) const {
  return std::move(ExplainBatch({BatchQuery{x, y, deadline}}).front());
}

std::vector<Result<KeyResult>> ReplicaProxy::ExplainBatch(
    const std::vector<BatchQuery>& items) const {
  if (items.empty()) return {};
  obs::ScopedLatency latency(registry_.get(), explain_latency_us_);
  explains_->Add(items.size());
  bool degraded = false;
  std::vector<Result<KeyResult>> keys = View(&degraded)->ExplainBatch(items);
  if (degraded) {
    // A quarantined tail or failing manifest means the view may be
    // stale; each key is still exactly right for published_seq(), and
    // honest about the replication path being degraded.
    for (Result<KeyResult>& key : keys) {
      if (key.ok()) key->degraded = true;
    }
  }
  return keys;
}

Result<std::vector<RelativeCounterfactual>> ReplicaProxy::Counterfactuals(
    const Instance& x, Label y) const {
  return View(nullptr)->Counterfactuals(x, y);
}

Context ReplicaProxy::ContextSnapshot() const {
  return View(nullptr)->ContextSnapshot();
}

uint64_t ReplicaProxy::published_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_published_;
}

ReplicaProxy::Health ReplicaProxy::GetHealth() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health health;
  health.view_published = view_published_;
  health.latest_published = latest_published_;
  health.lag_seq = latest_published_ > view_published_
                       ? latest_published_ - view_published_
                       : 0;
  health.manifest_ok = manifest_ok_;
  health.degraded = !manifest_ok_;
  for (const HealthSnapshot::ShardHealth& shard : view_->Health().shards) {
    health.rows_in_view += shard.window_rows;
  }
  for (size_t i = 0; i < tails_.size(); ++i) {
    const ShardTail& tail = tails_[i];
    Health::Tail out;
    out.index = i;
    out.bootstrapped = tail.bootstrapped;
    out.quarantined = tail.quarantined;
    out.cause = tail.cause;
    out.applied_rows = tail.rows.size();
    out.applied_through = tail.applied_through;
    out.base = tail.base;
    if (tail.quarantined) health.degraded = true;
    health.tails.push_back(std::move(out));
  }
  health.catchups = catchups_ != nullptr ? catchups_->Value() : 0;
  health.divergences = divergences_ != nullptr ? divergences_->Value() : 0;
  health.resyncs = resyncs_ != nullptr ? resyncs_->Value() : 0;
  health.manifest_failures =
      manifest_failures_ != nullptr ? manifest_failures_->Value() : 0;
  health.manifest_backoff_ms =
      manifest_backoff_ms_.load(std::memory_order_relaxed);
  return health;
}

}  // namespace cce::serving
