#include "serving/overload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace cce::serving {

const char* RequestClassName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kPredict:
      return "predict";
    case RequestClass::kRecord:
      return "record";
    case RequestClass::kExplain:
      return "explain";
    case RequestClass::kCounterfactuals:
      return "counterfactuals";
  }
  return "unknown";
}

int64_t ParseRetryAfterMs(const Status& status) {
  static constexpr char kTag[] = "retry_after_ms=";
  const std::string& message = status.message();
  const size_t pos = message.find(kTag);
  if (pos == std::string::npos) return -1;
  const char* digits = message.c_str() + pos + sizeof(kTag) - 1;
  char* end = nullptr;
  const long long value = std::strtoll(digits, &end, 10);
  if (end == digits || value < 0) return -1;
  return static_cast<int64_t>(value);
}

bool CodelDetector::Observe(std::chrono::nanoseconds sojourn,
                            std::chrono::steady_clock::time_point now) {
  if (sojourn <= options_.target) {
    // One good sojourn proves the queue drains: leave shedding mode.
    above_target_ = false;
    shedding_ = false;
    return shedding_;
  }
  if (!above_target_) {
    above_target_ = true;
    first_above_ = now;
  } else if (now - first_above_ >= options_.interval) {
    shedding_ = true;
  }
  return shedding_;
}

AdaptiveConcurrency::AdaptiveConcurrency(const Options& options)
    : options_(options) {
  options_.min = std::max(1, options_.min);
  options_.max = std::max(options_.min, options_.max);
  options_.increase_every = std::max(1, options_.increase_every);
  options_.decrease_factor =
      std::clamp(options_.decrease_factor, 0.05, 0.95);
  limit_ = std::clamp(options_.initial, options_.min, options_.max);
}

void AdaptiveConcurrency::OnCompletion(std::chrono::nanoseconds latency) {
  if (latency > options_.latency_target) {
    fast_streak_ = 0;
    const int cut = std::max(
        options_.min,
        static_cast<int>(std::floor(limit_ * options_.decrease_factor)));
    // A slow completion at the floor keeps the floor; only count real cuts.
    if (cut < limit_) {
      limit_ = cut;
      ++decreases_;
    }
    return;
  }
  if (++fast_streak_ >= options_.increase_every) {
    fast_streak_ = 0;
    if (limit_ < options_.max) {
      ++limit_;
      ++increases_;
    }
  }
}

ExplainCache::ExplainCache(const Options& options, obs::Registry* registry)
    : options_(options) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter(
      "cce_cache_hits_total",
      "Explain-cache lookups answered by a fresh enough entry.");
  misses_ = registry->GetCounter(
      "cce_cache_misses_total",
      "Explain-cache lookups that found no servable entry.");
  stale_drops_ = registry->GetCounter(
      "cce_cache_stale_drops_total",
      "Cache entries dropped at lookup because the delta ring no longer "
      "covered their stamp.");
  insertions_ = registry->GetCounter(
      "cce_cache_insertions_total",
      "Relative keys inserted into the explain cache.");
  revalidations_ = registry->GetCounter(
      "cce_cache_revalidations_total",
      "Cache entries re-proven conformant against the current window by a "
      "delta replay.");
  revalidation_failures_ = registry->GetCounter(
      "cce_cache_revalidation_failures_total",
      "Cache entries dropped because a window delta broke their "
      "conformity.");
}

ExplainCache::Stats ExplainCache::stats() const {
  Stats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.stale_drops = stale_drops_->Value();
  stats.insertions = insertions_->Value();
  stats.revalidations = revalidations_->Value();
  stats.revalidation_failures = revalidation_failures_->Value();
  return stats;
}

void ExplainCache::RecordAdd(const Instance& x, Label y) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(delta_mu_);
  deltas_.push_back(Delta{++delta_seq_, /*add=*/true, x, y});
  while (deltas_.size() > options_.revalidation_window) deltas_.pop_front();
}

void ExplainCache::RecordRemove(const Instance& x, Label y) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(delta_mu_);
  deltas_.push_back(Delta{++delta_seq_, /*add=*/false, x, y});
  while (deltas_.size() > options_.revalidation_window) deltas_.pop_front();
}

uint64_t ExplainCache::delta_seq() const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  return delta_seq_;
}

void ExplainCache::Clear() {
  entries_.clear();
  index_.clear();
  std::lock_guard<std::mutex> lock(delta_mu_);
  deltas_.clear();
}

ExplainCache::Freshness ExplainCache::Revalidate(Entry* entry) {
  std::lock_guard<std::mutex> lock(delta_mu_);
  if (entry->stamp == delta_seq_) return Freshness::kFresh;
  // Ring invariant: it holds exactly (delta_seq_ - size, delta_seq_]. A
  // stamp at or before the tail has unobservable deltas — unverifiable.
  if (delta_seq_ - entry->stamp > deltas_.size()) {
    return Freshness::kUncovered;
  }
  uint64_t violators = entry->violators;
  uint64_t rows = entry->window_rows;
  for (const Delta& delta : deltas_) {
    if (delta.seq <= entry->stamp) continue;
    rows += delta.add ? 1 : uint64_t{0} - 1;
    // The delta row moves this key's violator count only if it matches the
    // cached instance on every key feature AND is labelled differently —
    // the definition of a violator surviving the key.
    bool agrees = true;
    for (FeatureId f : entry->result.key) {
      if (delta.x[f] != entry->key.x[f]) {
        agrees = false;
        break;
      }
    }
    if (agrees && delta.y != entry->key.y) {
      violators += delta.add ? 1 : uint64_t{0} - 1;
    }
  }
  const auto tolerated = static_cast<uint64_t>(
      std::floor((1.0 - options_.alpha) * static_cast<double>(rows) + 1e-9));
  if (violators > tolerated) return Freshness::kBroken;
  entry->stamp = delta_seq_;
  entry->violators = violators;
  entry->window_rows = rows;
  entry->result.achieved_alpha =
      rows == 0 ? 1.0
                : 1.0 - static_cast<double>(violators) /
                            static_cast<double>(rows);
  return Freshness::kRevalidated;
}

size_t ExplainCache::CacheKeyHash::operator()(const CacheKey& key) const {
  // FNV-1a over the value ids + label; instances are short (tens of
  // features), so this is cheaper than building a string key.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (ValueId v : key.x) mix(v);
  mix(0x9E3779B97F4A7C15ull ^ key.y);
  return static_cast<size_t>(hash);
}

void ExplainCache::Put(const Instance& x, Label y, uint64_t stamp,
                       size_t window_rows, const KeyResult& key) {
  if (options_.capacity == 0) return;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    // A delta landed between the caller's window snapshot and now: the
    // key may or may not include that row, so its violator bookkeeping
    // cannot be trusted against any stamp. Skip — the next quiet Explain
    // will cache cleanly.
    if (delta_seq_ != stamp) return;
  }
  // achieved_alpha = 1 - violators/|I| exactly (both sides are exact
  // integer counts), so the violator count survives the round trip.
  const auto violators = static_cast<uint64_t>(std::llround(
      (1.0 - key.achieved_alpha) * static_cast<double>(window_rows)));
  CacheKey cache_key{x, y};
  auto found = index_.find(cache_key);
  if (found != index_.end()) {
    found->second->result = key;
    found->second->stamp = stamp;
    found->second->violators = violators;
    found->second->window_rows = window_rows;
    entries_.splice(entries_.begin(), entries_, found->second);
    insertions_->Increment();
    return;
  }
  entries_.push_front(
      Entry{std::move(cache_key), key, stamp, violators, window_rows});
  index_[entries_.front().key] = entries_.begin();
  insertions_->Increment();
  while (entries_.size() > options_.capacity) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
  }
}

std::optional<KeyResult> ExplainCache::Get(const Instance& x, Label y) {
  if (options_.capacity == 0) return std::nullopt;
  auto found = index_.find(CacheKey{x, y});
  if (found == index_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  Entry& entry = *found->second;
  switch (Revalidate(&entry)) {
    case Freshness::kFresh:
      break;
    case Freshness::kRevalidated:
      revalidations_->Increment();
      break;
    case Freshness::kUncovered:
      entries_.erase(found->second);
      index_.erase(found);
      stale_drops_->Increment();
      misses_->Increment();
      return std::nullopt;
    case Freshness::kBroken:
      // The window slide actually broke this key's conformity: only now
      // does the caller pay for a fresh SRK run.
      entries_.erase(found->second);
      index_.erase(found);
      revalidation_failures_->Increment();
      misses_->Increment();
      return std::nullopt;
  }
  entries_.splice(entries_.begin(), entries_, found->second);
  hits_->Increment();
  KeyResult result = entry.result;
  result.cached = true;
  return result;
}

OverloadController::OverloadController(const Options& options,
                                       obs::Registry* registry)
    : options_(options),
      clock_(options.clock),
      predict_bucket_(options.predict_bucket, options.clock),
      record_bucket_(options.record_bucket, options.clock),
      explain_bucket_(options.explain_bucket, options.clock),
      codel_(options.codel),
      concurrency_(options.concurrency) {
  if (!clock_) {
    clock_ = [] { return Clock::now(); };
  }
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry = owned_registry_.get();
  }
  static constexpr RequestClass kClasses[] = {
      RequestClass::kPredict, RequestClass::kRecord, RequestClass::kExplain,
      RequestClass::kCounterfactuals};
  for (RequestClass cls : kClasses) {
    admitted_[static_cast<int>(cls)] = registry->GetCounter(
        "cce_admitted_total",
        "Requests admitted by the overload controller, by class.",
        {{"class", RequestClassName(cls)}});
  }
  const auto shed = [registry](const char* cause) {
    return registry->GetCounter(
        "cce_shed_total", "Requests shed by the admission layer, by cause.",
        {{"cause", cause}});
  };
  shed_rate_limited_ = shed("rate_limited");
  shed_queue_full_ = shed("queue_full");
  shed_deadline_unmeetable_ = shed("deadline_unmeetable");
  shed_queue_deadline_ = shed("queue_deadline");
  shed_codel_ = shed("codel");
  queue_waits_ = registry->GetCounter(
      "cce_explain_queue_waits_total",
      "Expensive-class admissions that had to queue for a slot.");
  concurrency_increases_ = registry->GetCounter(
      "cce_concurrency_adjustments_total",
      "AIMD concurrency-limit adjustments, by direction.",
      {{"direction", "up"}});
  concurrency_decreases_ = registry->GetCounter(
      "cce_concurrency_adjustments_total",
      "AIMD concurrency-limit adjustments, by direction.",
      {{"direction", "down"}});
  concurrency_limit_gauge_ = registry->GetGauge(
      "cce_concurrency_limit",
      "Live AIMD limit on in-flight expensive-class requests.");
  concurrency_limit_gauge_->Set(concurrency_.limit());
  in_flight_gauge_ = registry->GetGauge(
      "cce_expensive_in_flight",
      "Expensive-class requests currently holding an admission slot.");
  latency_ewma_gauge_ = registry->GetGauge(
      "cce_explain_latency_ewma_us",
      "EWMA of observed expensive-class service latency, microseconds.");
  queue_wait_us_ = registry->GetHistogram(
      "cce_explain_queue_wait_us",
      "Queueing delay (sojourn) of expensive-class admissions, "
      "microseconds.");
}

Status OverloadController::Shed(const std::string& reason,
                                std::chrono::milliseconds retry_after) {
  const int64_t ms = std::max<int64_t>(1, retry_after.count());
  return Status::ResourceExhausted("overload: " + reason +
                                   "; retry_after_ms=" + std::to_string(ms));
}

double OverloadController::EstimatedTotalUs() const {
  if (!have_latency_) return 0.0;
  const int limit = std::max(1, concurrency_.limit());
  const double queue_ahead =
      in_flight_ >= limit ? static_cast<double>(waiters_ + 1) : 0.0;
  return ewma_latency_us_ * (1.0 + queue_ahead / limit);
}

Status OverloadController::AdmitCheap(RequestClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  TokenBucket& bucket =
      cls == RequestClass::kPredict ? predict_bucket_ : record_bucket_;
  if (!bucket.TryAcquire()) {
    shed_rate_limited_->Increment();
    return Shed(std::string(RequestClassName(cls)) + " rate limit",
                bucket.RetryAfter());
  }
  admitted_[static_cast<int>(cls)]->Increment();
  return Status::Ok();
}

Result<OverloadController::Permit> OverloadController::AdmitExpensive(
    RequestClass cls, const Deadline& deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!explain_bucket_.TryAcquire()) {
    shed_rate_limited_->Increment();
    return Shed(std::string(RequestClassName(cls)) + " rate limit",
                explain_bucket_.RetryAfter());
  }

  const Clock::time_point enqueued = clock_();
  const auto estimate_ms = [this] {
    return std::chrono::milliseconds(
        static_cast<int64_t>(EstimatedTotalUs() / 1000.0));
  };

  // Deadline-aware shedding: a request whose budget cannot cover the
  // predicted queue wait + service time would only occupy a slot to miss
  // its deadline anyway — reject it now, while retrying later can work.
  if (options_.shed_unmeetable_deadlines && !deadline.infinite() &&
      have_latency_) {
    const double remaining_us =
        std::chrono::duration<double, std::micro>(deadline.remaining())
            .count();
    if (remaining_us < EstimatedTotalUs()) {
      shed_deadline_unmeetable_->Increment();
      return Shed("deadline below predicted queue+service time",
                  estimate_ms());
    }
  }

  // CoDel verdict from past sojourns: under sustained buildup, shed new
  // arrivals while the standing queue drains.
  if (codel_.shedding() && in_flight_ >= concurrency_.limit()) {
    shed_codel_->Increment();
    return Shed("queue delay above target (CoDel)",
                std::max<std::chrono::milliseconds>(
                    codel_.options().interval, estimate_ms()));
  }

  const auto admit = [&](std::chrono::nanoseconds sojourn) -> Permit {
    ++in_flight_;
    in_flight_gauge_->Set(in_flight_);
    codel_.Observe(sojourn, clock_());
    queue_wait_us_->Observe(
        std::chrono::duration_cast<std::chrono::microseconds>(sojourn)
            .count());
    const bool pressure = waiters_ > 0 || codel_.shedding() ||
                          in_flight_ >= concurrency_.limit();
    admitted_[static_cast<int>(cls)]->Increment();
    return Permit(this, clock_(), pressure);
  };

  if (in_flight_ < concurrency_.limit() && waiters_ == 0) {
    return admit(std::chrono::nanoseconds::zero());
  }

  if (waiters_ >= options_.max_queue) {
    shed_queue_full_->Increment();
    return Shed("admission queue full", estimate_ms());
  }

  ++waiters_;
  queue_waits_->Increment();
  const auto slot_available = [this] {
    return in_flight_ < concurrency_.limit();
  };
  bool got_slot;
  if (deadline.infinite()) {
    slot_free_.wait(lock, slot_available);
    got_slot = true;
  } else {
    got_slot = slot_free_.wait_until(lock, deadline.expiry(), slot_available);
  }
  --waiters_;
  const std::chrono::nanoseconds sojourn = clock_() - enqueued;
  if (!got_slot) {
    // The budget died in the queue: that is a deadline miss, not a
    // retryable rejection — the caller's remaining budget is zero.
    shed_queue_deadline_->Increment();
    codel_.Observe(sojourn, clock_());
    return Status::DeadlineExceeded(
        "deadline expired while queued for an explain slot");
  }
  return admit(sojourn);
}

void OverloadController::OnCompletionLocked(
    std::chrono::nanoseconds latency) {
  const int limit_before = concurrency_.limit();
  concurrency_.OnCompletion(latency);
  const int limit_after = concurrency_.limit();
  if (limit_after > limit_before) {
    concurrency_increases_->Increment();
  } else if (limit_after < limit_before) {
    concurrency_decreases_->Increment();
  }
  if (limit_after != limit_before) {
    concurrency_limit_gauge_->Set(limit_after);
  }
}

void OverloadController::Release(Clock::time_point admitted_at) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::chrono::nanoseconds latency = clock_() - admitted_at;
    --in_flight_;
    in_flight_gauge_->Set(in_flight_);
    OnCompletionLocked(latency);
    const double latency_us =
        std::chrono::duration<double, std::micro>(latency).count();
    if (!have_latency_) {
      ewma_latency_us_ = latency_us;
      have_latency_ = true;
    } else {
      ewma_latency_us_ += options_.latency_ewma_alpha *
                          (latency_us - ewma_latency_us_);
    }
    latency_ewma_gauge_->Set(static_cast<int64_t>(ewma_latency_us_));
  }
  // The limit may have moved in either direction: wake every waiter to
  // re-evaluate rather than guessing how many slots opened.
  slot_free_.notify_all();
}

OverloadController::Stats OverloadController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.admitted_predicts =
      admitted_[static_cast<int>(RequestClass::kPredict)]->Value();
  stats.admitted_records =
      admitted_[static_cast<int>(RequestClass::kRecord)]->Value();
  stats.admitted_explains =
      admitted_[static_cast<int>(RequestClass::kExplain)]->Value();
  stats.admitted_counterfactuals =
      admitted_[static_cast<int>(RequestClass::kCounterfactuals)]->Value();
  stats.shed_rate_limited = shed_rate_limited_->Value();
  stats.shed_queue_full = shed_queue_full_->Value();
  stats.shed_deadline_unmeetable = shed_deadline_unmeetable_->Value();
  stats.shed_queue_deadline = shed_queue_deadline_->Value();
  stats.shed_codel = shed_codel_->Value();
  stats.queue_waits = queue_waits_->Value();
  stats.concurrency_limit = concurrency_.limit();
  stats.in_flight = in_flight_;
  stats.concurrency_increases = concurrency_.increases();
  stats.concurrency_decreases = concurrency_.decreases();
  stats.explain_latency_ewma_us = static_cast<int64_t>(ewma_latency_us_);
  return stats;
}

}  // namespace cce::serving
