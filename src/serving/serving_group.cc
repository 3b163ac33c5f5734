#include "serving/serving_group.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cce::serving {

const char* RoutePolicyName(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kLeaderOnly:
      return "leader-only";
    case RoutePolicy::kPreferFresh:
      return "prefer-fresh";
    case RoutePolicy::kPreferAvailable:
      return "prefer-available";
  }
  return "unknown";
}

namespace {

/// Hedge delay = this × the primary's rolling p95 (before the clamp).
constexpr double kHedgeP95Factor = 2.0;
/// Threads executing hedged attempts; at least 2 so a stuck primary cannot
/// starve its own hedge.
constexpr size_t kHedgeThreads = 2;
/// Explain latency samples kept per backend for the p95 estimate.
constexpr size_t kLatencyWindow = 64;

/// A failure that is the request's answer, not the backend's fault: a
/// malformed request (kInvalidArgument), an admission shed
/// (kResourceExhausted) or a spent budget (kDeadlineExceeded). It neither
/// trips nor heals a breaker and is returned as it is, never failed over:
/// failing a leader shed over to a replica would route around the one
/// admission point, since replicas are unmetered.
bool IsAnswer(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

/// Rendezvous between the caller and its hedge-pool tasks: each task fills
/// its slot and signals; the caller waits for an acceptable answer or for
/// every submitted attempt. Heap-allocated and shared so a losing task that
/// outlives the caller still has somewhere safe to write.
struct ServingGroup::HedgeState {
  std::mutex mu;
  std::condition_variable cv;
  Attempt attempts[2];
  int completed = 0;
};

Result<std::unique_ptr<ServingGroup>> ServingGroup::Create(
    ExplainableProxy* leader, std::vector<ReplicaProxy*> replicas,
    const Options& options) {
  if (leader == nullptr) {
    return Status::InvalidArgument("serving group needs a leader proxy");
  }
  for (const ReplicaProxy* replica : replicas) {
    if (replica == nullptr) {
      return Status::InvalidArgument("serving group replica may not be null");
    }
  }
  if (options.hedge_deadline_fraction <= 0.0 ||
      options.hedge_deadline_fraction > 1.0) {
    return Status::InvalidArgument(
        "hedge_deadline_fraction must be in (0, 1]");
  }
  return std::unique_ptr<ServingGroup>(
      new ServingGroup(leader, std::move(replicas), options));
}

ServingGroup::ServingGroup(ExplainableProxy* leader,
                           std::vector<ReplicaProxy*> replicas,
                           const Options& options)
    : leader_(leader), options_(options), policy_(options.policy) {
  // One registry for the stack: a /metrics scrape shows the proxy's
  // admission beside the group's routing.
  registry_ = options_.registry != nullptr
                  ? options_.registry
                  : std::shared_ptr<obs::Registry>(std::shared_ptr<void>(),
                                                   &leader_->registry());
  if (options_.trace_capacity > 0) {
    traces_ = std::make_unique<obs::TraceRing>(options_.trace_capacity,
                                               registry_->clock());
  }
  backends_.resize(1 + replicas.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = backends_[i];
    if (i > 0) backend.replica = replicas[i - 1];
    backend.breaker =
        std::make_unique<CircuitBreaker>(options_.breaker, options_.clock);
    backend.latencies_us.assign(kLatencyWindow, 0);
  }
  InitInstruments();
  if (options_.hedge) {
    hedge_pool_ = std::make_unique<ThreadPool>(kHedgeThreads);
  }
  RefreshProbes();
}

ServingGroup::~ServingGroup() {
  // Drain in-flight hedge tasks before anything they touch goes away.
  hedge_pool_.reset();
}

void ServingGroup::InitInstruments() {
  obs::Registry& reg = *registry_;
  hedges_ = reg.GetCounter(
      "cce_group_hedges_total",
      "Hedged Explains fired after the primary backend exceeded its hedge "
      "delay.");
  hedge_wins_ = reg.GetCounter(
      "cce_group_hedge_wins_total",
      "Hedged Explains where the hedge request's answer was served.");
  failovers_ = reg.GetCounter(
      "cce_group_failovers_total",
      "Read dispatches that skipped past a broken or failing backend.");
  stale_hedge_rejects_ = reg.GetCounter(
      "cce_group_stale_hedge_rejects_total",
      "Secondary answers demoted to degraded because their view was behind "
      "the request's watermark fence.");
  degraded_serves_ = reg.GetCounter(
      "cce_group_degraded_serves_total",
      "Group Explains answered with a degraded key.");
  errors_ = reg.GetCounter(
      "cce_group_errors_total",
      "Group Explains that failed on every routable backend.");
  explain_latency_us_ = reg.GetHistogram(
      "cce_group_explain_latency_us",
      "Group Explain end-to-end latency (routing + hedging included), "
      "microseconds.");
  for (size_t i = 0; i < backends_.size(); ++i) {
    const obs::Labels labels = {{"backend", std::to_string(i)}};
    Backend& backend = backends_[i];
    backend.explains = reg.GetCounter(
        "cce_group_explains_total",
        "Explain attempts dispatched to each serving-group backend.", labels);
    backend.healthy_gauge = reg.GetGauge(
        "cce_group_backend_healthy",
        "1 while the backend is routable, non-degraded, breaker-closed and "
        "at the leader's published sequence.",
        labels);
    backend.evicted_gauge = reg.GetGauge(
        "cce_group_backend_evicted",
        "1 while the backend is evicted from the read routing set.", labels);
    backend.p95_gauge = reg.GetGauge(
        "cce_group_backend_p95_us",
        "Rolling p95 of the backend's Explain latency, microseconds.",
        labels);
  }
}

uint64_t ServingGroup::BackendSeq(size_t index) const {
  if (index == 0) return leader_->PublishedSequence();
  return backends_[index].replica->published_seq();
}

int64_t ServingGroup::P95Locked(const Backend& backend) const {
  if (backend.latency_count == 0) return 0;
  std::vector<int64_t> sample(
      backend.latencies_us.begin(),
      backend.latencies_us.begin() +
          static_cast<ptrdiff_t>(backend.latency_count));
  size_t nth = (sample.size() * 95) / 100;
  if (nth >= sample.size()) nth = sample.size() - 1;
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<ptrdiff_t>(nth), sample.end());
  return sample[nth];
}

std::vector<size_t> ServingGroup::RouteOrder() {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy_ == RoutePolicy::kLeaderOnly) {
    if (backends_[0].evicted) return {};
    return {0};
  }
  std::vector<size_t> order;
  uint64_t max_published = 0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].evicted) continue;
    order.push_back(i);
    max_published = std::max(max_published, backends_[i].published);
  }
  const RoutePolicy policy = policy_;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Backend& ba = backends_[a];
    const Backend& bb = backends_[b];
    // A degraded view or an open breaker ranks last regardless of policy:
    // those backends stay in the order as last-resort failover targets.
    const bool bad_a = ba.degraded ||
                       ba.breaker->state() == CircuitBreaker::State::kOpen;
    const bool bad_b = bb.degraded ||
                       bb.breaker->state() == CircuitBreaker::State::kOpen;
    if (bad_a != bad_b) return !bad_a;
    const int64_t p95_a = P95Locked(ba);
    const int64_t p95_b = P95Locked(bb);
    if (policy == RoutePolicy::kPreferFresh) {
      const bool fresh_a = ba.published == max_published;
      const bool fresh_b = bb.published == max_published;
      if (fresh_a != fresh_b) return fresh_a;
      if (!fresh_a && ba.published != bb.published) {
        return ba.published > bb.published;
      }
      if (p95_a != p95_b) return p95_a < p95_b;
    } else {  // kPreferAvailable
      if (p95_a != p95_b) return p95_a < p95_b;
      if (ba.published != bb.published) return ba.published > bb.published;
    }
    return a < b;  // leader first on full ties
  });
  return order;
}

bool ServingGroup::AdmitBackend(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  return backends_[index].breaker->AllowRequest();
}

void ServingGroup::RecordOutcome(size_t index, const Status& status,
                                 int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  Backend& backend = backends_[index];
  backend.explains->Increment();
  backend.latencies_us[backend.latency_next] = micros;
  backend.latency_next = (backend.latency_next + 1) % backend.latencies_us.size();
  backend.latency_count =
      std::min(backend.latency_count + 1, backend.latencies_us.size());
  backend.p95_gauge->Set(P95Locked(backend));
  if (status.ok()) {
    backend.breaker->RecordSuccess();
  } else if (!IsAnswer(status)) {
    backend.breaker->RecordFailure();
  }
}

ServingGroup::Attempt ServingGroup::CallBackend(size_t index,
                                                const Instance& x, Label y,
                                                const Deadline& deadline) {
  Attempt attempt;
  attempt.backend = index;
  // Sample the backend's watermark on both sides of the call and report the
  // min: the served view is at least that fresh even if a concurrent resync
  // rebuilt the view mid-call, so view_seq is always a sound lower bound.
  const uint64_t before = BackendSeq(index);
  const auto start = registry_->now();
  if (options_.explain_interceptor) options_.explain_interceptor(index);
  Result<KeyResult> result =
      index == 0 ? leader_->Explain(x, y, deadline)
                 : backends_[index].replica->Explain(x, y, deadline);
  const int64_t micros =
      std::chrono::duration_cast<std::chrono::microseconds>(registry_->now() -
                                                            start)
          .count();
  const uint64_t after = BackendSeq(index);
  attempt.view_seq = std::min(before, after);
  RecordOutcome(index, result.status(), micros);
  attempt.result = std::move(result);
  attempt.done = true;
  return attempt;
}

std::chrono::milliseconds ServingGroup::HedgeDelay(size_t primary,
                                                   const Deadline& deadline) {
  int64_t p95_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    p95_us = P95Locked(backends_[primary]);
  }
  auto delay = std::chrono::milliseconds(static_cast<int64_t>(
      static_cast<double>(p95_us) * kHedgeP95Factor / 1000.0));
  delay = std::clamp(delay, options_.hedge_min_delay, options_.hedge_max_delay);
  if (!deadline.infinite()) {
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline.remaining());
    delay = std::min(
        delay, std::chrono::milliseconds(static_cast<int64_t>(
                   static_cast<double>(budget.count()) *
                   options_.hedge_deadline_fraction)));
  }
  return std::max(delay, std::chrono::milliseconds(0));
}

void ServingGroup::ApplyFence(Attempt* attempt, uint64_t fence_seq,
                              bool hedged) {
  if (!attempt->result.ok()) return;
  KeyResult& key = attempt->result.value();
  if (key.degraded) return;
  const bool behind_fence = hedged && attempt->view_seq < fence_seq;
  const bool behind_floor =
      attempt->view_seq < served_floor_.load(std::memory_order_relaxed);
  if (behind_fence || behind_floor) {
    // The key is still valid for the view it was computed from — it just
    // may not be the key the fence promised, so it serves flagged.
    key.degraded = true;
    if (behind_fence) stale_hedge_rejects_->Increment();
  }
}

Result<ServingGroup::ExplainResult> ServingGroup::FinishExplain(
    obs::RequestTrace& trace, Attempt attempt, bool hedged, bool hedge_won) {
  if (!attempt.result.ok()) {
    errors_->Increment();
    trace.set_outcome(obs::TraceOutcome::kError);
    trace.set_detail(attempt.result.status().ToString());
    return attempt.result.status();
  }
  if (hedge_won) hedge_wins_->Increment();
  ExplainResult out;
  out.key = std::move(attempt.result.value());
  out.backend = attempt.backend;
  out.view_seq = attempt.view_seq;
  out.hedged = hedged;
  if (out.key.degraded) {
    degraded_serves_->Increment();
    trace.set_outcome(obs::TraceOutcome::kDegraded);
  } else {
    uint64_t floor = served_floor_.load(std::memory_order_relaxed);
    while (floor < out.view_seq &&
           !served_floor_.compare_exchange_weak(floor, out.view_seq,
                                                std::memory_order_relaxed)) {
    }
    trace.set_outcome(hedged ? obs::TraceOutcome::kRetried
                             : obs::TraceOutcome::kServedFull);
  }
  return out;
}

Result<ServingGroup::ExplainResult> ServingGroup::Explain(
    const Instance& x, Label y, const Deadline& deadline) {
  return std::move(
      ExplainItems({BatchQuery{x, y, deadline}}, "group_explain").front());
}

std::vector<Result<ServingGroup::ExplainResult>> ServingGroup::ExplainBatch(
    const std::vector<BatchQuery>& items) {
  return ExplainItems(items, "group_explain_batch");
}

std::vector<Result<ServingGroup::ExplainResult>> ServingGroup::ExplainItems(
    const std::vector<BatchQuery>& items, const char* op) {
  if (items.empty()) return {};
  obs::RequestTrace trace(traces_.get(), op);
  obs::ScopedLatency latency(registry_.get(), explain_latency_us_);
  const std::vector<size_t> order = RouteOrder();
  if (order.empty()) {
    errors_->Add(items.size());
    trace.set_outcome(obs::TraceOutcome::kBroke);
    trace.set_detail("no routable backend");
    return std::vector<Result<ExplainResult>>(
        items.size(),
        Status::Unavailable("serving group: no routable backend"));
  }
  // The fence: the freshest view the preferred backend promised at entry.
  // No secondary answer may serve non-degraded from behind it.
  const uint64_t fence_seq = BackendSeq(order[0]);
  // Only a lone item can race a hedge: a batch has no single answer to
  // take from whichever backend is first. Under kLeaderOnly the route
  // order holds at most the leader, so hedging is off there too.
  if (items.size() == 1 && options_.hedge && hedge_pool_ != nullptr &&
      order.size() > 1) {
    std::vector<Result<ExplainResult>> results;
    results.push_back(HedgedExplain(trace, order, fence_seq, items.front()));
    return results;
  }
  return Dispatch(trace, order, fence_seq, items);
}

Result<ServingGroup::ExplainResult> ServingGroup::HedgedExplain(
    obs::RequestTrace& trace, const std::vector<size_t>& order,
    uint64_t fence_seq, const BatchQuery& item) {
  auto state = std::make_shared<HedgeState>();
  auto submit = [&](int slot, size_t index) {
    hedge_pool_->Submit([this, state, slot, index, item] {
      Attempt attempt = CallBackend(index, item.x, item.y, item.deadline);
      std::lock_guard<std::mutex> lock(state->mu);
      state->attempts[slot] = std::move(attempt);
      ++state->completed;
      state->cv.notify_all();
    });
  };
  size_t primary_pos = 0;
  while (primary_pos < order.size() && !AdmitBackend(order[primary_pos])) {
    failovers_->Increment();
    ++primary_pos;
  }
  if (primary_pos == order.size()) {
    errors_->Increment();
    trace.set_outcome(obs::TraceOutcome::kBroke);
    trace.set_detail("all breakers open");
    return Status::Unavailable("serving group: all breakers open");
  }
  const size_t primary = order[primary_pos];
  const bool primary_is_preferred = primary_pos == 0;
  submit(0, primary);

  // Give the primary its head start.
  const std::chrono::milliseconds delay = HedgeDelay(primary, item.deadline);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_for(lock, delay,
                       [&] { return state->attempts[0].done; });
  }

  bool primary_done = false;
  bool serve_primary = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    Attempt& attempt = state->attempts[0];
    primary_done = attempt.done;
    if (primary_done && attempt.result.ok()) {
      ApplyFence(&attempt, fence_seq, /*hedged=*/!primary_is_preferred);
      serve_primary = !attempt.result.value().degraded;
    } else if (primary_done) {
      serve_primary = IsAnswer(attempt.result.status());
    }
  }
  if (serve_primary) {
    Attempt chosen;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      chosen = state->attempts[0];
    }
    return FinishExplain(trace, std::move(chosen), /*hedged=*/false,
                         /*hedge_won=*/false);
  }

  // The primary is slow (hedge) or already failed/degraded (failover):
  // fire the same request at the next admissible backend.
  bool hedge_submitted = false;
  bool fired_as_hedge = false;
  for (size_t pos = primary_pos + 1; pos < order.size(); ++pos) {
    if (!AdmitBackend(order[pos])) {
      failovers_->Increment();
      continue;
    }
    hedge_submitted = true;
    fired_as_hedge = !primary_done;
    if (fired_as_hedge) {
      hedges_->Increment();
    } else {
      failovers_->Increment();
    }
    submit(1, order[pos]);
    break;
  }

  // Wait for an acceptable answer, or for every submitted attempt.
  const int expected = hedge_submitted ? 2 : 1;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      if (state->completed >= expected) return true;
      if (hedge_submitted && state->attempts[1].done) {
        Attempt& hedge = state->attempts[1];
        if (hedge.result.ok()) {
          ApplyFence(&hedge, fence_seq, /*hedged=*/true);
          if (!hedge.result.value().degraded) return true;
        }
      }
      if (state->attempts[0].done) {
        Attempt& first = state->attempts[0];
        if (first.result.ok()) {
          ApplyFence(&first, fence_seq, /*hedged=*/!primary_is_preferred);
          if (!first.result.value().degraded) return true;
        }
      }
      return false;
    });
  }

  Attempt chosen;
  bool secondary_won = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    // Fences may not have been applied yet on the path where completion
    // (not acceptability) ended the wait.
    if (state->attempts[0].done) {
      ApplyFence(&state->attempts[0], fence_seq,
                 /*hedged=*/!primary_is_preferred);
    }
    if (hedge_submitted && state->attempts[1].done) {
      ApplyFence(&state->attempts[1], fence_seq, /*hedged=*/true);
    }
    auto quality = [](const Attempt& attempt) {
      if (!attempt.done) return 0;           // still in flight — unusable
      if (!attempt.result.ok()) return 1;    // error, last resort
      return attempt.result.value().degraded ? 2 : 3;
    };
    const int primary_quality = quality(state->attempts[0]);
    const int hedge_quality =
        hedge_submitted ? quality(state->attempts[1]) : 0;
    if (hedge_quality > primary_quality) {
      chosen = state->attempts[1];
      secondary_won = true;
    } else {
      chosen = state->attempts[0];
    }
  }
  return FinishExplain(trace, std::move(chosen),
                       /*hedged=*/secondary_won,
                       /*hedge_won=*/secondary_won && fired_as_hedge);
}

std::vector<Result<ServingGroup::ExplainResult>> ServingGroup::Dispatch(
    obs::RequestTrace& trace, const std::vector<size_t>& order,
    uint64_t fence_seq, const std::vector<BatchQuery>& items) {
  Status last = Status::Unavailable("serving group: all breakers open");
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t index = order[pos];
    if (!AdmitBackend(index)) {
      if (pos + 1 < order.size()) failovers_->Increment();
      continue;
    }
    // Watermark samples around the call, as in CallBackend.
    const uint64_t before = BackendSeq(index);
    const auto start = registry_->now();
    if (options_.explain_interceptor) options_.explain_interceptor(index);
    std::vector<Result<KeyResult>> keys =
        index == 0 ? leader_->ExplainBatch(items)
                   : backends_[index].replica->ExplainBatch(items);
    const int64_t micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            registry_->now() - start)
            .count();
    const uint64_t view_seq = std::min(before, BackendSeq(index));
    // The breaker's verdict on the whole dispatch: a success when any item
    // was served, else the first failure that was the backend's fault.
    // When every item failed with an answer (IsAnswer) the verdict is
    // that answer, which neither trips nor heals the breaker.
    Status verdict = keys.front().status();
    for (const Result<KeyResult>& key : keys) {
      if (key.ok()) {
        verdict = Status::Ok();
        break;
      }
      if (IsAnswer(verdict)) verdict = key.status();
    }
    RecordOutcome(index, verdict, micros);
    if (!verdict.ok() && !IsAnswer(verdict)) {
      last = verdict;
      if (pos + 1 < order.size()) failovers_->Increment();
      continue;
    }
    std::vector<Result<ExplainResult>> results;
    results.reserve(items.size());
    obs::TraceOutcome worst = obs::TraceOutcome::kServedFull;
    for (Result<KeyResult>& key : keys) {
      Attempt attempt;
      attempt.result = std::move(key);
      attempt.view_seq = view_seq;
      attempt.backend = index;
      attempt.done = true;
      ApplyFence(&attempt, fence_seq, /*hedged=*/pos > 0);
      results.push_back(FinishExplain(trace, std::move(attempt),
                                      /*hedged=*/false, /*hedge_won=*/false));
      // FinishExplain traced this item alone; the dispatch keeps the worst
      // (TraceOutcome orders served_full < degraded < error).
      worst = std::max(worst, trace.outcome());
    }
    trace.set_outcome(worst);
    return results;
  }
  errors_->Add(items.size());
  trace.set_outcome(obs::TraceOutcome::kError);
  trace.set_detail(last.ToString());
  return std::vector<Result<ExplainResult>>(items.size(), last);
}

Result<Label> ServingGroup::Predict(const Instance& x,
                                    const Deadline& deadline) {
  return leader_->Predict(x, deadline);
}

Status ServingGroup::Record(const Instance& x, Label y) {
  return leader_->Record(x, y);
}

Result<std::vector<RelativeCounterfactual>> ServingGroup::Counterfactuals(
    const Instance& x, Label y, const Deadline& deadline) {
  const std::vector<size_t> order = RouteOrder();
  if (order.empty()) {
    return Status::Unavailable("serving group: no routable backend");
  }
  Status last = Status::Unavailable("serving group: no backend answered");
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t index = order[pos];
    auto result = index == 0
                      ? leader_->Counterfactuals(x, y, deadline)
                      : backends_[index].replica->Counterfactuals(x, y);
    if (result.ok() || IsAnswer(result.status())) return result;
    last = result.status();
    if (pos + 1 < order.size()) failovers_->Increment();
  }
  return last;
}

void ServingGroup::RefreshProbes() {
  const size_t n = backends_.size();
  std::vector<bool> degraded(n, false);
  std::vector<uint64_t> published(n, 0);
  // Probe every backend outside mu_ — Health() takes backend-side locks.
  const HealthSnapshot leader_health = leader_->Health();
  degraded[0] = leader_health.degraded_context;
  published[0] = leader_->PublishedSequence();
  for (size_t i = 1; i < n; ++i) {
    const ReplicaProxy::Health health = backends_[i].replica->GetHealth();
    degraded[i] = health.degraded;
    published[i] = health.view_published;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    Backend& backend = backends_[i];
    backend.degraded = degraded[i];
    backend.published = published[i];
    const bool healthy =
        !backend.evicted && !backend.degraded &&
        backend.breaker->state() == CircuitBreaker::State::kClosed &&
        backend.published >= published[0];
    backend.healthy_gauge->Set(healthy ? 1 : 0);
    backend.evicted_gauge->Set(backend.evicted ? 1 : 0);
  }
}

ServingGroup::GroupHealth ServingGroup::Health() {
  RefreshProbes();
  GroupHealth health;
  std::lock_guard<std::mutex> lock(mu_);
  health.policy = policy_;
  const uint64_t leader_published = backends_[0].published;
  bool fully = true;
  for (size_t i = 0; i < backends_.size(); ++i) {
    const Backend& backend = backends_[i];
    BackendHealth entry;
    entry.index = i;
    entry.is_leader = i == 0;
    entry.evicted = backend.evicted;
    entry.degraded = backend.degraded;
    entry.published_seq = backend.published;
    entry.lag_seq = leader_published > backend.published
                        ? leader_published - backend.published
                        : 0;
    entry.breaker = backend.breaker->state();
    entry.p95_us = P95Locked(backend);
    entry.healthy = !entry.evicted && !entry.degraded &&
                    entry.breaker == CircuitBreaker::State::kClosed &&
                    entry.lag_seq == 0;
    fully = fully && entry.healthy;
    health.explains += backend.explains->Value();
    health.backends.push_back(std::move(entry));
  }
  health.hedges = hedges_->Value();
  health.hedge_wins = hedge_wins_->Value();
  health.failovers = failovers_->Value();
  health.stale_hedge_rejects = stale_hedge_rejects_->Value();
  health.degraded_serves = degraded_serves_->Value();
  health.errors = errors_->Value();
  health.fully_healthy = fully;
  return health;
}

void ServingGroup::EvictBackend(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= backends_.size()) return;
  backends_[index].evicted = true;
  backends_[index].evicted_gauge->Set(1);
}

void ServingGroup::ReadmitBackend(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= backends_.size()) return;
  backends_[index].evicted = false;
  backends_[index].evicted_gauge->Set(0);
}

void ServingGroup::set_policy(RoutePolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
}

RoutePolicy ServingGroup::policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

}  // namespace cce::serving
