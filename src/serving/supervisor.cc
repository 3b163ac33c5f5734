#include "serving/supervisor.h"

#include <string>
#include <utility>

namespace cce::serving {

namespace {

constexpr const char* kFaults[] = {"quarantined_shard", "poisoned_wal",
                                   "tail_quarantine", "replica_lag",
                                   "manifest"};
constexpr char kObservationsHelp[] =
    "Fault observations by the supervisor, counted once per supervision "
    "cycle the fault is present.";
/// Seed for the repair-backoff jitter (deterministic repair schedules).
constexpr uint64_t kBackoffSeed = 42;

}  // namespace

const char* Supervisor::LevelName(Level level) {
  switch (level) {
    case Level::kHealthy:
      return "healthy";
    case Level::kObserving:
      return "observing";
    case Level::kRepairing:
      return "repairing";
    case Level::kEvicted:
      return "evicted";
    case Level::kParked:
      return "parked";
  }
  return "unknown";
}

Supervisor::Supervisor(ServingGroup* group)
    : Supervisor(group, Options()) {}

Supervisor::Supervisor(ServingGroup* group, const Options& options)
    : group_(group),
      options_(options),
      clock_(options.clock != nullptr
                 ? options.clock
                 : [] { return std::chrono::steady_clock::now(); }),
      bucket_(options.action_rate, clock_),
      rng_(kBackoffSeed) {
  const size_t shards = group_->leader()->num_shards();
  for (size_t i = 0; i < shards; ++i) {
    domains_.emplace_back("leader_shard_" + std::to_string(i),
                          /*is_replica=*/false, /*backend=*/0, /*shard=*/i,
                          options_.repair_backoff);
  }
  for (size_t r = 0; r < group_->num_replicas(); ++r) {
    domains_.emplace_back("replica_" + std::to_string(r),
                          /*is_replica=*/true, /*backend=*/1 + r, /*shard=*/0,
                          options_.repair_backoff);
  }
  InitInstruments();
}

Supervisor::~Supervisor() { Stop(); }

void Supervisor::InitInstruments() {
  obs::Registry& reg = group_->registry();
  cycles_ = reg.GetCounter("cce_supervisor_cycles_total",
                           "Supervision cycles executed.");
  repair_shards_ =
      reg.GetCounter("cce_supervisor_repair_shards_total",
                     "Automatic RepairShard() calls issued by the supervisor "
                     "(includes benign no-ops on already-healthy shards).");
  force_resyncs_ =
      reg.GetCounter("cce_supervisor_force_resyncs_total",
                     "Automatic ForceResync() calls issued by the supervisor.");
  evictions_ = reg.GetCounter(
      "cce_supervisor_evictions_total",
      "Backends evicted from the routing set by the supervisor.");
  readmissions_ = reg.GetCounter(
      "cce_supervisor_readmissions_total",
      "Evicted backends readmitted to routing after probing healthy.");
  rate_limited_ = reg.GetCounter(
      "cce_supervisor_rate_limited_total",
      "Repair actions deferred by the shared action-rate token bucket.");
  backoff_holds_ = reg.GetCounter(
      "cce_supervisor_backoff_holds_total",
      "Repair actions deferred by a domain's jittered backoff gate.");
  give_ups_ = reg.GetCounter(
      "cce_supervisor_give_ups_total",
      "Domains parked degraded after exhausting their repair attempts.");
  for (const char* fault : kFaults) {
    reg.GetCounter("cce_supervisor_observations_total", kObservationsHelp,
                   {{"fault", fault}});
  }
  for (Domain& domain : domains_) {
    domain.level_gauge =
        reg.GetGauge("cce_supervisor_ladder_level",
                     "Escalation-ladder rung per fault domain (0 healthy, 1 "
                     "observing, 2 repairing, 3 evicted, 4 parked).",
                     {{"domain", domain.name}});
  }
}

void Supervisor::Start() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  thread_ = std::thread([this] {
    while (true) {
      {
        std::unique_lock<std::mutex> wait_lock(stop_mu_);
        if (stop_cv_.wait_for(wait_lock, options_.poll_interval,
                              [this] { return stopping_; })) {
          return;
        }
      }
      TickOnce();
    }
  });
}

void Supervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(stop_mu_);
  started_ = false;
}

void Supervisor::SetLevelLocked(Domain& domain, Level level) {
  domain.level = level;
  domain.level_gauge->Set(static_cast<int64_t>(level));
}

void Supervisor::TraceAction(const char* action, const Domain& domain,
                             const Status& status) {
  obs::RequestTrace trace(group_->trace_ring(), "supervisor");
  trace.set_outcome(status.ok() ? obs::TraceOutcome::kRetried
                                : obs::TraceOutcome::kError);
  std::string detail = std::string(action) + " " + domain.name;
  if (!status.ok()) detail += ": " + status.ToString();
  trace.set_detail(std::move(detail));
}

Status Supervisor::ActLocked(Domain& domain) {
  if (domain.is_replica) {
    force_resyncs_->Increment();
    Status status = group_->replica(domain.backend - 1)->ForceResync();
    TraceAction("force_resync", domain, status);
    return status;
  }
  repair_shards_->Increment();
  Status status = group_->leader()->RepairShard(domain.shard);
  if (status.code() == StatusCode::kFailedPrecondition) {
    // The shard healed between probe and action — a benign no-op.
    status = Status::Ok();
  }
  TraceAction("repair_shard", domain, status);
  return status;
}

void Supervisor::AdvanceLocked(Domain& domain, bool faulty, const char* fault,
                               bool actionable,
                               std::chrono::steady_clock::time_point now) {
  if (!faulty) {
    if (domain.is_replica && (domain.level == Level::kEvicted ||
                              (domain.level == Level::kParked))) {
      group_->ReadmitBackend(domain.backend);
      readmissions_->Increment();
      TraceAction("readmit", domain, Status::Ok());
    }
    domain.streak = 0;
    domain.attempts = 0;
    domain.park_remaining = 0;
    domain.last_fault.clear();
    domain.backoff.Reset();
    domain.next_action = {};
    SetLevelLocked(domain, Level::kHealthy);
    return;
  }
  ++domain.streak;
  domain.last_fault = fault;
  switch (domain.level) {
    case Level::kHealthy:
      SetLevelLocked(domain, Level::kObserving);
      break;
    case Level::kObserving:
      if (actionable && domain.streak >= options_.observe_threshold) {
        SetLevelLocked(domain, Level::kRepairing);
      }
      break;
    case Level::kRepairing:
    case Level::kEvicted: {
      if (!actionable) break;
      if (now < domain.next_action) {
        backoff_holds_->Increment();
        break;
      }
      if (!bucket_.TryAcquire()) {
        rate_limited_->Increment();
        break;
      }
      (void)ActLocked(domain);
      ++domain.attempts;
      domain.next_action = now + domain.backoff.NextBackoff(&rng_);
      if (domain.attempts >= options_.repair_attempts) {
        if (domain.level == Level::kRepairing && domain.is_replica) {
          group_->EvictBackend(domain.backend);
          evictions_->Increment();
          TraceAction("evict", domain, Status::Ok());
          domain.attempts = 0;
          domain.backoff.Reset();
          domain.next_action = {};
          SetLevelLocked(domain, Level::kEvicted);
        } else {
          give_ups_->Increment();
          domain.park_remaining = options_.park_ticks;
          TraceAction("park", domain, Status::Ok());
          SetLevelLocked(domain, Level::kParked);
        }
      }
      break;
    }
    case Level::kParked:
      if (--domain.park_remaining <= 0) {
        domain.attempts = 0;
        domain.backoff.Reset();
        domain.next_action = {};
        // A parked replica is still evicted — it re-enters the ladder at
        // the evicted rung; a leader shard goes back to repairing.
        SetLevelLocked(domain, domain.is_replica ? Level::kEvicted
                                                 : Level::kRepairing);
      }
      break;
  }
}

void Supervisor::TickOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  cycles_->Increment();
  group_->RefreshProbes();
  const std::chrono::steady_clock::time_point now = clock_();
  obs::Registry& reg = group_->registry();
  auto observe = [&reg](const char* fault) {
    reg.GetCounter("cce_supervisor_observations_total", kObservationsHelp,
                   {{"fault", fault}})
        ->Increment();
  };

  const HealthSnapshot leader_health = group_->leader()->Health();
  const uint64_t leader_published = group_->leader()->PublishedSequence();
  for (Domain& domain : domains_) {
    if (!domain.is_replica) {
      if (domain.shard >= leader_health.shards.size()) continue;
      const HealthSnapshot::ShardHealth& shard =
          leader_health.shards[domain.shard];
      if (shard.state == ContextShard::State::kQuarantined) {
        observe("quarantined_shard");
        AdvanceLocked(domain, true, "quarantined_shard", /*actionable=*/true,
                      now);
      } else if (shard.wal_poisoned) {
        // Heals itself at the next compaction; repairing would be wrong.
        observe("poisoned_wal");
        AdvanceLocked(domain, true, "poisoned_wal", /*actionable=*/false,
                      now);
      } else {
        AdvanceLocked(domain, false, "", false, now);
      }
      continue;
    }
    const ReplicaProxy::Health health =
        group_->replica(domain.backend - 1)->GetHealth();
    bool tail_quarantined = false;
    for (const ReplicaProxy::Health::Tail& tail : health.tails) {
      tail_quarantined = tail_quarantined || tail.quarantined;
    }
    const uint64_t lag = leader_published > health.view_published
                             ? leader_published - health.view_published
                             : 0;
    if (tail_quarantined) {
      observe("tail_quarantine");
      AdvanceLocked(domain, true, "tail_quarantine", /*actionable=*/true,
                    now);
    } else if (!health.manifest_ok) {
      observe("manifest");
      AdvanceLocked(domain, true, "manifest", /*actionable=*/true, now);
    } else if (lag > options_.lag_budget_seq) {
      observe("replica_lag");
      AdvanceLocked(domain, true, "replica_lag", /*actionable=*/true, now);
    } else {
      AdvanceLocked(domain, false, "", false, now);
    }
  }
}

std::vector<Supervisor::DomainStatus> Supervisor::Domains() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DomainStatus> statuses;
  statuses.reserve(domains_.size());
  for (const Domain& domain : domains_) {
    DomainStatus status;
    status.name = domain.name;
    status.is_replica = domain.is_replica;
    status.backend = domain.backend;
    status.level = domain.level;
    status.unhealthy_streak = domain.streak;
    status.attempts = domain.attempts;
    status.last_fault = domain.last_fault;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace cce::serving
