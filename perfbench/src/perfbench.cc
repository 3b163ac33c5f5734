// The repository benchmark: live relative keys over the wire, timed end to
// end and then layer by layer from the socket down to the key search.
//
// One process builds the real stack — NetServer (defaults) in front of a
// leader-only ServingGroup in front of a record-only ExplainableProxy with
// 4 context shards and proxy admission off — and drives it over loopback
// with at most 4 client threads and connections. See perfbench/README.md
// for the workloads, the metrics and how to run it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics of an
// untraced run; --trace 1 runs half the time untraced and half traced and
// reports the per-layer metrics. Every run checks its keys against the
// reference sorted-merge engine and exits non-zero on any failure.

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/srk.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serving/overload.h"
#include "serving/proxy.h"
#include "serving/read_path.h"
#include "serving/serving_group.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace net = cce::net;
namespace obs = cce::obs;
namespace serving = cce::serving;
using cce::Context;
using cce::Dataset;
using cce::Deadline;
using cce::Instance;
using cce::KeyResult;
using cce::Label;
using cce::Schema;
using cce::Srk;
using cce::Status;

constexpr size_t kShards = 4;
constexpr size_t kMaxThreads = 4;
constexpr size_t kLiveRows = 49152;  // 48 Ki
constexpr size_t kSmallRows = 256;
constexpr int kSetupRepeats = 5;
constexpr int kMaxSetupRepeats = 101;
constexpr auto kSetupBudget = std::chrono::seconds(1);
// The open-loop rates are half of 2,000 Records/s and 50 Explains/s: at
// those rates the stack sheds Explains (CoDel) and misses the Record limit
// on a loaded 4-vCPU host, so both were lowered in proportion.
constexpr double kRecordRate = 1000.0;  // Records per second, open loop
constexpr double kExplainRate = 25.0;   // Explains per second, open loop
constexpr size_t kRecentRows = 256;     // ingest Explains target this tail
constexpr int kIngestTraceEvery = 2;    // traced ingest: chain every 2nd
constexpr double kRecordSloMs = 10.0;
constexpr double kExplainSloMs = 100.0;
constexpr auto kWarmup = std::chrono::seconds(1);
constexpr auto kRecordProbe = std::chrono::seconds(2);
constexpr size_t kChunks = 5;  // end-to-end figures are medians of chunks
constexpr auto kDrainTimeout = std::chrono::seconds(30);
constexpr size_t kIngestVerifySample = 32;
constexpr size_t kCacheKeys = 16;
constexpr size_t kCacheDeltas = 1024;
constexpr size_t kCacheSamples = 200;

// Item numbers carry their phase in the high bits so every phase explains
// instances no other phase of the run explains.
constexpr int kPhaseShift = 40;
enum Phase : uint64_t { kMeasured = 0, kTraced = 1, kWarm = 2, kSetup = 3 };
constexpr int kNumPhases = 4;
uint64_t PhaseItem(Phase phase, uint64_t k) {
  return (static_cast<uint64_t>(phase) << kPhaseShift) | k;
}

/// A run that cannot go on. Thrown on the main thread only and caught in
/// Main, so every stack is stopped and the temp dir removed on the way out.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Die(const std::string& what) { throw Fatal(what); }

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------- inputs

/// Item i of a workload: the instance to send and the label that goes
/// with it. Pure in (i), so a key can be re-checked after the load.
using ItemFn = std::function<Instance(uint64_t item, Label* y)>;

/// explain_live: item i is a recorded context row with its recorded
/// label. Each phase walks its own fifth of a seeded permutation.
ItemFn ContextRows(const Dataset& context, uint64_t seed) {
  auto perm = std::make_shared<std::vector<size_t>>(context.size());
  std::iota(perm->begin(), perm->end(), size_t{0});
  std::shuffle(perm->begin(), perm->end(), std::mt19937_64(seed));
  return [&context, perm](uint64_t item, Label* y) {
    const uint64_t phase = item >> kPhaseShift;
    const uint64_t k = item & ((uint64_t{1} << kPhaseShift) - 1);
    const size_t n = perm->size();
    const size_t row = (*perm)[(phase * (n / kNumPhases) + k) % n];
    *y = context.label(row);
    return context.instance(row);
  };
}

/// wire_small_ctx: item i is a random instance over the schema's value
/// domains with a random label.
ItemFn RandomInstances(const Schema& schema, uint64_t seed) {
  std::vector<uint64_t> domains;
  for (size_t f = 0; f < schema.num_features(); ++f) {
    domains.push_back(schema.DomainSize(static_cast<cce::FeatureId>(f)));
  }
  const uint64_t labels = schema.num_labels();
  return [domains, labels, seed](uint64_t item, Label* y) {
    const uint64_t base = Mix(seed ^ Mix(item));
    Instance x(domains.size());
    for (size_t f = 0; f < domains.size(); ++f) {
      x[f] = static_cast<cce::ValueId>(Mix(base + f) % domains[f]);
    }
    *y = static_cast<Label>(Mix(base ^ 0x5bd1e995ull) % labels);
    return x;
  };
}

/// ingest_slide_mix: Explain i of a phase whose Records start at stream
/// row `first` targets one of the kRecentRows rows due just before it.
ItemFn RecentRows(const Dataset& all, size_t first, uint64_t seed) {
  return [&all, first, seed](uint64_t i, Label* y) {
    const auto due = static_cast<int64_t>(static_cast<double>(i) *
                                          kRecordRate / kExplainRate);
    const auto back = static_cast<int64_t>(1 + Mix(seed ^ i) % kRecentRows);
    const auto row = static_cast<size_t>(
        std::max<int64_t>(0, static_cast<int64_t>(first) + due - back));
    *y = all.label(row);
    return all.instance(row);
  };
}

// ----------------------------------------------------------------- stack

struct StackOptions {
  size_t capacity = 0;
  std::string wal_dir;  // empty = not durable
  size_t sync_every = 1;
};

/// The served stack. Members are destroyed in reverse: server, group,
/// proxy — each outlives what sits in front of it.
struct Stack {
  std::shared_ptr<obs::Registry> registry = std::make_shared<obs::Registry>();
  std::unique_ptr<serving::ExplainableProxy> proxy;
  std::unique_ptr<serving::ServingGroup> group;
  std::unique_ptr<net::NetServer> server;
};

std::unique_ptr<serving::ExplainableProxy> OpenProxy(
    std::shared_ptr<const Schema> schema, const StackOptions& options,
    std::shared_ptr<obs::Registry> registry) {
  serving::ExplainableProxy::Options proxy_options;
  proxy_options.shards = kShards;
  proxy_options.context_capacity = options.capacity;
  proxy_options.overload.enabled = false;
  proxy_options.observability.registry = std::move(registry);
  if (!options.wal_dir.empty()) {
    proxy_options.durability.dir = options.wal_dir;
    proxy_options.durability.sync_every = options.sync_every;
  }
  auto proxy =
      serving::ExplainableProxy::Create(std::move(schema), nullptr,
                                        proxy_options);
  Check(proxy.status(), "proxy create");
  return std::move(proxy).value();
}

/// Builds the stack; records `rows` (may be null) into the proxy first.
std::unique_ptr<Stack> OpenStack(std::shared_ptr<const Schema> schema,
                                 const StackOptions& options,
                                 const Dataset* rows) {
  auto stack = std::make_unique<Stack>();
  stack->proxy = OpenProxy(std::move(schema), options, stack->registry);
  if (rows != nullptr) {
    for (size_t i = 0; i < rows->size(); ++i) {
      Check(stack->proxy->Record(rows->instance(i), rows->label(i)),
            "record");
    }
  }
  serving::ServingGroup::Options group_options;
  group_options.policy = serving::RoutePolicy::kLeaderOnly;
  group_options.registry = stack->registry;
  auto group =
      serving::ServingGroup::Create(stack->proxy.get(), {}, group_options);
  Check(group.status(), "group create");
  stack->group = std::move(group).value();
  auto server = net::NetServer::Create(stack->group.get(),
                                       net::NetServer::Options());
  Check(server.status(), "server create");
  stack->server = std::move(server).value();
  Check(stack->server->Start(), "server start");
  return stack;
}

net::NetClient Connect(const Stack& stack) {
  net::NetClient::Options options;
  options.recv_timeout = kDrainTimeout;
  options.send_timeout = kDrainTimeout;
  auto client =
      net::NetClient::Connect("127.0.0.1", stack.server->port(), options);
  Check(client.status(), "connect");
  return std::move(client).value();
}

net::Request MakeRequest(net::MessageType type, uint64_t id, Instance x,
                         Label y) {
  net::Request request;
  request.type = type;
  request.request_id = id;
  request.label = y;
  request.instance = std::move(x);
  return request;
}

/// `fence_expected`: the context slides under concurrent Explains, so the
/// group's monotonic-reads fence may serve a valid key for an older view
/// flagged degraded (cce_group_degraded_serves_total counts these). With
/// no deadlines and no quarantined shard that is the only degraded cause.
Outcome Classify(const net::Response& response, bool fence_expected = false) {
  uint8_t unexpected = net::kFlagDegraded | net::kFlagCached;
  if (fence_expected) unexpected = net::kFlagCached;
  switch (response.status) {
    case net::WireStatus::kOk:
      return (response.flags & unexpected) != 0 ? Outcome::kBadFlags
                                                : Outcome::kOk;
    case net::WireStatus::kResourceExhausted:
      return Outcome::kShed;
    case net::WireStatus::kDeadlineExceeded:
      return Outcome::kTimeout;
    default:
      return Outcome::kError;
  }
}

/// A key as a feature bitmask; the Adult schema has 14 features.
uint32_t KeyMask(const cce::FeatureSet& key) {
  uint32_t mask = 0;
  for (cce::FeatureId f : key) mask |= uint32_t{1} << f;
  return mask;
}

/// One wire key kept for the post-run check against the reference engine.
struct KeySample {
  uint64_t item = 0;
  uint32_t mask = 0;
  bool satisfied = true;
};

// ----------------------------------------------------------------- trace

/// Spans and key shapes from the traced chains of one thread.
struct TraceLog {
  std::vector<Span> spans;
  std::vector<double> key_size;
  uint64_t unsatisfied = 0;
  uint64_t chains = 0;
  Tally tally;

  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, uint64_t request_id) {
    spans.push_back({name, start, end, parent, request_id});
    return static_cast<int>(spans.size()) - 1;
  }

  void Merge(TraceLog&& other) {
    const int base = static_cast<int>(spans.size());
    for (Span& span : other.spans) {
      if (span.parent >= 0) span.parent += base;
      spans.push_back(std::move(span));
    }
    key_size.insert(key_size.end(), other.key_size.begin(),
                    other.key_size.end());
    unsatisfied += other.unsatisfied;
    chains += other.chains;
    tally.Merge(other.tally);
  }
};

/// Re-issues one wire request at every boundary below the wire, outermost
/// first, timing each call as a span: group -> proxy -> ContextSnapshot ->
/// SearchKey -> Srk per engine. With `expect` set (static context), every
/// layer's key must equal the wire key.
void RunChain(const Stack& stack, const Instance& x, Label y, uint64_t id,
              Clock::time_point wire_start, Clock::time_point wire_end,
              const std::optional<KeySample>& expect, TraceLog* log) {
  const int wire = log->Add("wire", wire_start, wire_end, -1, id);
  Clock::time_point t = Clock::now();
  auto grouped = stack.group->Explain(x, y);
  const int group = log->Add("group", t, Clock::now(), wire, id);
  t = Clock::now();
  auto proxied = stack.proxy->Explain(x, y);
  const int proxy = log->Add("proxy", t, Clock::now(), group, id);
  t = Clock::now();
  const Context context = stack.proxy->ContextSnapshot();
  log->Add("snapshot", t, Clock::now(), proxy, id);
  t = Clock::now();
  auto searched = serving::SearchKey(context, x, y, Deadline::Infinite(),
                                     serving::ReadPath());
  const int search = log->Add("search", t, Clock::now(), proxy, id);
  Srk::Options sorted;
  t = Clock::now();
  auto by_sorted = Srk::ExplainInstance(context, x, y, sorted);
  log->Add("srk.sorted", t, Clock::now(), search, id);
  Srk::Options bitset;
  bitset.parallel_conformity = true;
  t = Clock::now();
  auto by_bitset = Srk::ExplainInstance(context, x, y, bitset);
  log->Add("srk.bitset", t, Clock::now(), search, id);

  ++log->chains;
  ++log->tally.sent;
  if (!grouped.ok() || !proxied.ok() || !searched.ok() || !by_sorted.ok() ||
      !by_bitset.ok()) {
    log->tally.Count(Outcome::kError);
    return;
  }
  const bool fence_expected = !expect.has_value();  // see Classify
  if ((grouped->key.degraded && !fence_expected) || grouped->key.cached ||
      proxied->degraded || proxied->cached) {
    log->tally.Count(Outcome::kBadFlags);
    return;
  }
  log->key_size.push_back(static_cast<double>(searched->key.size()));
  if (!searched->satisfied) ++log->unsatisfied;
  bool same = true;
  if (expect.has_value()) {
    for (const KeyResult* key :
         {&grouped->key, &*proxied, &*searched, &*by_sorted, &*by_bitset}) {
      same = same && KeyMask(key->key) == expect->mask &&
             key->satisfied == expect->satisfied;
    }
  }
  log->tally.Count(same ? Outcome::kOk : Outcome::kMismatch);
}

/// Runs the chain for sampled open-loop Explains on its own thread, so the
/// schedule never waits for it.
class Tracer {
 public:
  Tracer(const Stack& stack, ItemFn items)
      : stack_(stack), items_(std::move(items)), thread_([this] { Loop(); }) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer() { Close(); }

  void Push(uint64_t item, Clock::time_point start, Clock::time_point end) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back({item, start, end});
    }
    cv_.notify_one();
  }

  /// Finishes queued chains, joins the thread and hands over the spans.
  TraceLog Finish() {
    Close();
    return std::move(log_);
  }

 private:
  struct Job {
    uint64_t item = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void Loop() {
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = jobs_.front();
        jobs_.pop_front();
      }
      Label y = 0;
      const Instance x = items_(job.item, &y);
      RunChain(stack_, x, y, job.item, job.start, job.end, std::nullopt,
               &log_);
    }
  }

  const Stack& stack_;
  ItemFn items_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool closed_ = false;
  TraceLog log_;  // written by the tracer thread only, until joined
  std::thread thread_;
};

// ------------------------------------------------------------ closed loop

struct LoopResult {
  std::vector<Sample> latency;  // OK responses, completion from the start
  std::vector<double> lag_ms;
  std::vector<KeySample> keys;
  Tally tally;
  uint64_t ok_within_slo = 0;
  TraceLog trace;

  void Merge(LoopResult&& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
    keys.insert(keys.end(), other.keys.begin(), other.keys.end());
    tally.Merge(other.tally);
    ok_within_slo += other.ok_within_slo;
    trace.Merge(std::move(other.trace));
  }
};

struct ClosedLoop {
  int connections = 1;
  int window = 1;        // outstanding Explains per connection
  int trace_every = 0;   // chain every n-th request per connection; 0 = off
};

/// One closed-loop connection: keeps `window` Explains outstanding until
/// `end`, then drains. Latency runs from send to receipt; lag from the
/// moment a slot freed to the next send. Keys are kept for the reference
/// check.
void ClosedLoopConnection(const Stack& stack, net::NetClient* client,
                          const ItemFn& items, const ClosedLoop& loop,
                          uint64_t first_item, Clock::time_point start,
                          Clock::time_point end, LoopResult* out) {
  const uint64_t stride = static_cast<uint64_t>(loop.connections);
  std::unordered_map<uint64_t, Clock::time_point> in_flight;
  std::deque<Clock::time_point> free_since(static_cast<size_t>(loop.window),
                                           start);
  uint64_t k = 0;
  while (true) {
    while (static_cast<int>(in_flight.size()) < loop.window &&
           Clock::now() < end) {
      const uint64_t item = first_item + stride * k++;
      Label y = 0;
      Instance x = items(item, &y);
      ++out->tally.sent;
      const Status sent = client->Send(MakeRequest(
          net::MessageType::kExplainRequest, item, std::move(x), y));
      const Clock::time_point t = Clock::now();
      if (!sent.ok()) {
        out->tally.Count(Outcome::kError);
        break;
      }
      out->lag_ms.push_back(Millis(t - free_since.front()));
      free_since.pop_front();
      in_flight.emplace(item, t);
    }
    if (in_flight.empty()) break;
    auto response = client->Receive();
    const Clock::time_point t = Clock::now();
    if (!response.ok()) {
      for (size_t i = 0; i < in_flight.size(); ++i) {
        out->tally.Count(Outcome::kTimeout);
      }
      return;
    }
    auto found = in_flight.find(response->request_id);
    if (found == in_flight.end()) {  // a desynced stream: stop this loop
      out->tally.Count(Outcome::kError);
      for (size_t i = 0; i < in_flight.size(); ++i) {
        out->tally.Count(Outcome::kTimeout);
      }
      return;
    }
    const uint64_t item = found->first;
    const Clock::time_point sent_at = found->second;
    in_flight.erase(found);
    free_since.push_back(t);
    const Outcome outcome = Classify(*response);
    out->tally.Count(outcome);
    if (outcome != Outcome::kOk) continue;
    const double latency = Millis(t - sent_at);
    out->latency.push_back({Millis(t - start) / 1000.0, latency});
    if (latency <= kExplainSloMs) ++out->ok_within_slo;
    const KeySample key{item, KeyMask(response->key),
                        (response->flags & net::kFlagUnsatisfied) == 0};
    out->keys.push_back(key);
    const uint64_t nth = (item - first_item) / stride;
    if (loop.trace_every > 0 &&
        nth % static_cast<uint64_t>(loop.trace_every) == 0) {
      Label y = 0;
      const Instance x = items(item, &y);
      RunChain(stack, x, y, item, sent_at, t, key, &out->trace);
    }
  }
}

LoopResult RunClosedLoop(const Stack& stack, const ItemFn& items,
                         const ClosedLoop& loop, Phase phase,
                         Clock::duration length) {
  std::vector<net::NetClient> clients;
  for (int c = 0; c < loop.connections; ++c) clients.push_back(Connect(stack));
  std::vector<LoopResult> per(static_cast<size_t>(loop.connections));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + length;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < loop.connections; ++c) {
      // Only connection 0 traces: its chains then contend with plain wire
      // traffic exactly as its wire requests do, so the subtractions that
      // give self times compare like with like.
      ClosedLoop own = loop;
      if (c > 0) own.trace_every = 0;
      threads.emplace_back([&, c, own] {
        ClosedLoopConnection(stack, &clients[static_cast<size_t>(c)], items,
                             own, PhaseItem(phase, static_cast<uint64_t>(c)),
                             start, end, &per[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  LoopResult result;
  for (LoopResult& r : per) result.Merge(std::move(r));
  return result;
}

// -------------------------------------------------------------- open loop

/// One request class of an open loop, on its own connection and thread.
struct OpenClass {
  net::MessageType type = net::MessageType::kRecordRequest;
  Schedule schedule;
  uint64_t count = 0;
  ItemFn items;
  double slo_ms = 0;
  int trace_every = 0;  // hand every n-th OK answer to the tracer
  bool fence_expected = false;  // see Classify
};

struct OpenResult {
  std::vector<Sample> latency;  // OK responses: from the due time, and
                                // when answered, from the first due time
  std::vector<double> lag_ms;
  Tally tally;
  uint64_t ok_within_slo = 0;
};

void OpenLoopConnection(net::NetClient* client, const OpenClass& cls,
                        Tracer* tracer, OpenResult* out) {
  std::vector<Clock::time_point> sent_at(cls.count);
  std::vector<uint8_t> answered(cls.count, 0);
  uint64_t outstanding = 0;
  bool broken = false;

  const auto handle = [&](const net::Response& response, Clock::time_point t) {
    const uint64_t i = response.request_id;
    if (i >= cls.count || answered[i] != 0) {  // a desynced stream
      out->tally.Count(Outcome::kError);
      broken = true;
      return;
    }
    answered[i] = 1;
    --outstanding;
    const Outcome outcome = Classify(response, cls.fence_expected);
    out->tally.Count(outcome);
    if (outcome != Outcome::kOk) return;
    const double latency = Millis(t - cls.schedule.Due(i));
    out->latency.push_back({Millis(t - cls.schedule.start) / 1000.0, latency});
    if (latency <= cls.slo_ms) ++out->ok_within_slo;
    if (tracer != nullptr && cls.trace_every > 0 &&
        i % static_cast<uint64_t>(cls.trace_every) == 0) {
      tracer->Push(i, sent_at[i], t);
    }
  };
  // Receives responses until `until`, or until nothing is outstanding when
  // draining. Marks the connection broken on a socket failure.
  const auto pump = [&](Clock::time_point until, bool drain) {
    while (!broken && !(drain && outstanding == 0)) {
      const Clock::time_point now = Clock::now();
      if (now >= until) return;
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          until - now);
      timespec timeout{};
      timeout.tv_sec = static_cast<time_t>(wait.count() / 1000000000);
      timeout.tv_nsec = static_cast<long>(wait.count() % 1000000000);
      pollfd pfd{client->fd(), POLLIN, 0};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) {
        broken = true;
        return;
      }
      if (ready == 0) continue;
      auto response = client->Receive();
      if (!response.ok()) {
        broken = true;
        return;
      }
      handle(*response, Clock::now());
    }
  };

  DriveSchedule(
      cls.schedule, cls.count, [] { return Clock::now(); },
      [&](Clock::time_point due) { pump(due, /*drain=*/false); },
      [&](uint64_t i, Clock::time_point) {
        if (broken) return;
        Label y = 0;
        Instance x = cls.items(i, &y);
        ++out->tally.sent;
        sent_at[i] = Clock::now();
        if (!client->Send(MakeRequest(cls.type, i, std::move(x), y)).ok()) {
          out->tally.Count(Outcome::kError);
          broken = true;
          return;
        }
        ++outstanding;
      },
      &out->lag_ms);
  pump(Clock::now() + kDrainTimeout, /*drain=*/true);
  for (uint64_t i = 0; i < outstanding; ++i) out->tally.Count(Outcome::kTimeout);
}

std::vector<OpenResult> RunOpenLoop(const Stack& stack,
                                    const std::vector<OpenClass>& classes,
                                    Tracer* tracer) {
  std::vector<net::NetClient> clients;
  for (size_t c = 0; c < classes.size(); ++c) clients.push_back(Connect(stack));
  std::vector<OpenResult> results(classes.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < classes.size(); ++c) {
    threads.emplace_back([&, c] {
      OpenLoopConnection(&clients[c], classes[c], tracer, &results[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

OpenClass RecordClass(const Dataset& rows, size_t first_row,
                      Clock::time_point start, Clock::duration length) {
  OpenClass cls;
  cls.type = net::MessageType::kRecordRequest;
  cls.schedule = {start, Seconds(1.0 / kRecordRate)};
  cls.count = static_cast<uint64_t>(
      std::chrono::duration<double>(length).count() * kRecordRate);
  if (first_row + cls.count > rows.size()) Die("record stream exhausted");
  cls.items = [&rows, first_row](uint64_t i, Label* y) {
    *y = rows.label(first_row + i);
    return rows.instance(first_row + i);
  };
  cls.slo_ms = kRecordSloMs;
  return cls;
}

// ----------------------------------------------------------------- checks

size_t WorkerThreads() {
  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min(hw, kMaxThreads);
}

/// Runs fn(i) for i in [0, n) on up to kMaxThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < WorkerThreads(); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Checks every kept wire key against Srk::ExplainInstance with the
/// reference sorted-merge engine on `context`; returns the mismatches.
uint64_t CountMismatches(const Context& context,
                         const std::vector<KeySample>& keys,
                         const ItemFn& items) {
  std::atomic<uint64_t> mismatches{0};
  ParallelFor(keys.size(), [&](size_t i) {
    Label y = 0;
    const Instance x = items(keys[i].item, &y);
    auto reference = Srk::ExplainInstance(context, x, y, Srk::Options());
    if (!reference.ok() || KeyMask(reference->key) != keys[i].mask ||
        reference->satisfied != keys[i].satisfied) {
      mismatches.fetch_add(1);
    }
  });
  return mismatches.load();
}

// ------------------------------------------------------- registry reading

struct HistogramTotals {
  std::vector<int64_t> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1, +Inf last
  uint64_t count = 0;
  int64_t sum = 0;
};

/// A histogram family summed over its children.
HistogramTotals ReadHistogram(const obs::Registry& registry,
                              const std::string& name) {
  HistogramTotals totals;
  for (const auto& family : registry.Collect()) {
    if (family.name != name) continue;
    for (const auto& sample : family.samples) {
      const auto& h = sample.histogram;
      if (totals.counts.empty()) {
        totals.bounds = h.bounds;
        totals.counts.assign(h.counts.size(), 0);
      }
      for (size_t b = 0; b < h.counts.size() && b < totals.counts.size();
           ++b) {
        totals.counts[b] += h.counts[b];
      }
      totals.count += h.count;
      totals.sum += h.sum;
    }
  }
  return totals;
}

uint64_t ReadCounter(const obs::Registry& registry, const std::string& name) {
  uint64_t total = 0;
  for (const auto& family : registry.Collect()) {
    if (family.name != name) continue;
    for (const auto& sample : family.samples) {
      total += static_cast<uint64_t>(sample.value);
    }
  }
  return total;
}

HistogramTotals Minus(HistogramTotals after, const HistogramTotals& before) {
  for (size_t b = 0; b < before.counts.size() && b < after.counts.size();
       ++b) {
    after.counts[b] -= before.counts[b];
  }
  after.count -= before.count;
  after.sum -= before.sum;
  return after;
}

double HistogramMean(const HistogramTotals& h) {
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum) /
                            static_cast<double>(h.count);
}

/// Quantile by linear interpolation inside the bucket holding the rank.
double HistogramQuantile(const HistogramTotals& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(h.count)));
  double seen = 0;
  for (size_t b = 0; b < h.counts.size(); ++b) {
    const double in_bucket = static_cast<double>(h.counts[b]);
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    const double lower = b == 0 ? 0.0 : static_cast<double>(h.bounds[b - 1]);
    const double upper = b < h.bounds.size()
                             ? static_cast<double>(h.bounds[b])
                             : static_cast<double>(h.bounds.back());
    return lower + (upper - lower) * (rank - seen) / in_bucket;
  }
  return static_cast<double>(h.bounds.back());
}

/// Registry readings taken before and after the traced phase.
struct RegistryReading {
  HistogramTotals tick_requests, flush_frames, batch_size, server_latency,
      queue_wait;
  uint64_t sheds = 0, fenced = 0;
  uint64_t batch_items = 0, batch_executions = 0;
};

RegistryReading ReadRegistry(const Stack& stack) {
  const obs::Registry& r = *stack.registry;
  RegistryReading reading;
  reading.tick_requests = ReadHistogram(r, "cce_net_tick_requests");
  reading.flush_frames = ReadHistogram(r, "cce_net_flush_frames");
  reading.batch_size = ReadHistogram(r, "cce_batch_size");
  reading.server_latency = ReadHistogram(r, "cce_net_request_latency_us");
  reading.queue_wait = ReadHistogram(r, "cce_explain_queue_wait_us");
  reading.sheds = ReadCounter(r, "cce_net_sheds_total");
  reading.fenced = ReadCounter(r, "cce_group_degraded_serves_total");
  const serving::HealthSnapshot health = stack.proxy->Health();
  reading.batch_items = health.batch_items;
  reading.batch_executions = health.batch_executions;
  return reading;
}

// ---------------------------------------------------------------- probes

/// Writes `context` into a durable directory without syncing (an untimed
/// pre-step: the files are what a synced proxy would have left).
void WriteDurableDir(const Dataset& context, const std::string& dir) {
  auto writer = OpenProxy(context.schema_ptr(), {context.size(), dir, 0},
                          std::make_shared<obs::Registry>());
  for (size_t i = 0; i < context.size(); ++i) {
    Check(writer->Record(context.instance(i), context.label(i)),
          "pre-step record");
  }
}

/// The durable record probe: call times plus the io layer's registry
/// deltas over the probe.
struct RecordProbeResult {
  std::vector<double> call_ms;
  HistogramTotals wal_append;
  uint64_t wal_records = 0;
  uint64_t wal_fsyncs = 0;
};

/// Direct Record calls on the open-loop Record schedule against a durable
/// twin of the served proxy: same shards and capacity, `context` recovered
/// from a directory written just before, and the shipped sync_every = 1.
/// So the io layer is measured on every workload, durable or not.
RecordProbeResult DurableRecordProbe(const Dataset& context,
                                     const ItemFn& rows, uint64_t count,
                                     const std::string& dir) {
  WriteDurableDir(context, dir);
  auto registry = std::make_shared<obs::Registry>();
  auto proxy = OpenProxy(context.schema_ptr(), {context.size(), dir, 1},
                         registry);
  const HistogramTotals append_before =
      ReadHistogram(*registry, "cce_wal_append_us");
  const uint64_t records_before =
      ReadCounter(*registry, "cce_wal_records_logged_total");
  const uint64_t fsyncs_before = ReadCounter(*registry, "cce_wal_fsyncs_total");
  RecordProbeResult result;
  const Schedule schedule{Clock::now(), Seconds(1.0 / kRecordRate)};
  std::vector<double> lag_ms;
  DriveSchedule(
      schedule, count, [] { return Clock::now(); },
      [](Clock::time_point due) { std::this_thread::sleep_until(due); },
      [&](uint64_t i, Clock::time_point) {
        Label y = 0;
        const Instance x = rows(i, &y);
        const Clock::time_point t = Clock::now();
        Check(proxy->Record(x, y), "probe record");
        result.call_ms.push_back(Millis(Clock::now() - t));
      },
      &lag_ms);
  result.wal_append =
      Minus(ReadHistogram(*registry, "cce_wal_append_us"), append_before);
  result.wal_records =
      ReadCounter(*registry, "cce_wal_records_logged_total") - records_before;
  result.wal_fsyncs =
      ReadCounter(*registry, "cce_wal_fsyncs_total") - fsyncs_before;
  return result;
}

/// A standalone ExplainCache::Get after kCacheDeltas window deltas, in µs:
/// what serving a revalidated cached key costs beside a live search.
std::vector<double> CacheProbe(const Context& context, uint64_t seed) {
  serving::ExplainCache::Options options;
  options.revalidation_window = kCacheDeltas;
  serving::ExplainCache cache(options);
  std::vector<size_t> rows;
  std::vector<KeyResult> keys;
  for (size_t k = 0; k < kCacheKeys; ++k) {
    const size_t row = Mix(seed + k) % context.size();
    auto key = Srk::ExplainInstance(context, context.instance(row),
                                    context.label(row), Srk::Options());
    Check(key.status(), "cache probe key");
    rows.push_back(row);
    keys.push_back(*key);
  }
  std::vector<double> get_us;
  for (size_t s = 0; s < kCacheSamples; ++s) {
    const size_t row = rows[s % kCacheKeys];
    cache.Put(context.instance(row), context.label(row), cache.delta_seq(),
              context.size(), keys[s % kCacheKeys]);
    for (size_t d = 0; d < kCacheDeltas / 2; ++d) {
      const size_t add = Mix(seed ^ (s * kCacheDeltas + d)) % context.size();
      const size_t remove = (add + context.size() / 2) % context.size();
      cache.RecordAdd(context.instance(add), context.label(add));
      cache.RecordRemove(context.instance(remove), context.label(remove));
    }
    const Clock::time_point t = Clock::now();
    auto got = cache.Get(context.instance(row), context.label(row));
    get_us.push_back(Millis(Clock::now() - t) * 1000.0);
    if (got.has_value() && !got->cached) Die("cache probe: uncached hit");
  }
  return get_us;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// In the JSON result, i.e. declared in BENCHMARK.json. The others are
  /// report lines only: too unsteady on a shared 4-vCPU host to gate a
  /// change on (see README.md).
  bool declared = true;
};

struct Report {
  std::vector<Metric> metrics;
  Tally tally;
  uint64_t fenced = 0;  // OK answers the group's fence flagged degraded
  std::vector<std::string> missing;  // percentiles without support

  void Add(const std::string& name, double value, const std::string& unit,
           bool declared = true) {
    metrics.push_back(
        {name, std::isfinite(value) ? value : 0.0, unit, declared});
  }
  /// An end-to-end percentile: the median over time-ordered chunks that
  /// each keep kMinSamplesBeyond samples beyond it.
  void AddPercentile(const std::string& name, const std::vector<Sample>& v,
                     int pct, bool declared) {
    const std::optional<double> value = ChunkedPercentile(v, pct, kChunks);
    if (!value.has_value()) {
      missing.push_back(name + " (" + std::to_string(v.size()) + " samples)");
    }
    Add(name, value.value_or(0.0), "ms", declared);
  }
  /// The highest of p99, p98, p95 and p90 the sample supports, as the
  /// report line "<what>_p<pct>_ms" (p99 unless a run is short of samples).
  void AddTail(const std::string& what, const std::vector<Sample>& v) {
    for (int pct : {99, 98, 95, 90}) {
      if (SamplesBeyond(v.size(), pct) >= kMinSamplesBeyond) {
        AddPercentile(what + "_p" + std::to_string(pct) + "_ms", v, pct,
                      false);
        return;
      }
    }
    missing.push_back(what + " tail (" + std::to_string(v.size()) +
                      " samples)");
  }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Writes the traced spans, one object per span, times in µs from `t0`.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                Clock::time_point t0) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << JsonNumber(Millis(s.start - t0) * 1000.0)
        << ", \"end_us\": " << JsonNumber(Millis(s.end - t0) * 1000.0)
        << ", \"parent\": " << s.parent << ", \"request_id\": " << s.request_id
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) Die("cannot write " + path);
}

// --------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

/// Everything a traced run measures, turned into per-layer metrics.
struct TracedRun {
  TraceLog trace;
  std::vector<double> untraced_latency_ms;
  std::vector<double> traced_latency_ms;
  std::vector<double> untraced_lag_ms;
  RegistryReading before;
  RegistryReading after;
  RecordProbeResult record;
  std::vector<double> cache_us;
};

std::vector<double> SpanMs(const TraceLog& log, const std::string& name,
                           bool self) {
  const std::vector<double> selves = SelfTimesMs(log.spans);
  std::vector<double> out;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    if (log.spans[i].name == name) {
      out.push_back(self ? selves[i] : log.spans[i].ms());
    }
  }
  return out;
}

void AddLayerMetrics(const TracedRun& run, Report* report) {
  const TraceLog& log = run.trace;
  const RegistryReading& a = run.after;
  const RegistryReading& b = run.before;
  const auto p50 = [](const std::vector<double>& v) {
    return PercentileUnchecked(v, 50);
  };
  const auto p99 = [](const std::vector<double>& v) {
    return PercentileUnchecked(v, 99);
  };
  const double proxy_p50 = p50(SpanMs(log, "proxy", false));
  const double snapshot_p50 = p50(SpanMs(log, "snapshot", false));
  const uint64_t executions = a.batch_executions - b.batch_executions;

  report->Add("net.self_ms.p50", p50(SpanMs(log, "wire", true)), "ms");
  report->Add("net.tick_requests.mean",
              HistogramMean(Minus(a.tick_requests, b.tick_requests)), "count");
  report->Add("net.flush_frames.mean",
              HistogramMean(Minus(a.flush_frames, b.flush_frames)), "count");
  report->Add("net.batch_size.mean",
              HistogramMean(Minus(a.batch_size, b.batch_size)), "count");
  report->Add("net.server_latency_ms.p50",
              HistogramQuantile(Minus(a.server_latency, b.server_latency),
                                0.5) / 1000.0,
              "ms");
  report->Add("net.sheds", static_cast<double>(a.sheds - b.sheds), "count");
  report->Add("group.self_ms.p50", p50(SpanMs(log, "group", true)), "ms");
  report->Add("group.fenced_serves", static_cast<double>(a.fenced - b.fenced),
              "count");
  report->Add("proxy.self_ms.p50", p50(SpanMs(log, "proxy", true)), "ms");
  report->Add("proxy.batch_items_per_execution",
              executions == 0
                  ? 0.0
                  : static_cast<double>(a.batch_items - b.batch_items) /
                        static_cast<double>(executions),
              "ratio");
  report->Add("proxy.batch_executions", static_cast<double>(executions),
              "count");
  report->Add("shard.snapshot_ms.p50", snapshot_p50, "ms");
  report->Add("shard.snapshot_ms.p99", p99(SpanMs(log, "snapshot", false)),
              "ms");
  report->Add("shard.snapshot_share",
              proxy_p50 > 0 ? snapshot_p50 / proxy_p50 : 0.0, "ratio");
  report->Add("read_path.search_ms.p50", p50(SpanMs(log, "search", false)),
              "ms");
  report->Add("read_path.search_ms.p99", p99(SpanMs(log, "search", false)),
              "ms");
  report->Add("core.srk_sorted_ms.p50", p50(SpanMs(log, "srk.sorted", false)),
              "ms");
  report->Add("core.srk_bitset_ms.p50", p50(SpanMs(log, "srk.bitset", false)),
              "ms");
  report->Add("core.key_size.mean", Mean(log.key_size), "count");
  report->Add("core.unsatisfied_frac",
              log.key_size.empty()
                  ? 0.0
                  : static_cast<double>(log.unsatisfied) /
                        static_cast<double>(log.key_size.size()),
              "ratio");
  const RecordProbeResult& record = run.record;
  report->Add("proxy.record_ms.p50", p50(record.call_ms), "ms");
  report->Add("proxy.record_ms.p99", p99(record.call_ms), "ms");
  report->Add("io.wal_append_us.p50", HistogramQuantile(record.wal_append, 0.5),
              "us");
  report->Add("io.wal_append_us.p99",
              HistogramQuantile(record.wal_append, 0.99), "us");
  report->Add("io.wal_fsyncs_per_record",
              record.wal_records == 0
                  ? 0.0
                  : static_cast<double>(record.wal_fsyncs) /
                        static_cast<double>(record.wal_records),
              "ratio");
  report->Add("io.wal_records", static_cast<double>(record.wal_records),
              "count");
  report->Add("overload.queue_wait_ms.p99",
              HistogramQuantile(Minus(a.queue_wait, b.queue_wait), 0.99) /
                  1000.0,
              "ms");
  report->Add("cache.revalidate_us.p50", p50(run.cache_us), "us");
  report->Add("loadgen.lag_ms.p99", p99(run.untraced_lag_ms), "ms");
  const double untraced = p50(run.untraced_latency_ms);
  const double traced = p50(run.traced_latency_ms);
  report->Add("trace.overhead_ms", traced - untraced, "ms");
  report->Add("trace.untraced_explain_p50_ms", untraced, "ms");
  report->Add("trace.traced_explain_p50_ms", traced, "ms");
  report->Add("trace.chains", static_cast<double>(log.chains), "count");
  report->Add("wire.explain_ms.p50", p50(SpanMs(log, "wire", false)), "ms");
  report->Add("group.explain_ms.p50", p50(SpanMs(log, "group", false)), "ms");
  report->Add("proxy.explain_ms.p50", proxy_p50, "ms");
}

/// Times set-ups, each from nothing to the first key over the wire, and
/// keeps the last stack: at least kSetupRepeats of them and as many more as
/// fit in kSetupBudget (at most kMaxSetupRepeats), so cheap set-ups get a
/// steadier median. `open` builds one stack; `items` gives the first
/// Explain.
std::unique_ptr<Stack> TimedSetups(
    const std::function<std::unique_ptr<Stack>()>& open, const ItemFn& items,
    std::vector<double>* setup_s) {
  std::unique_ptr<Stack> stack;
  const Clock::time_point begin = Clock::now();
  for (int r = 0; r < kMaxSetupRepeats &&
                  (r < kSetupRepeats || Clock::now() - begin < kSetupBudget);
       ++r) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = open();
    net::NetClient client = Connect(*stack);
    const uint64_t item = PhaseItem(kSetup, static_cast<uint64_t>(r));
    Label y = 0;
    Instance x = items(item, &y);
    auto first = client.Call(
        MakeRequest(net::MessageType::kExplainRequest, item, std::move(x), y));
    const Clock::time_point t1 = Clock::now();
    Check(first.status(), "first key");
    if (Classify(*first) != Outcome::kOk) Die("first key failed");
    setup_s->push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return stack;
}

struct WorkloadResult {
  Report report;
  std::vector<Span> spans;
};

/// The end-to-end figures every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<Sample> explain;
  std::vector<Sample> record;
  double keys_per_s = 0;
  uint64_t within_slo = 0;
  uint64_t slo_sent = 0;
  double peak_rss_mb = 0;
};

void AddEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Add("setup_s", Median(e2e.setup_s), "s");
  report->AddPercentile("explain_p50_ms", e2e.explain, 50, true);
  report->AddTail("explain", e2e.explain);
  report->Add("keys_per_s", e2e.keys_per_s, "1/s");
  if (!e2e.record.empty()) {  // ingest_slide_mix only
    report->AddPercentile("record_p50_ms", e2e.record, 50, false);
    report->AddTail("record", e2e.record);
  }
  report->Add("slo_frac",
              e2e.slo_sent == 0 ? 0.0
                                : static_cast<double>(e2e.within_slo) /
                                      static_cast<double>(e2e.slo_sent),
              "ratio");
  report->Add("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

/// explain_live_adult48k and wire_small_ctx: closed loops of Explains on a
/// static context, every key checked.
WorkloadResult RunClosedWorkload(const Args& args, size_t rows,
                                 const ClosedLoop& loop, bool random_items,
                                 const std::filesystem::path& scratch) {
  cce::data::AdultOptions adult;
  const auto probe_records = static_cast<uint64_t>(
      kRecordRate * std::chrono::duration<double>(kRecordProbe).count());
  adult.rows = rows + probe_records;
  adult.seed = args.seed;
  const Dataset all = cce::data::GenerateAdult(adult);
  const Dataset context = all.Prefix(rows);
  const ItemFn items = random_items
                           ? RandomInstances(context.schema(), args.seed)
                           : ContextRows(context, args.seed);
  const StackOptions stack_options{rows, "", 1};

  WorkloadResult result;
  Report& report = result.report;
  EndToEnd e2e;
  std::unique_ptr<Stack> stack = TimedSetups(
      [&] { return OpenStack(context.schema_ptr(), stack_options, &context); },
      items, &e2e.setup_s);
  e2e.peak_rss_mb = PeakRssMb();

  if (RunClosedLoop(*stack, items, {loop.connections, loop.window, 0}, kWarm,
                    kWarmup)
          .tally.failed() != 0) {
    Die("warm-up requests failed");
  }

  LoopResult main;
  TracedRun traced;
  if (!args.trace) {
    main = RunClosedLoop(*stack, items, {loop.connections, loop.window, 0},
                         kMeasured, Seconds(args.seconds));
  } else {
    main = RunClosedLoop(*stack, items, {loop.connections, loop.window, 0},
                         kMeasured, Seconds(args.seconds / 2));
    traced.untraced_latency_ms = Values(main.latency);
    traced.untraced_lag_ms = main.lag_ms;
    traced.before = ReadRegistry(*stack);
    LoopResult with_trace = RunClosedLoop(*stack, items, loop, kTraced,
                                          Seconds(args.seconds / 2));
    traced.after = ReadRegistry(*stack);
    traced.traced_latency_ms = Values(with_trace.latency);
    traced.trace = std::exchange(with_trace.trace, TraceLog());
    main.Merge(std::move(with_trace));
  }
  // Keys first, while the context is still exactly `context`.
  const uint64_t mismatches = CountMismatches(context, main.keys, items);
  for (uint64_t i = 0; i < mismatches; ++i) main.tally.Demote();
  report.tally.Merge(main.tally);
  report.tally.Merge(traced.trace.tally);

  if (args.trace) {
    const ItemFn probe_rows = [&all, rows](uint64_t i, Label* y) {
      *y = all.label(rows + i);
      return all.instance(rows + i);
    };
    traced.record = DurableRecordProbe(context, probe_rows, probe_records,
                                       (scratch / "twin").string());
    traced.cache_us = CacheProbe(context, args.seed);
    AddLayerMetrics(traced, &report);
    result.spans = std::move(traced.trace.spans);
  } else {
    e2e.explain = main.latency;
    e2e.keys_per_s = ChunkedRate(main.latency, args.seconds, kChunks);
    e2e.within_slo = main.ok_within_slo;
    e2e.slo_sent = main.tally.sent;
    AddEndToEnd(e2e, &report);
  }
  report.fenced = ReadRegistry(*stack).fenced;
  return result;
}

/// ingest_slide_mix: a durable 48 Ki-row window sliding under kRecordRate
/// Records/s while kExplainRate Explains/s target recently recorded rows.
WorkloadResult RunIngestWorkload(const Args& args,
                                 const std::filesystem::path& scratch) {
  const size_t rows = kLiveRows;
  const double warm_s = std::chrono::duration<double>(kWarmup).count();
  const double probe_s = std::chrono::duration<double>(kRecordProbe).count();
  const size_t stream_rows = static_cast<size_t>(
      kRecordRate * (warm_s + args.seconds + probe_s) + 1000);
  cce::data::AdultOptions adult;
  adult.rows = rows + stream_rows;
  adult.seed = args.seed;
  const Dataset all = cce::data::GenerateAdult(adult);
  const Dataset context = all.Prefix(rows);
  const std::string wal_dir = (scratch / "wal").string();

  // Untimed pre-step: the durable directory the restarts recover.
  WriteDurableDir(context, wal_dir);

  WorkloadResult result;
  Report& report = result.report;
  EndToEnd e2e;
  const ItemFn first_keys = ContextRows(context, args.seed);
  std::unique_ptr<Stack> stack = TimedSetups(
      [&] {
        return OpenStack(context.schema_ptr(), {rows, wal_dir, 1}, nullptr);
      },
      first_keys, &e2e.setup_s);
  e2e.peak_rss_mb = PeakRssMb();

  // Each phase records the next stream rows; its Explains target rows
  // recorded just before they were due.
  size_t next_row = rows;
  const auto phase = [&](Clock::duration length, Tracer* tracer) {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    OpenClass records = RecordClass(all, next_row, start, length);
    OpenClass explains;
    explains.type = net::MessageType::kExplainRequest;
    explains.schedule = {start, Seconds(1.0 / kExplainRate)};
    explains.count = static_cast<uint64_t>(
        std::chrono::duration<double>(length).count() * kExplainRate);
    explains.items = RecentRows(all, next_row, args.seed);
    explains.slo_ms = kExplainSloMs;
    explains.trace_every = tracer != nullptr ? kIngestTraceEvery : 0;
    explains.fence_expected = true;
    next_row += records.count;
    return RunOpenLoop(*stack, {records, explains}, tracer);
  };

  const std::vector<OpenResult> warm = phase(kWarmup, nullptr);
  if (warm[0].tally.failed() + warm[1].tally.failed() != 0) {
    Die("warm-up requests failed");
  }
  std::vector<OpenResult> main;
  TracedRun traced;
  if (!args.trace) {
    main = phase(Seconds(args.seconds), nullptr);
  } else {
    main = phase(Seconds(args.seconds / 2), nullptr);
    traced.untraced_latency_ms = Values(main[1].latency);
    traced.untraced_lag_ms = main[0].lag_ms;
    traced.untraced_lag_ms.insert(traced.untraced_lag_ms.end(),
                                  main[1].lag_ms.begin(),
                                  main[1].lag_ms.end());
    traced.before = ReadRegistry(*stack);
    // The tracer re-reads each sampled Explain's target by item number.
    Tracer tracer(*stack, RecentRows(all, next_row, args.seed));
    const std::vector<OpenResult> second =
        phase(Seconds(args.seconds / 2), &tracer);
    traced.trace = tracer.Finish();
    traced.after = ReadRegistry(*stack);
    traced.traced_latency_ms = Values(second[1].latency);
    for (size_t c = 0; c < main.size(); ++c) {
      main[c].tally.Merge(second[c].tally);
    }
  }
  report.tally.Merge(main[0].tally);
  report.tally.Merge(main[1].tally);
  report.tally.Merge(traced.trace.tally);

  // Quiesced: re-verify a seeded sample of recent rows over the wire.
  {
    const Context now = stack->proxy->ContextSnapshot();
    net::NetClient client = Connect(*stack);
    std::vector<KeySample> keys;
    Tally verify;
    for (size_t s = 0; s < kIngestVerifySample; ++s) {
      const size_t row = next_row - 1 - Mix(args.seed + s) % 4096;
      ++verify.sent;
      auto response = client.Call(MakeRequest(
          net::MessageType::kExplainRequest, row, all.instance(row),
          all.label(row)));
      if (!response.ok()) {
        verify.Count(Outcome::kTimeout);
        continue;
      }
      const Outcome outcome = Classify(*response);
      verify.Count(outcome);
      if (outcome == Outcome::kOk) {
        keys.push_back({row, KeyMask(response->key),
                        (response->flags & net::kFlagUnsatisfied) == 0});
      }
    }
    const ItemFn by_row = [&all](uint64_t row, Label* y) {
      *y = all.label(row);
      return all.instance(row);
    };
    const uint64_t mismatches = CountMismatches(now, keys, by_row);
    for (uint64_t i = 0; i < mismatches; ++i) verify.Demote();
    report.tally.Merge(verify);
  }

  if (args.trace) {
    const size_t first = next_row;
    const ItemFn probe_rows = [&all, first](uint64_t i, Label* y) {
      *y = all.label(first + i);
      return all.instance(first + i);
    };
    const Context window = stack->proxy->ContextSnapshot();
    traced.record = DurableRecordProbe(
        window, probe_rows, static_cast<uint64_t>(kRecordRate * probe_s),
        (scratch / "twin").string());
    traced.cache_us = CacheProbe(window, args.seed);
    AddLayerMetrics(traced, &report);
    result.spans = std::move(traced.trace.spans);
  } else {
    e2e.explain = main[1].latency;
    e2e.record = main[0].latency;
    // Served keys per second of wall time, from the first due time to the
    // last answer.
    double answered_s = 1e-9;
    for (const Sample& s : main[1].latency) {
      answered_s = std::max(answered_s, s.at_s);
    }
    e2e.keys_per_s = static_cast<double>(main[1].tally.ok) / answered_s;
    e2e.within_slo = main[0].ok_within_slo + main[1].ok_within_slo;
    e2e.slo_sent = main[0].tally.sent + main[1].tally.sent;
    AddEndToEnd(e2e, &report);
  }
  report.fenced = ReadRegistry(*stack).fenced;
  return result;
}

// -------------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Guard rail: timings from unoptimized or instrumented code mean nothing.
std::string BuildRefusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "built without optimization or with assertions (" + type + ")";
#elif PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  if (type == "Debug" || type.empty()) return "build type '" + type + "'";
  return "";
#endif
}

/// Removes the run's private temp dir on every exit path out of main.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <explain_live_adult48k|"
                 "ingest_slide_mix|wire_small_ctx> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  if (const std::string refusal = BuildRefusal(); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 refusal.c_str());
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u build_type=%s shards=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              kShards);

  ScratchDir scratch{std::filesystem::current_path() / ".bench_build" /
                     "tmp" /
                     ("run-" + std::to_string(::getpid()) + "-" +
                      std::to_string(args.seed))};
  std::filesystem::remove_all(scratch.path);
  std::filesystem::create_directories(scratch.path);

  const Clock::time_point t0 = Clock::now();
  WorkloadResult result;
  if (args.workload == "explain_live_adult48k") {
    result =
        RunClosedWorkload(args, kLiveRows, {2, 1, 1}, false, scratch.path);
  } else if (args.workload == "wire_small_ctx") {
    result =
        RunClosedWorkload(args, kSmallRows, {2, 32, 64}, true, scratch.path);
  } else if (args.workload == "ingest_slide_mix") {
    result = RunIngestWorkload(args, scratch.path);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Report& report = result.report;
  if (args.trace) {
    const std::string path = (std::filesystem::current_path() / ".bench_build" /
                              "traces" /
                              (args.workload + "-seed" +
                               std::to_string(args.seed) + ".json"))
                                 .string();
    WriteSpans(path, result.spans, t0);
    std::printf("# spans: %zu written to %s\n", result.spans.size(),
                path.c_str());
  }

  const Tally& tally = report.tally;
  const uint64_t failed = tally.failed() + tally.unanswered();
  std::printf("# requests sent=%llu ok=%llu error=%llu shed=%llu "
              "timeout=%llu bad_flags=%llu mismatch=%llu fenced=%llu\n",
              static_cast<unsigned long long>(tally.sent),
              static_cast<unsigned long long>(tally.ok),
              static_cast<unsigned long long>(tally.error),
              static_cast<unsigned long long>(tally.shed),
              static_cast<unsigned long long>(tally.timeout),
              static_cast<unsigned long long>(tally.bad_flags),
              static_cast<unsigned long long>(tally.mismatch),
              static_cast<unsigned long long>(report.fenced));
  std::printf("# metric failed_frac %s ratio\n",
              JsonNumber(tally.failed_frac()).c_str());
  for (const Metric& m : report.metrics) {
    std::printf("# metric %s %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  if (!report.missing.empty()) {
    for (const std::string& name : report.missing) {
      std::fprintf(stderr,
                   "perfbench: %s lacks %zu samples beyond it; raise "
                   "--seconds\n",
                   name.c_str(), kMinSamplesBeyond);
    }
    return 3;
  }
  const bool correct = failed == 0 && tally.sent > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.sent);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const char* separator = "\"";
  for (const Metric& m : report.metrics) {
    if (!m.declared) continue;
    json += separator + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    separator = ", \"";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {  // perfbench::Fatal and I/O errors
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
