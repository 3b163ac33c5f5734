#ifndef CCE_NET_SERVER_H_
#define CCE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "serving/serving_group.h"

namespace cce::net {

/// The network serving front end: a single-threaded epoll event loop
/// speaking the length-prefixed binary protocol of net/protocol.h in
/// front of a serving::ServingGroup, plus a minimal HTTP GET surface for
/// Prometheus scrapes (`/metrics`) and liveness probes (`/healthz`).
///
/// Batched per tick (docs/architecture.md has the lifecycle diagram): one
/// epoll_wait wakes the loop, every readable connection is drained and
/// *all* complete frames are decoded, each decoded request is handed to a
/// small worker pool, completed responses are coalesced per connection,
/// and each dirty connection gets ONE write() at the end of the tick — so
/// a pipelined client amortises the syscall pair across its whole batch.
///
/// The server does not admit requests: the leader proxy's
/// OverloadController is the stack's one admission point. The wire keeps
/// only the checks that need wire state — items already past their
/// deadline are answered kDeadlineExceeded before any work, and arrivals
/// beyond max_pending are shed with `queue_overflow` — and every proxy
/// answer, sheds and their retry_after_ms hints included, travels in a
/// typed response frame (docs/operations.md). Workers may wait out the
/// proxy's admission queue; the event loop never blocks on a slot or a
/// key search.
///
/// One Explain path: a scalar EXPLAIN_REQUEST is a batch of one. Each is
/// queued and drained with whatever batchmates are waiting, and a drain
/// and a BATCH_EXPLAIN frame run the same executor (ExecuteExplains): an
/// already-expired item is answered kDeadlineExceeded up front, the rest
/// go to one ServingGroup::ExplainBatch.
///
/// Robustness contract (SUITE=net tortures it under ASan): a connection
/// that dies mid-frame, sends garbage, lies about body_len, or stalls a
/// frame forever (slow loris) is answered where possible and closed —
/// never crashes the loop, never leaks its fd, never blocks the tick.
///
/// Thread safety: Create/Start/Stop are for one owner thread. The loop
/// thread owns every connection; workers only touch the completion queue.
class NetServer {
 public:
  struct Options {
    /// Listen address. Port 0 binds an ephemeral port (see port()).
    std::string host = "127.0.0.1";
    uint16_t port = 0;

    /// Accepted connections beyond this are closed immediately
    /// (`cce_net_connections_closed_total{cause="overflow"}`).
    size_t max_connections = 1024;

    /// Frames whose body_len exceeds this are protocol errors: the server
    /// answers ERROR_RESPONSE and closes without ever buffering the body.
    uint32_t max_body_bytes = kDefaultMaxBodyBytes;

    /// Close a connection with no traffic for this long; 0 disables.
    std::chrono::milliseconds idle_timeout{30000};
    /// Close a connection that has held a *partial* frame (or partial
    /// HTTP header) this long without completing it — the slow-loris
    /// guard; 0 disables.
    std::chrono::milliseconds stalled_frame_timeout{5000};

    /// Worker threads executing requests against the serving group (the
    /// proxy's admission queue wait for expensive classes happens here,
    /// off the event loop).
    size_t worker_threads = 2;
    /// Requests allowed in flight between loop and workers; arrivals
    /// beyond it are shed at the wire with
    /// `cce_net_sheds_total{cause="queue_overflow"}` — the bound that
    /// keeps loop-to-worker memory finite under any flood.
    size_t max_pending = 256;
    /// retry_after_ms hint attached to queue_overflow sheds.
    std::chrono::milliseconds overflow_retry_after{5};

    /// Deadline applied to requests that carry deadline_ms = 0; 0 = none.
    uint32_t default_deadline_ms = 0;

    /// Upper bound on Explain items answered by one shared-read key
    /// search (docs/operations.md). Every EXPLAIN_REQUEST frame is queued,
    /// and a drain takes up to this many and executes them as one
    /// serving::ServingGroup::ExplainBatch — one proxy admission charge,
    /// one read of the shard indexes — so queue depth under a flood
    /// becomes batch throughput instead of sheds. A drain never waits for
    /// more, so an idle server adds no latency. At 1 each drain takes one
    /// request, a batch of one. BATCH_EXPLAIN frames are always executed
    /// as the client-formed batch regardless of this knob. Keys are
    /// bit-identical at any batch split.
    size_t max_explain_batch = 16;

    /// How long Stop() lets in-flight work and unflushed responses drain
    /// before closing connections.
    std::chrono::milliseconds drain_timeout{1000};

    /// Metric sink; null aliases the serving group's registry so one
    /// /metrics scrape exposes the whole stack.
    std::shared_ptr<obs::Registry> registry;
  };

  /// Point-in-time counters assembled from the registry cells (tests).
  struct Stats {
    uint64_t accepted = 0;
    uint64_t closed = 0;
    uint64_t open = 0;
    uint64_t requests = 0;
    uint64_t responses = 0;
    /// queue_overflow sheds; admission sheds are the proxy's
    /// (`cce_shed_total{cause}`).
    uint64_t sheds = 0;
    uint64_t protocol_errors = 0;
    uint64_t dropped_responses = 0;
    uint64_t metrics_scrapes = 0;
  };

  /// Binds and listens (so port() is valid immediately) and registers
  /// every cce_net_* instrument, but does not serve until Start().
  /// `group` is not owned and must outlive the server.
  static Result<std::unique_ptr<NetServer>> Create(
      serving::ServingGroup* group, const Options& options);

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Spawns the event-loop thread. FailedPrecondition if already started.
  Status Start();

  /// Drains (bounded by Options::drain_timeout) and stops the loop, then
  /// joins workers. Idempotent; also called by the destructor.
  void Stop();

  /// The bound port (resolves Options::port = 0).
  uint16_t port() const { return port_; }

  Stats GetStats() const;

  obs::Registry& registry() const { return *registry_; }
  serving::ServingGroup& group() const { return *group_; }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    /// Unparsed inbound bytes (frame fragments accumulate here).
    std::vector<uint8_t> in;
    /// Encoded, unwritten outbound bytes + write offset.
    std::string out;
    size_t out_off = 0;
    /// Responses coalesced into `out` since the last successful flush.
    uint32_t coalesced = 0;
    /// Requests dispatched to workers, not yet answered.
    uint32_t in_flight = 0;
    bool http = false;
    bool peer_closed = false;
    bool close_after_flush = false;
    /// Counter attribution when close_after_flush fires.
    const char* close_cause = nullptr;
    bool wants_writable = false;
    /// Already on this tick's flush list.
    bool dirty = false;
    std::chrono::steady_clock::time_point last_activity;
    /// Set while `in` holds a partial frame (slow-loris clock).
    std::chrono::steady_clock::time_point partial_since;
    bool has_partial = false;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;
    std::chrono::steady_clock::time_point started;
    /// A /healthz answer: written like a frame, but neither counted as a
    /// response nor timed as a request.
    bool http = false;
  };

  /// One scalar Explain parked in the micro-batch queue between its
  /// DispatchRequest and the worker drain that answers it.
  struct PendingExplain {
    uint64_t conn_id = 0;
    std::chrono::steady_clock::time_point started;
    uint64_t request_id = 0;
    serving::BatchQuery item;
  };

  NetServer(serving::ServingGroup* group, const Options& options);

  Status Listen();
  void InitInstruments();
  void LoopMain();

  void AcceptAll();
  void HandleReadable(Connection* conn);
  /// Decodes every complete frame buffered on `conn`; returns false when
  /// the connection was closed during parsing.
  bool ParseBuffer(Connection* conn);
  void HandleHttp(Connection* conn, const std::string& request_line);
  void DispatchRequest(Connection* conn, Request request);
  /// A request's deadline from its wire budget (0 = the server default).
  Deadline DeadlineFor(uint32_t deadline_ms) const;
  /// Runs on a worker: Predict, Record and Counterfactuals.
  Response ExecuteRequest(const Request& request, const Deadline& deadline);
  /// Runs on a worker: pops up to max_explain_batch queued Explains (one
  /// when it is 1) and answers them with one ExecuteExplains.
  void DrainExplainQueue();
  /// The one Explain executor, for a drain and a BATCH_EXPLAIN frame
  /// alike: answers already-expired items with kDeadlineExceeded before
  /// any work, runs the rest as one ServingGroup::ExplainBatch, and maps
  /// each result to its positional wire entry.
  std::vector<Response::BatchExplainItem> ExecuteExplains(
      std::vector<serving::BatchQuery> items);
  /// Encodes a worker's response and hands it to the loop.
  void Complete(uint64_t conn_id, std::chrono::steady_clock::time_point started,
                const Response& response);

  void QueueResponse(Connection* conn, const Response& response,
                     std::chrono::steady_clock::time_point started);
  void QueueError(Connection* conn, uint64_t request_id,
                  const Status& status);
  void QueueFrame(Connection* conn, std::string frame);
  void PushCompletion(Completion completion);
  void DrainCompletions();
  /// One write() of everything buffered; arms EPOLLOUT on a short write.
  void FlushConn(Connection* conn);
  void CloseConn(Connection* conn, const char* cause);
  void SweepStalled();
  void Wake();

  Connection* FindConn(int fd);

  serving::ServingGroup* group_;
  Options options_;
  std::shared_ptr<obs::Registry> registry_;
  std::unique_ptr<ThreadPool> workers_;
  std::unique_ptr<obs::ThreadPoolGauges> worker_gauges_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};

  /// Loop-thread state.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<uint64_t, int> conn_fd_by_id_;
  uint64_t next_conn_id_ = 1;
  std::vector<int> dirty_;
  uint32_t tick_dispatched_ = 0;
  std::chrono::steady_clock::time_point last_sweep_;

  /// Loop <-> worker handoff.
  std::mutex completions_mu_;
  std::deque<Completion> completions_;
  std::atomic<size_t> pending_{0};

  /// Scalar-Explain micro-batch queue (loop thread pushes, workers
  /// drain). Each push submits a drain task; a drain that finds the
  /// queue already emptied by a bigger batch is a no-op.
  std::mutex explain_mu_;
  std::deque<PendingExplain> explain_queue_;

  // Instruments (cells owned by registry_).
  obs::Counter* accepted_ = nullptr;
  obs::Counter* closed_client_ = nullptr;
  obs::Counter* closed_drain_ = nullptr;
  obs::Counter* closed_error_ = nullptr;
  obs::Counter* closed_idle_ = nullptr;
  obs::Counter* closed_overflow_ = nullptr;
  obs::Counter* closed_protocol_ = nullptr;
  obs::Counter* closed_stalled_ = nullptr;
  obs::Counter* requests_[4] = {};  // indexed by serving::RequestClass
  obs::Counter* responses_ = nullptr;
  obs::Counter* shed_overflow_ = nullptr;
  obs::Counter* proto_err_magic_ = nullptr;
  obs::Counter* proto_err_version_ = nullptr;
  obs::Counter* proto_err_type_ = nullptr;
  obs::Counter* proto_err_body_ = nullptr;
  obs::Counter* proto_err_oversized_ = nullptr;
  obs::Counter* proto_err_http_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* dropped_responses_ = nullptr;
  obs::Counter* metrics_scrapes_ = nullptr;
  obs::Gauge* open_connections_ = nullptr;
  obs::Histogram* tick_requests_ = nullptr;
  obs::Histogram* flush_batch_ = nullptr;
  obs::Histogram* request_latency_us_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
};

}  // namespace cce::net

#endif  // CCE_NET_SERVER_H_
