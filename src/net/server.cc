#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/exposition.h"
#include "serving/overload.h"

namespace cce::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Responses buffered for one connection beyond this mean the peer has
/// stopped reading while still pumping requests; the connection is cut
/// rather than letting it grow the heap.
constexpr size_t kMaxOutBuffer = 32u << 20;

/// Largest HTTP request head the /metrics path will buffer.
constexpr size_t kMaxHttpHeader = 8192;

/// Bytes read per read() call on the loop; a connection gets at most four
/// per tick.
constexpr size_t kReadChunk = 64 * 1024;

serving::RequestClass ClassFor(MessageType type) {
  switch (type) {
    case MessageType::kPredictRequest:
      return serving::RequestClass::kPredict;
    case MessageType::kRecordRequest:
      return serving::RequestClass::kRecord;
    case MessageType::kExplainRequest:
    case MessageType::kBatchExplainRequest:
      return serving::RequestClass::kExplain;
    default:
      return serving::RequestClass::kCounterfactuals;
  }
}

/// request_id straight off the wire, even when the header fails
/// validation — error frames echo whatever the client sent there.
uint64_t RawRequestId(const uint8_t* frame) {
  uint64_t id = 0;
  for (int i = 7; i >= 0; --i) id = (id << 8) | frame[8 + i];
  return id;
}

/// Fills the failure prefix (status, cause, retry_after_ms hint) of a
/// scalar response or a BATCH_EXPLAIN entry.
template <typename Answer>
void SetFailure(const Status& status, Answer* answer) {
  answer->status = WireStatusFromCode(status.code());
  answer->message = status.message();
  const int64_t hint = serving::ParseRetryAfterMs(status);
  if (hint >= 0) answer->retry_after_ms = static_cast<uint32_t>(hint);
}

/// One HTTP/1.0 answer; the connection closes after it.
std::string HttpResponse(const std::string& status_line,
                         const std::string& content_type,
                         const std::string& body) {
  return status_line + "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

}  // namespace

NetServer::NetServer(serving::ServingGroup* group, const Options& options)
    : group_(group), options_(options) {
  registry_ = options_.registry != nullptr
                  ? options_.registry
                  : std::shared_ptr<obs::Registry>(std::shared_ptr<void>(),
                                                   &group_->registry());
  workers_ =
      std::make_unique<ThreadPool>(std::max<size_t>(1, options_.worker_threads));
  worker_gauges_ = std::make_unique<obs::ThreadPoolGauges>(
      registry_.get(), workers_.get(), "net_exec");
}

Result<std::unique_ptr<NetServer>> NetServer::Create(
    serving::ServingGroup* group, const Options& options) {
  if (group == nullptr) {
    return Status::InvalidArgument("NetServer requires a serving group");
  }
  std::unique_ptr<NetServer> server(new NetServer(group, options));
  server->InitInstruments();
  CCE_RETURN_IF_ERROR(server->Listen());
  return server;
}

NetServer::~NetServer() { Stop(); }

void NetServer::InitInstruments() {
  obs::Registry* reg = registry_.get();
  accepted_ = reg->GetCounter("cce_net_connections_accepted_total",
                              "TCP connections accepted by the front end");
  auto closed = [&](const char* cause) {
    return reg->GetCounter("cce_net_connections_closed_total",
                           "Connections closed, by cause",
                           {{"cause", cause}});
  };
  closed_client_ = closed("client");
  closed_drain_ = closed("drain");
  closed_error_ = closed("error");
  closed_idle_ = closed("idle");
  closed_overflow_ = closed("overflow");
  closed_protocol_ = closed("protocol");
  closed_stalled_ = closed("stalled");
  for (int i = 0; i < 4; ++i) {
    requests_[i] = reg->GetCounter(
        "cce_net_requests_total", "Decoded wire requests, by class",
        {{"class",
          serving::RequestClassName(static_cast<serving::RequestClass>(i))}});
  }
  responses_ = reg->GetCounter("cce_net_responses_total",
                               "Response frames queued to the wire");
  shed_overflow_ = reg->GetCounter("cce_net_sheds_total",
                                   "Requests shed at the wire, by cause",
                                   {{"cause", "queue_overflow"}});
  auto proto = [&](const char* cause) {
    return reg->GetCounter("cce_net_protocol_errors_total",
                           "Malformed frames / streams, by cause",
                           {{"cause", cause}});
  };
  proto_err_magic_ = proto("magic");
  proto_err_version_ = proto("version");
  proto_err_type_ = proto("type");
  proto_err_body_ = proto("body");
  proto_err_oversized_ = proto("oversized");
  proto_err_http_ = proto("http");
  bytes_read_ =
      reg->GetCounter("cce_net_bytes_read_total", "Bytes read from sockets");
  bytes_written_ = reg->GetCounter("cce_net_bytes_written_total",
                                   "Bytes written to sockets");
  dropped_responses_ =
      reg->GetCounter("cce_net_dropped_responses_total",
                      "Responses whose connection closed before delivery");
  metrics_scrapes_ = reg->GetCounter("cce_net_metrics_scrapes_total",
                                     "HTTP GET /metrics requests served");
  open_connections_ =
      reg->GetGauge("cce_net_open_connections", "Connections currently open");
  tick_requests_ =
      reg->GetHistogram("cce_net_tick_requests",
                        "Requests decoded per event-loop tick (busy ticks)");
  flush_batch_ = reg->GetHistogram(
      "cce_net_flush_frames", "Response frames coalesced into one flush");
  request_latency_us_ = reg->GetHistogram(
      "cce_net_request_latency_us",
      "Decode-to-response-queued latency, microseconds");
  batch_size_ = reg->GetHistogram(
      "cce_batch_size",
      "Explain items answered per shared-read batch execution (scalar "
      "drains and BATCH_EXPLAIN frames)");
}

Status NetServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 256) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IoError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IoError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

Status NetServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  loop_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

void NetServer::Stop() {
  if (stopped_.exchange(true)) return;
  if (started_.load()) {
    stop_requested_.store(true);
    Wake();
    loop_.join();
  }
  // Gauges read the pool, so unbind before the pool dies; the pool
  // destructor drains in-flight work, which may still Wake() — the
  // eventfd therefore closes last.
  worker_gauges_.reset();
  workers_.reset();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void NetServer::Wake() {
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

NetServer::Connection* NetServer::FindConn(int fd) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second.get();
}

void NetServer::LoopMain() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  last_sweep_ = Clock::now();
  bool draining = false;
  Clock::time_point drain_deadline{};
  while (true) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, draining ? 5 : 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    tick_dispatched_ = 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        if (!draining) AcceptAll();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t tmp;
        while (::read(wake_fd_, &tmp, sizeof(tmp)) > 0) {
        }
        continue;
      }
      Connection* conn = FindConn(fd);
      if (conn == nullptr) continue;  // closed earlier this tick
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        CloseConn(conn, "error");
        continue;
      }
      if ((ev & EPOLLIN) != 0) {
        HandleReadable(conn);
        conn = FindConn(fd);
        if (conn == nullptr) continue;
      }
      if ((ev & EPOLLOUT) != 0) FlushConn(conn);
    }
    DrainCompletions();
    if (tick_dispatched_ > 0) tick_requests_->Observe(tick_dispatched_);
    // The batched write: one flush per connection touched this tick.
    for (int fd : dirty_) {
      Connection* conn = FindConn(fd);
      if (conn != nullptr && conn->dirty) FlushConn(conn);
    }
    dirty_.clear();
    SweepStalled();
    if (stop_requested_.load() && !draining) {
      draining = true;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      drain_deadline = Clock::now() + options_.drain_timeout;
    }
    if (draining) {
      bool quiesced = pending_.load() == 0;
      if (quiesced) {
        std::lock_guard<std::mutex> lock(completions_mu_);
        quiesced = completions_.empty();
      }
      if (quiesced) {
        for (const auto& [fd, conn] : conns_) {
          if (conn->out_off < conn->out.size()) {
            quiesced = false;
            break;
          }
        }
      }
      if (quiesced || Clock::now() >= drain_deadline) break;
    }
  }
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    Connection* conn = FindConn(fd);
    if (conn != nullptr) CloseConn(conn, "drain");
  }
}

void NetServer::AcceptAll() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try next tick
    }
    accepted_->Increment();
    if (conns_.size() >= options_.max_connections) {
      ::close(fd);
      closed_overflow_->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      closed_error_->Increment();
      continue;
    }
    conn_fd_by_id_[conn->id] = fd;
    conns_[fd] = std::move(conn);
    open_connections_->Add(1);
  }
}

void NetServer::CloseConn(Connection* conn, const char* cause) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  open_connections_->Add(-1);
  obs::Counter* counter = closed_client_;
  if (std::strcmp(cause, "drain") == 0) counter = closed_drain_;
  else if (std::strcmp(cause, "error") == 0) counter = closed_error_;
  else if (std::strcmp(cause, "idle") == 0) counter = closed_idle_;
  else if (std::strcmp(cause, "protocol") == 0) counter = closed_protocol_;
  else if (std::strcmp(cause, "stalled") == 0) counter = closed_stalled_;
  counter->Increment();
  conn_fd_by_id_.erase(conn->id);
  conn->dirty = false;
  conns_.erase(conn->fd);  // destroys *conn
}

void NetServer::HandleReadable(Connection* conn) {
  if (conn->close_after_flush) {
    // Stream already condemned: drain the socket so epoll quiets down,
    // discard the bytes.
    char scratch[4096];
    while (::read(conn->fd, scratch, sizeof(scratch)) > 0) {
    }
    return;
  }
  // Bounded read budget per tick; level-triggered epoll re-arms for the
  // remainder, so one firehose client cannot monopolise a tick.
  size_t budget = kReadChunk * 4;
  bool eof = false;
  while (budget > 0) {
    const size_t chunk = std::min(kReadChunk, budget);
    const size_t old = conn->in.size();
    conn->in.resize(old + chunk);
    ssize_t n = ::read(conn->fd, conn->in.data() + old, chunk);
    if (n > 0) {
      conn->in.resize(old + static_cast<size_t>(n));
      bytes_read_->Add(static_cast<uint64_t>(n));
      budget -= static_cast<size_t>(n);
      if (static_cast<size_t>(n) < chunk) break;  // socket drained
      continue;
    }
    conn->in.resize(old);
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn, "error");
    return;
  }
  const Clock::time_point now = Clock::now();
  conn->last_activity = now;
  if (!ParseBuffer(conn)) return;  // closed during parsing
  if (!conn->in.empty()) {
    if (!conn->has_partial) {
      conn->has_partial = true;
      conn->partial_since = now;
    }
  } else {
    conn->has_partial = false;
  }
  if (eof) {
    conn->peer_closed = true;
    // Half-close: the peer may still be reading; deliver what is owed,
    // then FlushConn closes when nothing is in flight or buffered.
    if (conn->in_flight == 0 && conn->out_off >= conn->out.size()) {
      CloseConn(conn, "client");
    }
  }
}

bool NetServer::ParseBuffer(Connection* conn) {
  if (!conn->http && conn->in.size() >= 4 &&
      std::memcmp(conn->in.data(), "GET ", 4) == 0) {
    conn->http = true;
  }
  if (conn->http) {
    static const char kHeaderEnd[] = "\r\n\r\n";
    auto end = std::search(conn->in.begin(), conn->in.end(), kHeaderEnd,
                           kHeaderEnd + 4);
    if (end == conn->in.end()) {
      if (conn->in.size() > kMaxHttpHeader) {
        proto_err_http_->Increment();
        CloseConn(conn, "protocol");
        return false;
      }
      return true;  // wait for the rest of the head
    }
    auto eol = std::find(conn->in.begin(), conn->in.end(), '\r');
    std::string request_line(conn->in.begin(), eol);
    conn->in.clear();
    HandleHttp(conn, request_line);
    return true;
  }
  size_t off = 0;
  bool condemned = false;
  while (conn->in.size() - off >= kFrameHeaderBytes) {
    const uint8_t* frame = conn->in.data() + off;
    FrameHeader header;
    Status header_status =
        DecodeFrameHeader(frame, kFrameHeaderBytes, &header);
    if (!header_status.ok()) {
      (header_status.code() == StatusCode::kUnimplemented
           ? proto_err_version_
           : proto_err_magic_)
          ->Increment();
      QueueError(conn, RawRequestId(frame), header_status);
      condemned = true;
      break;
    }
    if (header.body_len > options_.max_body_bytes) {
      proto_err_oversized_->Increment();
      QueueError(conn, header.request_id,
                 Status::InvalidArgument("frame body exceeds limit"));
      condemned = true;
      break;
    }
    if (conn->in.size() - off < kFrameHeaderBytes + header.body_len) break;
    const MessageType type = static_cast<MessageType>(header.type);
    if (!IsRequestType(type)) {
      proto_err_type_->Increment();
      QueueError(conn, header.request_id,
                 Status::InvalidArgument("not a request message type"));
      condemned = true;
      break;
    }
    Request request;
    Status body_status =
        DecodeRequestBody(header, frame + kFrameHeaderBytes, &request);
    if (!body_status.ok()) {
      proto_err_body_->Increment();
      QueueError(conn, header.request_id, body_status);
      condemned = true;
      break;
    }
    off += kFrameHeaderBytes + header.body_len;
    DispatchRequest(conn, std::move(request));
  }
  if (condemned) {
    // The stream is desynced; answer what we could parse, then close.
    conn->in.clear();
    conn->close_after_flush = true;
    conn->close_cause = "protocol";
  } else if (off > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(off));
  }
  return true;
}

void NetServer::HandleHttp(Connection* conn, const std::string& request_line) {
  std::string method;
  std::string path;
  const size_t sp1 = request_line.find(' ');
  if (sp1 != std::string::npos) {
    method = request_line.substr(0, sp1);
    const size_t sp2 = request_line.find(' ', sp1 + 1);
    path = request_line.substr(sp1 + 1, sp2 == std::string::npos
                                            ? std::string::npos
                                            : sp2 - sp1 - 1);
  }
  conn->close_after_flush = true;
  conn->close_cause = "client";
  if (method == "GET" && path == "/healthz") {
    // The probe takes backend locks that a Predict or a Record can hold
    // for a long time, so it runs on a worker like any request: counted
    // in flight, so drain waits for it and FlushConn closes only after
    // the answer is written.
    pending_.fetch_add(1, std::memory_order_relaxed);
    ++conn->in_flight;
    workers_->Submit([this, conn_id = conn->id] {
      std::string out = HttpResponse(
          "HTTP/1.0 200 OK", "text/plain; charset=utf-8",
          group_->Health().fully_healthy ? "ok\n" : "degraded\n");
      pending_.fetch_sub(1, std::memory_order_relaxed);
      PushCompletion({conn_id, std::move(out), {}, /*http=*/true});
    });
    return;
  }
  std::string status_line = "HTTP/1.0 200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status_line = "HTTP/1.0 405 Method Not Allowed";
    body = "only GET is supported\n";
  } else if (path == "/metrics") {
    metrics_scrapes_->Increment();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = obs::RenderPrometheusText(*registry_);
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "not found (try /metrics or /healthz)\n";
  }
  QueueFrame(conn, HttpResponse(status_line, content_type, body));
}

Deadline NetServer::DeadlineFor(uint32_t deadline_ms) const {
  if (deadline_ms == 0) deadline_ms = options_.default_deadline_ms;
  return deadline_ms != 0
             ? Deadline::After(std::chrono::milliseconds(deadline_ms))
             : Deadline::Infinite();
}

void NetServer::DispatchRequest(Connection* conn, Request request) {
  ++tick_dispatched_;
  const serving::RequestClass cls = ClassFor(request.type);
  requests_[static_cast<int>(cls)]->Increment();
  const Clock::time_point started = Clock::now();
  // Deadlines start at dispatch, a BATCH_EXPLAIN item's too.
  const Deadline deadline = DeadlineFor(request.deadline_ms);
  if (pending_.load(std::memory_order_relaxed) >= options_.max_pending) {
    shed_overflow_->Increment();
    Response shed;
    shed.type = ResponseTypeFor(request.type);
    shed.request_id = request.request_id;
    SetFailure(Status::ResourceExhausted("dispatch queue full"), &shed);
    shed.retry_after_ms =
        static_cast<uint32_t>(options_.overflow_retry_after.count());
    QueueResponse(conn, shed, started);
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  ++conn->in_flight;
  const uint64_t conn_id = conn->id;
  if (request.type == MessageType::kExplainRequest) {
    // Every scalar Explain is parked in the micro-batch queue instead of
    // binding to its own worker task: the drain that answers it takes
    // every batchmate queued behind it, so a flood's queue depth becomes
    // shared-read throughput instead of per-request searches.
    {
      std::lock_guard<std::mutex> lock(explain_mu_);
      explain_queue_.push_back(
          {conn_id, started, request.request_id,
           {std::move(request.instance), request.label, deadline}});
    }
    workers_->Submit([this] { DrainExplainQueue(); });
    return;
  }
  if (request.type == MessageType::kBatchExplainRequest) {
    std::vector<serving::BatchQuery> items;
    items.reserve(request.batch.size());
    for (Request::BatchItem& item : request.batch) {
      items.push_back({std::move(item.instance), item.label,
                       DeadlineFor(item.deadline_ms)});
    }
    workers_->Submit([this, conn_id, started, request_id = request.request_id,
                      items = std::move(items)]() mutable {
      Response response;
      response.type = MessageType::kBatchExplainResponse;
      response.request_id = request_id;
      response.batch = ExecuteExplains(std::move(items));
      Complete(conn_id, started, response);
    });
    return;
  }
  workers_->Submit(
      [this, conn_id, started, deadline, request = std::move(request)] {
        Complete(conn_id, started, ExecuteRequest(request, deadline));
      });
}

void NetServer::Complete(uint64_t conn_id, Clock::time_point started,
                         const Response& response) {
  std::string frame = EncodeResponse(response);
  pending_.fetch_sub(1, std::memory_order_relaxed);
  PushCompletion({conn_id, std::move(frame), started});
}

void NetServer::DrainExplainQueue() {
  std::vector<PendingExplain> batch;
  {
    std::lock_guard<std::mutex> lock(explain_mu_);
    if (explain_queue_.empty()) return;  // a bigger drain already took it
    const size_t take =
        std::min(std::max<size_t>(1, options_.max_explain_batch),
                 explain_queue_.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(explain_queue_.front()));
      explain_queue_.pop_front();
    }
  }
  std::vector<serving::BatchQuery> items;
  items.reserve(batch.size());
  for (PendingExplain& pending : batch) {
    items.push_back(std::move(pending.item));
  }
  std::vector<Response::BatchExplainItem> answers =
      ExecuteExplains(std::move(items));
  for (size_t i = 0; i < batch.size(); ++i) {
    Response::BatchExplainItem& answer = answers[i];
    Response response;
    response.type = MessageType::kExplainResponse;
    response.request_id = batch[i].request_id;
    response.status = answer.status;
    response.retry_after_ms = answer.retry_after_ms;
    response.message = std::move(answer.message);
    response.flags = answer.flags;
    response.achieved_alpha = answer.achieved_alpha;
    response.view_seq = answer.view_seq;
    response.backend = answer.backend;
    response.key = std::move(answer.key);
    Complete(batch[i].conn_id, batch[i].started, response);
  }
}

std::vector<Response::BatchExplainItem> NetServer::ExecuteExplains(
    std::vector<serving::BatchQuery> items) {
  std::vector<Response::BatchExplainItem> answers(items.size());
  batch_size_->Observe(static_cast<int64_t>(items.size()));
  // An item whose budget is already spent is a deadline miss, answered
  // before any work: the proxy never admits, sheds or charges it. The
  // live items keep their order at the front of `items`.
  std::vector<size_t> live;
  live.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].deadline.expired()) {
      SetFailure(Status::DeadlineExceeded("deadline expired before execution"),
                 &answers[i]);
      continue;
    }
    if (live.size() != i) items[live.size()] = std::move(items[i]);
    live.push_back(i);
  }
  if (live.empty()) return answers;
  items.resize(live.size());
  std::vector<Result<serving::ServingGroup::ExplainResult>> results =
      group_->ExplainBatch(items);
  for (size_t j = 0; j < live.size(); ++j) {
    Response::BatchExplainItem& answer = answers[live[j]];
    if (!results[j].ok()) {
      SetFailure(results[j].status(), &answer);
      continue;
    }
    serving::ServingGroup::ExplainResult& explained = results[j].value();
    answer.status = WireStatus::kOk;
    answer.flags = (explained.key.degraded ? kFlagDegraded : 0) |
                   (explained.key.cached ? kFlagCached : 0) |
                   (explained.hedged ? kFlagHedged : 0) |
                   (explained.key.satisfied ? 0 : kFlagUnsatisfied);
    answer.achieved_alpha = explained.key.achieved_alpha;
    answer.view_seq = explained.view_seq;
    answer.backend = static_cast<uint32_t>(explained.backend);
    answer.key = std::move(explained.key.key);
  }
  return answers;
}

Response NetServer::ExecuteRequest(const Request& request,
                                   const Deadline& deadline) {
  Response response;
  response.type = ResponseTypeFor(request.type);
  response.request_id = request.request_id;
  if (deadline.expired()) {
    SetFailure(Status::DeadlineExceeded("deadline expired before execution"),
               &response);
    return response;
  }
  switch (request.type) {
    case MessageType::kPredictRequest: {
      Result<Label> result = group_->Predict(request.instance, deadline);
      if (!result.ok()) {
        SetFailure(result.status(), &response);
        return response;
      }
      response.label = result.value();
      break;
    }
    case MessageType::kRecordRequest: {
      Status status = group_->Record(request.instance, request.label);
      if (!status.ok()) {
        SetFailure(status, &response);
        return response;
      }
      break;
    }
    case MessageType::kCounterfactualsRequest: {
      auto result = group_->Counterfactuals(request.instance, request.label,
                                            deadline);
      if (!result.ok()) {
        SetFailure(result.status(), &response);
        return response;
      }
      response.witnesses.reserve(result.value().size());
      for (const RelativeCounterfactual& witness : result.value()) {
        response.witnesses.push_back({witness.witness_row,
                                      witness.witness_label,
                                      witness.changed_features});
      }
      break;
    }
    default:
      SetFailure(Status::Internal("non-request type dispatched"), &response);
      return response;
  }
  response.status = WireStatus::kOk;
  return response;
}

void NetServer::QueueFrame(Connection* conn, std::string frame) {
  conn->out.append(frame);
  ++conn->coalesced;
  if (!conn->dirty) {
    conn->dirty = true;
    dirty_.push_back(conn->fd);
  }
}

void NetServer::QueueResponse(Connection* conn, const Response& response,
                              Clock::time_point started) {
  QueueFrame(conn, EncodeResponse(response));
  responses_->Increment();
  request_latency_us_->Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            started)
          .count());
}

void NetServer::QueueError(Connection* conn, uint64_t request_id,
                           const Status& status) {
  Response response;
  response.type = MessageType::kErrorResponse;
  response.request_id = request_id;
  response.status = WireStatusFromCode(status.code());
  response.message = status.message();
  QueueResponse(conn, response, Clock::now());
}

void NetServer::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  Wake();
}

void NetServer::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conn_fd_by_id_.find(completion.conn_id);
    Connection* conn =
        it == conn_fd_by_id_.end() ? nullptr : FindConn(it->second);
    if (conn == nullptr) {
      dropped_responses_->Increment();
      continue;
    }
    if (conn->in_flight > 0) --conn->in_flight;
    QueueFrame(conn, std::move(completion.frame));
    if (completion.http) continue;
    responses_->Increment();
    request_latency_us_->Observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - completion.started)
            .count());
  }
}

void NetServer::FlushConn(Connection* conn) {
  conn->dirty = false;
  if (conn->out.size() - conn->out_off > kMaxOutBuffer) {
    CloseConn(conn, "error");  // peer pumps requests but never reads
    return;
  }
  while (conn->out_off < conn->out.size()) {
    // MSG_NOSIGNAL: a peer that resets mid-flush must surface as EPIPE
    // on this connection, not SIGPIPE the whole server.
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                       conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      bytes_written_->Add(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->wants_writable) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
        conn->wants_writable = true;
      }
      return;
    }
    CloseConn(conn, conn->peer_closed ? "client" : "error");
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->coalesced > 0) {
    flush_batch_->Observe(conn->coalesced);
    conn->coalesced = 0;
  }
  if (conn->wants_writable) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->wants_writable = false;
  }
  if (conn->in_flight == 0 && (conn->close_after_flush || conn->peer_closed)) {
    CloseConn(conn, conn->close_cause != nullptr ? conn->close_cause
                                                 : "client");
  }
}

void NetServer::SweepStalled() {
  const Clock::time_point now = Clock::now();
  if (now - last_sweep_ < std::chrono::milliseconds(100)) return;
  last_sweep_ = now;
  std::vector<std::pair<int, const char*>> doomed;
  for (const auto& [fd, conn] : conns_) {
    if (options_.stalled_frame_timeout.count() > 0 && conn->has_partial &&
        now - conn->partial_since >= options_.stalled_frame_timeout) {
      doomed.emplace_back(fd, "stalled");
      continue;
    }
    if (options_.idle_timeout.count() > 0 && conn->in_flight == 0 &&
        conn->out_off >= conn->out.size() &&
        now - conn->last_activity >= options_.idle_timeout) {
      doomed.emplace_back(fd, "idle");
    }
  }
  for (const auto& [fd, cause] : doomed) {
    Connection* conn = FindConn(fd);
    if (conn != nullptr) CloseConn(conn, cause);
  }
}

NetServer::Stats NetServer::GetStats() const {
  Stats stats;
  stats.accepted = accepted_->Value();
  stats.closed = closed_client_->Value() + closed_drain_->Value() +
                 closed_error_->Value() + closed_idle_->Value() +
                 closed_overflow_->Value() + closed_protocol_->Value() +
                 closed_stalled_->Value();
  stats.open = static_cast<uint64_t>(open_connections_->Value());
  for (const obs::Counter* counter : requests_) {
    stats.requests += counter->Value();
  }
  stats.responses = responses_->Value();
  stats.sheds = shed_overflow_->Value();
  stats.protocol_errors = proto_err_magic_->Value() +
                          proto_err_version_->Value() +
                          proto_err_type_->Value() + proto_err_body_->Value() +
                          proto_err_oversized_->Value() +
                          proto_err_http_->Value();
  stats.dropped_responses = dropped_responses_->Value();
  stats.metrics_scrapes = metrics_scrapes_->Value();
  return stats;
}

}  // namespace cce::net
