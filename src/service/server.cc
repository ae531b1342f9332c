#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

namespace ppr {

ServiceServer::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

ServiceServer::ServiceServer(QueryService* service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}

ServiceServer::~ServiceServer() { Stop(); }

Status ServiceServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  // SO_REUSEADDR: a restarted daemon must rebind its port without
  // waiting out TIME_WAIT sockets from the previous instance.
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable listen address " +
                                   config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind failed for " + config_.host + ":" +
                            std::to_string(config_.port) + ": " + detail);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen failed for " + config_.host + ":" +
                            std::to_string(config_.port) + ": " + detail);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = config_.port;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ServiceServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down; anything else is equally terminal
      // for the accept loop (the daemon keeps serving open connections).
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Request/response frames are small; Nagle + delayed ACK would add
    // ~40ms per round trip for nothing.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_acq_rel);
    auto conn = std::make_shared<Conn>(fd);
    // Reap the connections that finished since the last accept: their
    // threads are joined below, outside mu_, and each fd closes with its
    // Conn's last reference.
    std::vector<ConnThread> finished;
    {
      MutexLock lock(mu_);
      const auto done = std::partition(
          conns_.begin(), conns_.end(), [](const ConnThread& c) {
            return !c.conn->finished.load(std::memory_order_acquire);
          });
      finished.assign(std::make_move_iterator(done),
                      std::make_move_iterator(conns_.end()));
      conns_.erase(done, conns_.end());
      conns_.push_back({conn, std::thread([this, conn] {
                          ConnLoop(conn);
                          conn->finished.store(true, std::memory_order_release);
                        })});
    }
    for (ConnThread& c : finished) c.thread.join();
  }
}

void ServiceServer::ConnLoop(const std::shared_ptr<Conn>& conn) {
  while (true) {
    Result<std::string> body = RecvFrame(conn->fd);
    if (!body.ok()) {
      // Clean EOF between frames (NotFound), a shutdown during Stop, or
      // an unrecoverable framing error — all end the connection.
      return;
    }
    Result<Frame> frame = DecodeFrameBody(*body);
    if (!frame.ok()) {
      // Framing was intact (the length prefix was), so the stream is
      // still synchronized: answer kInvalid and keep serving.
      ServiceReply reply;
      reply.status = ServiceStatus::kInvalid;
      reply.detail = frame.status();
      WriteReply(conn, 0, reply);
      continue;
    }
    if (frame->type != FrameType::kRequest) {
      ServiceReply reply;
      reply.status = ServiceStatus::kInvalid;
      reply.detail = Status::InvalidArgument(
          "expected a request frame, got type " +
          std::to_string(static_cast<int>(frame->type)));
      WriteReply(conn, frame->request_id, reply);
      continue;
    }
    Result<ServiceRequest> request =
        DecodeRequestPayload(frame->payload, frame->request_id);
    if (!request.ok()) {
      ServiceReply reply;
      reply.status = ServiceStatus::kInvalid;
      reply.detail = request.status();
      WriteReply(conn, frame->request_id, reply);
      continue;
    }
    const uint64_t request_id = request->request_id;
    // The reply callback may run on a worker thread (admitted) or inline
    // on this thread (refused); `conn` rides in the closure, keeping the
    // fd alive until the last reply is written.
    service_->Submit(*request, [this, conn, request_id](ServiceReply reply) {
      WriteReply(conn, request_id, reply);
    });
  }
}

void ServiceServer::WriteReply(const std::shared_ptr<Conn>& conn,
                               uint64_t request_id,
                               const ServiceReply& reply) {
  ReplyHeader header;
  header.status = reply.status;
  header.status_code = static_cast<int32_t>(reply.detail.code());
  header.cache_hit = reply.cache_hit;
  header.predicted_width = reply.predicted_width;
  header.message = reply.detail.message();
  const bool rows = reply.ok() && reply.output.arity() > 0;
  if (rows) {
    const Schema& schema = reply.output.schema();
    header.attrs.reserve(static_cast<size_t>(schema.arity()));
    for (int c = 0; c < schema.arity(); ++c) {
      header.attrs.push_back(schema.attr(c));
    }
  }
  ReplyTrailer trailer;
  trailer.nonempty = reply.ok() && !reply.output.empty();
  trailer.tuples_produced = static_cast<int64_t>(reply.stats.tuples_produced);
  trailer.max_intermediate_rows =
      static_cast<int64_t>(reply.stats.max_intermediate_rows);
  trailer.peak_bytes = static_cast<int64_t>(reply.stats.peak_bytes);
  trailer.max_arity = reply.stats.max_intermediate_arity;
  trailer.num_joins = static_cast<int64_t>(reply.stats.num_joins);
  trailer.num_projections =
      static_cast<int64_t>(reply.stats.num_projections);
  trailer.num_semijoins = static_cast<int64_t>(reply.stats.num_semijoins);
  trailer.wall_ns = reply.wall_ns;
  trailer.queue_ns = reply.queue_ns;

  // One lock across the whole response: frames of pipelined replies
  // never interleave.
  MutexLock lock(conn->write_mu);
  Status sent = SendFrame(conn->fd, EncodeReplyHeaderFrame(request_id, header));
  if (sent.ok() && rows) {
    const int64_t total = reply.output.size();
    for (int64_t first = 0; sent.ok() && first < total;
         first += kRowBatchRows) {
      const int64_t count = std::min<int64_t>(kRowBatchRows, total - first);
      sent = SendFrame(conn->fd,
                       EncodeRowBatchFrame(request_id, reply.output, first,
                                           count));
    }
  }
  if (sent.ok()) {
    sent = SendFrame(conn->fd, EncodeTrailerFrame(request_id, trailer));
  }
  if (!sent.ok()) write_errors_.fetch_add(1, std::memory_order_acq_rel);
}

void ServiceServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);

  // 1. No new connections: shut the listener down and join the acceptor.
  if (listen_fd_ >= 0) (void)::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain the service: connection threads may still submit (answered
  // kShuttingDown inline); every admitted request's reply is written by
  // its worker before Drain returns, and telemetry artifacts flush.
  service_->Drain();

  // 3. Unblock connection threads stuck in recv and join them. The Conn
  // objects (and their fds) die with the last shared_ptr.
  std::vector<ConnThread> conns;
  {
    MutexLock lock(mu_);
    conns.swap(conns_);
  }
  for (const ConnThread& c : conns) (void)::shutdown(c.conn->fd, SHUT_RDWR);
  for (ConnThread& c : conns) {
    if (c.thread.joinable()) c.thread.join();
  }
}

}  // namespace ppr
