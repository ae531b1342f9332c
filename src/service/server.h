#ifndef PPR_SERVICE_SERVER_H_
#define PPR_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "service/protocol.h"
#include "service/service.h"

namespace ppr {

/// TCP front end of the resident query service (the pprd daemon): one
/// accept thread plus one thread per connection, speaking the
/// length-prefixed frame protocol of service/protocol.h.
///
/// A connection may pipeline requests: each kRequest frame is submitted
/// to the QueryService immediately, and each response (header, row
/// batches, trailer) is written atomically under the connection's write
/// mutex when its reply arrives — responses to pipelined requests never
/// interleave at the frame level, and every response frame echoes the
/// request id, so clients match replies back in any case.
///
/// Undecodable request frames are answered with a kInvalid reply (the
/// connection survives); a broken stream (short frame, oversized length
/// prefix) closes the connection — there is no way to resynchronize a
/// byte stream with a corrupt length.
///
/// Stop() is the graceful-drain sequence: close the listener (no new
/// connections), drain the service (every admitted request's reply is
/// written before its worker moves on), then shut down the remaining
/// sockets and join the connection threads. Telemetry artifacts flush
/// inside QueryService::Drain.
struct ServerConfig {
  /// Listen address; the reference daemon is a loopback tool.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back via port()).
  int port = 0;
};

class ServiceServer {
 public:
  /// `service` must outlive the server.
  ServiceServer(QueryService* service, ServerConfig config);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and starts the accept thread. Bind errors carry the
  /// attempted address and the OS error.
  Status Start();

  /// Graceful drain (see class comment). Idempotent.
  void Stop();

  /// The bound port (after Start).
  int port() const { return port_; }

  int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_acquire);
  }
  /// Responses whose socket write failed (client hung up mid-reply).
  int64_t write_errors() const {
    return write_errors_.load(std::memory_order_acquire);
  }

 private:
  /// One live connection. The fd is owned here and closed exactly once,
  /// in the destructor — reply callbacks hold the Conn alive via
  /// shared_ptr, so a worker finishing after the connection thread exits
  /// still writes to a valid (if shut-down) descriptor, never to a
  /// recycled fd number.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    const int fd;
    Mutex write_mu;
    /// Set by the connection thread as its last step: the thread is
    /// about to exit and may be joined without blocking.
    std::atomic<bool> finished{false};
  };

  /// A connection and the thread serving it.
  struct ConnThread {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  void AcceptLoop();
  void ConnLoop(const std::shared_ptr<Conn>& conn);
  /// Serializes one reply (header, batches, trailer) and writes it under
  /// the connection's write mutex.
  void WriteReply(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                  const ServiceReply& reply);

  QueryService* const service_;
  const ServerConfig config_;
  int port_ = 0;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> write_errors_{0};

  Mutex mu_;
  bool stopped_ GUARDED_BY(mu_) = false;
  /// Live connections; finished ones are reaped at the next accept.
  std::vector<ConnThread> conns_ GUARDED_BY(mu_);
};

}  // namespace ppr

#endif  // PPR_SERVICE_SERVER_H_
