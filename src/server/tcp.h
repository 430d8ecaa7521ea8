// TCP loopback listener for hartd: accepts connections on 127.0.0.1, reads
// length-prefixed request frames (proto.h), submits them to the service,
// and writes responses back as their shard acks complete (out of order
// across shards; clients correlate by request id). Responses produced while
// one received chunk is parsed leave in a single write.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "server/hartd.h"

namespace hart::server {

class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-chosen ephemeral port, see
  /// port()) and starts the accept loop. Throws on bind failure.
  TcpServer(Hartd& db, uint16_t port);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }

  /// Stop accepting, shut down every connection, join all threads. Safe to
  /// call before or after Hartd::shutdown; pending acks that arrive after
  /// a connection closed are dropped. Idempotent.
  void stop();

 private:
  // Shared with in-flight ack callbacks: a response writer takes write_mu
  // and checks `open` before using fd, so a closed (possibly reused)
  // descriptor is never written.
  //
  // Responses are coalesced: while serve() parses the frames of one
  // recv() chunk (`holding`), every response -- inline fast-path answers,
  // protocol errors, and shard acks that land meanwhile -- is encoded
  // into `out`, and the chunk's end flushes `out` with one send. A
  // response that arrives while nothing is held goes out at once.
  struct Conn {
    int fd = -1;
    common::Mutex write_mu;
    bool open GUARDED_BY(write_mu) = true;
    bool holding GUARDED_BY(write_mu) = false;
    std::string out GUARDED_BY(write_mu);
    /// Set by the connection's thread once serve() returned and the fd is
    /// closed; the accept loop then joins the thread.
    std::atomic<bool> finished{false};
  };
  struct ConnThread {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  void accept_loop();
  void serve(const std::shared_ptr<Conn>& conn);
  /// Join the threads of connections whose serve() has returned.
  void reap_finished();
  static void respond(Conn& conn, uint64_t id, const Response& resp);
  /// Start holding responses for the chunk being parsed.
  static void hold(Conn& conn);
  /// Stop holding and send everything held in one write.
  static void flush(Conn& conn);
  /// Send and clear everything in `out`.
  static void write_out(Conn& conn) REQUIRES(conn.write_mu);
  /// Close the fd under write_mu, so late acks see `open == false`.
  static void close_conn(Conn& conn);

  Hartd& db_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  common::Mutex conns_mu_;
  std::vector<ConnThread> conns_ GUARDED_BY(conns_mu_);
};

}  // namespace hart::server
