#include "server/tcp.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/thread_name.h"
#include "obs/counters.h"
#include "server/net.h"

namespace hart::server {

TcpServer::TcpServer(Hartd& db, uint16_t port) : db_(db) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("cannot bind/listen on 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::accept_loop() {
  common::set_thread_name("hartd-accept");
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // transient (EINTR, aborted handshake)
    }
    reap_finished();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    common::MutexLock lk(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    conns_.push_back({conn, std::thread([this, conn] {
                        serve(conn);
                        close_conn(*conn);
                        conn->finished.store(true, std::memory_order_release);
                      })});
  }
}

void TcpServer::reap_finished() {
  std::vector<ConnThread> done;
  {
    common::MutexLock lk(conns_mu_);
    const auto live = std::partition(
        conns_.begin(), conns_.end(), [](const ConnThread& c) {
          return !c.conn->finished.load(std::memory_order_acquire);
        });
    std::move(live, conns_.end(), std::back_inserter(done));
    conns_.erase(live, conns_.end());
  }
  // Each of these threads has already closed its fd and is returning.
  for (auto& c : done) c.thread.join();
}

void TcpServer::write_out(Conn& conn) {
  // A failed send means the peer vanished; serve()'s recv() notices too,
  // so the held bytes are simply dropped.
  send_all(conn.fd, conn.out.data(), conn.out.size());
  conn.out.clear();
}

void TcpServer::respond(Conn& conn, uint64_t id, const Response& resp) {
  common::MutexLock lk(conn.write_mu);
  if (!conn.open) return;  // connection already torn down: drop the ack
  encode_response(id, resp, &conn.out);
  if (!conn.holding) write_out(conn);
}

void TcpServer::hold(Conn& conn) {
  common::MutexLock lk(conn.write_mu);
  conn.holding = true;
}

void TcpServer::flush(Conn& conn) {
  common::MutexLock lk(conn.write_mu);
  conn.holding = false;
  if (!conn.out.empty()) write_out(conn);
}

void TcpServer::close_conn(Conn& conn) {
  common::MutexLock lk(conn.write_mu);
  conn.open = false;
  ::close(conn.fd);
}

void TcpServer::serve(const std::shared_ptr<Conn>& conn) {
  common::set_thread_name("hartd-conn");
  std::string buf;
  size_t pos = 0;
  std::string_view body;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (r <= 0) return;  // EOF, error, or shutdown() from stop()
    buf.erase(0, pos);  // the frames decoded from the previous chunk
    pos = 0;
    buf.append(chunk, static_cast<size_t>(r));
    hold(*conn);
    int got;
    while ((got = take_frame(buf, &pos, &body)) > 0) {
      uint64_t id = 0;
      Request req;
      if (!decode_request(body.data(), body.size(), &id, &req)) {
        // Framing was intact, so the stream stays usable: answer this
        // frame with a protocol error and keep serving. Recover the id
        // when enough of the header arrived to carry one.
        if (id == 0 && body.size() >= sizeof(uint64_t))
          std::memcpy(&id, body.data(), sizeof(uint64_t));
        obs::Registry::instance()
            .counter("hartd_proto_errors_total")
            .inc();
        respond(*conn, id, Response{Status::kProtocolError, {}, 0});
        continue;
      }
      // No thread waits on a TCP ack: the response goes to the socket
      // (or, inside this chunk, to the connection's held output).
      db_.submit(std::move(req), [conn, id](Response resp, WakeList&) {
        respond(*conn, id, resp);
      });
    }
    if (got < 0) {
      // Oversized or corrupt length prefix: the stream can't be
      // re-synchronized, so the connection must drop — but tell the peer
      // why first (id 0: the offending frame's id is unknowable), after
      // every response already held for this chunk.
      obs::Registry::instance().counter("hartd_proto_errors_total").inc();
      respond(*conn, 0, Response{Status::kProtocolError, {}, 0});
      flush(*conn);
      // Actively hang up so the peer sees EOF right away; the fd itself is
      // closed (under write_mu) when serve() returns.
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    flush(*conn);
  }
}

void TcpServer::stop() {
  if (stopping_.exchange(true)) return;
  // Wake the accept loop, then join it so no new connections appear.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);

  // Kick every reader out of recv() and join the connection threads; each
  // closes its own fd under write_mu on the way out, so a late ack can
  // never write to a closed (possibly reused) descriptor.
  std::vector<ConnThread> conns;
  {
    common::MutexLock lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    common::MutexLock lk(c.conn->write_mu);
    if (c.conn->open) ::shutdown(c.conn->fd, SHUT_RDWR);
  }
  for (auto& c : conns) c.thread.join();
}

}  // namespace hart::server
