// Socket helpers shared by every hartd stream endpoint: the TCP listener
// (tcp.cc), the client library (client.cc) and the replication link
// (repl/session.cc). Header-only, so hart_repl keeps depending on nothing
// from hart_server but headers.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hart::server {

/// send() the whole buffer; MSG_NOSIGNAL so a dead peer yields EPIPE, not
/// SIGPIPE. Returns false on any error (the caller abandons the stream).
inline bool send_all(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Non-blocking send() of as much of the buffer as the socket takes now.
/// Returns the bytes written (0 when the socket buffer is full), or -1 on
/// any error (the caller abandons the stream).
inline ssize_t send_some(int fd, const char* p, size_t n) {
  for (;;) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w >= 0) return w;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno != EINTR) return -1;
  }
}

/// One TCP dial with TCP_NODELAY set; -1 on any failure. "localhost" and
/// "" mean 127.0.0.1; otherwise `host` must be a dotted IPv4 address.
inline int dial(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* ip =
      (host == "localhost" || host.empty()) ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, ip, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace hart::server
