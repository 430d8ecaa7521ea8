#include "repl/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <utility>

#include "common/thread_name.h"
#include "server/net.h"

namespace hart::repl {

bool ReplSession::connect(ResponseFn on_response, DisconnectFn on_disconnect) {
  close();  // joins any previous reader, resets state
  const int fd = server::dial(host_, port_);
  if (fd < 0) return false;
  {
    common::MutexLock lk(fd_mu_);
    fd_ = fd;
  }
  up_.store(true, std::memory_order_release);
  reader_ = std::thread([this, on_response = std::move(on_response),
                         on_disconnect = std::move(on_disconnect)]() mutable {
    reader_loop(std::move(on_response), std::move(on_disconnect));
  });
  return true;
}

bool ReplSession::send(uint64_t id, const server::Request& req) {
  if (!connected()) return false;
  int fd;
  {
    // The fd is only *closed* by close(), which runs on this (the link)
    // thread — copying it out is safe; a concurrent force_disconnect only
    // shuts the socket down, which makes send_all fail cleanly.
    common::MutexLock lk(fd_mu_);
    fd = fd_;
  }
  if (fd < 0) return false;
  std::string frame;
  server::encode_request(id, req, &frame);
  if (!server::send_all(fd, frame.data(), frame.size())) {
    force_disconnect();
    return false;
  }
  return true;
}

void ReplSession::force_disconnect() {
  up_.store(false, std::memory_order_release);
  common::MutexLock lk(fd_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ReplSession::close() {
  force_disconnect();
  if (reader_.joinable()) reader_.join();
  common::MutexLock lk(fd_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ReplSession::reader_loop(ResponseFn on_response,
                              DisconnectFn on_disconnect) {
  common::set_thread_name("hartd-repl-rd");
  int fd;
  {
    common::MutexLock lk(fd_mu_);
    fd = fd_;
  }
  std::string buf;
  size_t pos = 0;
  std::string_view body;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    buf.erase(0, pos);  // the frames decoded from the previous chunk
    pos = 0;
    buf.append(chunk, static_cast<size_t>(r));
    bool bad = false;
    for (;;) {
      const int got = server::take_frame(buf, &pos, &body);
      if (got < 0) {
        bad = true;
        break;
      }
      if (got == 0) break;
      uint64_t id = 0;
      server::Response resp;
      if (!server::decode_response(body.data(), body.size(), &id, &resp)) {
        bad = true;
        break;
      }
      if (on_response) on_response(id, std::move(resp));
    }
    if (bad) break;
  }
  const bool was_up = up_.exchange(false, std::memory_order_acq_rel);
  // close()/force_disconnect() already flipped up_ — the owner initiated
  // this teardown and is not owed a disconnect notification.
  if (was_up && on_disconnect) on_disconnect();
}

}  // namespace hart::repl
