#include "server/client.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/thread_name.h"
#include "obs/trace.h"
#include "server/net.h"

namespace hart::server {

/// One TCP connection: its socket, the eventfd that schedules a flush, and
/// the encoded frames not yet written. Senders that captured it and the
/// connection's I/O thread share it, so both fds close only when the last
/// of them lets go.
struct Client::Stream {
  explicit Stream(int sock) : fd(sock), wake_fd(::eventfd(0, EFD_CLOEXEC)) {}
  ~Stream() {
    ::close(fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  const int fd;
  const int wake_fd;  // eventfd; -1 when it could not be created
  common::Mutex mu;
  common::CondVar space;  // send() waits here while `out` is full
  std::string out GUARDED_BY(mu);
  /// A sender signalled wake_fd and the I/O thread has not yet taken
  /// `out`: later senders append without signalling.
  bool flush_scheduled GUARDED_BY(mu) = false;
  /// The I/O thread is gone: frames queued here are dropped, never
  /// written to a later stream, and senders blocked on the cap return.
  bool dead GUARDED_BY(mu) = false;
};

Client::Client(Hartd& local) : local_(&local) {}

Client::Client(const std::string& host, uint16_t port)
    : Client(std::vector<Endpoint>{{host, port}}, ReconnectPolicy{}) {}

Client::Client(std::vector<Endpoint> endpoints, ReconnectPolicy policy)
    : endpoints_(std::move(endpoints)), policy_(std::move(policy)) {
  if (endpoints_.empty()) throw std::invalid_argument("no endpoints");
  if (policy_.backoff_base_ms == 0) policy_.backoff_base_ms = 1;
  policy_.backoff_max_ms =
      std::max(policy_.backoff_max_ms, policy_.backoff_base_ms);
  // Initial dial honors the same rotation/backoff as reconnection, with a
  // minimum of one pass over the list.
  const size_t rounds = std::max<size_t>(policy_.max_attempts, 1);
  int fd = -1;
  uint32_t backoff = policy_.backoff_base_ms;
  common::MutexLock rl(reconnect_mu_);
  for (size_t a = 0; a < rounds && fd < 0; ++a) {
    const Endpoint& ep = endpoints_[ep_index_ % endpoints_.size()];
    ++ep_index_;
    fd = dial(ep.host, ep.port);
    if (fd < 0 && a + 1 < rounds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, policy_.backoff_max_ms);
    }
  }
  if (fd < 0 || !start_stream(fd))
    throw std::runtime_error("cannot connect to " + endpoints_[0].host + ":" +
                             std::to_string(endpoints_[0].port));
}

Client::~Client() {
  if (local_ != nullptr) {
    // Every in-process submission is acked eventually (Hartd drains its
    // queues even on shutdown), so waiting here is bounded.
    wait_all();
    return;
  }
  closing_.store(true, std::memory_order_release);
  common::MutexLock rl(reconnect_mu_);
  std::shared_ptr<Stream> s;
  {
    common::MutexLock lk(mu_);
    s = stream_;
  }
  // Queued frames are dropped and every outstanding id fails with
  // kNetError as the I/O thread exits; the fds close with the last
  // reference to the stream.
  ::shutdown(s->fd, SHUT_RDWR);
  if (io_.joinable()) io_.join();
}

bool Client::start_stream(int fd) {
  auto s = std::make_shared<Stream>(fd);
  if (s->wake_fd < 0) return false;  // ~Stream closes fd
  {
    common::MutexLock lk(mu_);
    stream_ = s;
    broken_ = false;
  }
  io_ = std::thread([this, s] { io_loop(*s); });
  return true;
}

void Client::set_trace_sampling(uint64_t every_n) {
  common::MutexLock lk(mu_);
  trace_every_ = every_n;
  if (trace_base_ == 0) {
    trace_base_ = static_cast<uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch()
                          .count()) ^
                  (reinterpret_cast<uintptr_t>(this) << 16);
  }
}

void Client::trace_start(uint64_t id, Request* req) {
  if (req->trace_id == 0) {
    if (trace_every_ == 0 || req->op > OpCode::kPing) return;
    if (++trace_tick_ % trace_every_ != 0) return;
    req->trace_id = trace_base_ ^ (trace_tick_ << 1) ^ 1;
  }
  obs::Tracer& tr = obs::Tracer::instance();
  if (tr.enabled()) traced_[id] = {req->trace_id, tr.now_ns()};
}

void Client::trace_finish(uint64_t id) {
  if (traced_.empty()) return;
  auto it = traced_.find(id);
  if (it == traced_.end()) return;
  obs::Tracer& tr = obs::Tracer::instance();
  if (tr.enabled()) {
    const uint64_t now = tr.now_ns();
    const uint64_t start = it->second.start_ns;
    tr.record("client", obs::TraceKind::kOp, start,
              now > start ? now - start : 0, 0, it->second.trace_id);
  }
  traced_.erase(it);
}

void Client::complete(uint64_t id, Response resp, WakeList& wake) {
  common::MutexLock lk(mu_);
  complete_locked(id, std::move(resp), wake);
}

void Client::fail_now(uint64_t id) {
  WakeList wake;
  complete(id, Response{Status::kNetError, {}, 0}, wake);
  wake.wake_all();
}

void Client::complete_locked(uint64_t id, Response resp, WakeList& wake) {
  // Exactly-once: a request the dying I/O thread already failed must not
  // be resurrected by send()'s own failure path.
  if (pending_.erase(id) == 0) return;
  trace_finish(id);
  done_[id] = std::move(resp);
  if (pending_.empty()) all_done_.notify_all();
  // The waiter wakes when the completer drains `wake`, outside mu_:
  // holding mu_ across the wake-up would stall every sender.
  const auto w = waiters_.find(id);
  if (w != waiters_.end()) wake.add(w->second);
}

bool Client::try_reconnect() {
  if (policy_.max_attempts == 0) return false;
  common::MutexLock rl(reconnect_mu_);
  {
    common::MutexLock lk(mu_);
    if (!broken_) return true;  // another sender already repaired it
  }
  // broken_ is set at the tail of io_loop, so the join is bounded.
  if (io_.joinable()) io_.join();
  uint32_t backoff = policy_.backoff_base_ms;
  for (size_t a = 0; a < policy_.max_attempts; ++a) {
    if (closing_.load(std::memory_order_acquire)) return false;
    const Endpoint& ep = endpoints_[ep_index_ % endpoints_.size()];
    ++ep_index_;
    const int fd = dial(ep.host, ep.port);
    if (fd >= 0 && start_stream(fd)) return true;
    if (a + 1 < policy_.max_attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, policy_.backoff_max_ms);
    }
  }
  return false;
}

uint64_t Client::send(Request req) {
  uint64_t id;
  std::shared_ptr<Stream> s;
  {
    common::MutexLock lk(mu_);
    id = next_id_++;
    trace_start(id, &req);
    pending_.insert(id);
    if (!broken_) s = stream_;
  }
  if (local_ != nullptr) {
    // Hartd::submit invokes the ack even when shutting down, so every id
    // completes exactly once.
    local_->submit(std::move(req), [this, id](Response r, WakeList& wake) {
      complete(id, std::move(r), wake);
    });
    return id;
  }
  // A dying I/O thread fails only the ids pending when it died; this one
  // was inserted after (broken_ was already set), so it is either sent on
  // a fresh stream or completed here. An id that a later stream's death
  // already failed is not sent: the client never silently retries.
  if (s == nullptr && try_reconnect()) {
    common::MutexLock lk(mu_);
    if (!broken_ && pending_.count(id) != 0) s = stream_;
  }
  if (s == nullptr) {
    fail_now(id);
    return id;
  }
  bool signal = false;
  {
    common::MutexLock lk(s->mu);
    while (s->out.size() >= kMaxQueuedBytes && !s->dead) s->space.wait(s->mu);
    // A dead stream's I/O thread has failed (or is failing) this id.
    if (s->dead) return id;
    encode_request(id, req, &s->out);
    signal = !s->flush_scheduled;
    s->flush_scheduled = true;
  }
  if (signal) {
    // Cannot fail: the counter is far below its overflow point.
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t w = ::write(s->wake_fd, &one, sizeof(one));
  }
  return id;
}

Response Client::wait(uint64_t id) {
  common::MutexLock lk(mu_);
  if (pending_.count(id) != 0) {
    // Completion moves the id from pending_ to done_ and queues this
    // waiter on the completer's wake list: it wakes once, after the
    // completer has finished its whole batch of acks.
    const auto cv = std::make_shared<common::CondVar>();
    waiters_[id] = cv;
    while (pending_.count(id) != 0) cv->wait(mu_);
    waiters_.erase(id);
  }
  auto it = done_.find(id);
  if (it == done_.end()) return Response{Status::kNetError, {}, 0};
  Response r = std::move(it->second);
  done_.erase(it);
  return r;
}

void Client::wait_all() {
  common::MutexLock lk(mu_);
  // A dying I/O thread fails every pending id, so this always terminates even
  // without reconnection.
  while (!pending_.empty()) all_done_.wait(mu_);
}

size_t Client::outstanding() const {
  common::MutexLock lk(mu_);
  return pending_.size();
}

bool Client::connected() const {
  common::MutexLock lk(mu_);
  return !broken_;
}

void Client::io_loop(Stream& s) {
  common::set_thread_name("hart-client-io");
  std::string in;  // received bytes; frames decode in place
  size_t pos = 0;
  std::string_view body;
  std::string batch;  // frames taken from s.out, written from `written` on
  size_t written = 0;
  std::vector<std::pair<uint64_t, Response>> arrived;
  WakeList wake;
  char chunk[4096];
  pollfd fds[2] = {{s.fd, POLLIN, 0}, {s.wake_fd, POLLIN, 0}};
  for (;;) {
    // While a batch is partly written, wait for the socket to drain, not
    // for more frames: s.out fills up to its cap and blocks senders. The
    // socket stays polled for input, so responses keep draining and a
    // server blocked writing them can go back to reading requests.
    fds[0].events = batch.empty() ? POLLIN : POLLIN | POLLOUT;
    fds[1].events = batch.empty() ? POLLIN : 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const bool took = (fds[1].revents & POLLIN) != 0;
    if (took) {
      // Reset the eventfd before taking the queue: a sender that queues
      // after the take finds no flush scheduled and signals again.
      uint64_t signals = 0;
      if (::read(s.wake_fd, &signals, sizeof(signals)) != sizeof(signals))
        break;
      {
        common::MutexLock lk(s.mu);
        batch.swap(s.out);
        s.flush_scheduled = false;
      }
      s.space.notify_all();
    }
    if (!batch.empty() && (took || (fds[0].revents & POLLOUT) != 0)) {
      // A failed write ends the stream like a hang-up: every pending id
      // fails below.
      const ssize_t w =
          send_some(s.fd, batch.data() + written, batch.size() - written);
      if (w < 0) break;
      written += static_cast<size_t>(w);
      if (written == batch.size()) {
        batch.clear();
        written = 0;
      }
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t r = ::recv(s.fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    in.erase(0, pos);  // the frames decoded from the previous chunk
    pos = 0;
    in.append(chunk, static_cast<size_t>(r));
    // Decode the whole chunk first, then complete it under one mu_.
    int got;
    while ((got = take_frame(in, &pos, &body)) > 0) {
      uint64_t id = 0;
      Response resp;
      if (!decode_response(body.data(), body.size(), &id, &resp)) {
        got = -1;
        break;
      }
      arrived.emplace_back(id, std::move(resp));
    }
    if (!arrived.empty()) {
      {
        common::MutexLock lk(mu_);
        for (auto& [id, resp] : arrived)
          complete_locked(id, std::move(resp), wake);
      }
      arrived.clear();
      wake.wake_all();
    }
    if (got < 0) break;  // malformed stream
  }
  // Stream is gone (server died, protocol error, failed write, or the
  // dtor shut the socket): drop its queued frames — they must never reach
  // a later stream — and release blocked senders. Clearing the queue
  // alone is not enough: more blocked senders than the cap holds would
  // refill it and block again. Then fail every in-flight request: the
  // next send() may reconnect, and a fresh stream will never answer
  // these ids.
  {
    common::MutexLock lk(s.mu);
    s.dead = true;
    s.out.clear();
  }
  s.space.notify_all();
  {
    common::MutexLock lk(mu_);
    broken_ = true;
    const std::vector<uint64_t> lost(pending_.begin(), pending_.end());
    for (const uint64_t id : lost)
      complete_locked(id, Response{Status::kNetError, {}, 0}, wake);
  }
  wake.wake_all();
}

Response Client::put(std::string key, std::string value) {
  return wait(send(Request{OpCode::kPut, std::move(key), std::move(value)}));
}
Response Client::get(std::string key) {
  return wait(send(Request{OpCode::kGet, std::move(key), {}}));
}
Response Client::update(std::string key, std::string value) {
  return wait(
      send(Request{OpCode::kUpdate, std::move(key), std::move(value)}));
}
Response Client::del(std::string key) {
  return wait(send(Request{OpCode::kDelete, std::move(key), {}}));
}
Response Client::ping() { return wait(send(Request{OpCode::kPing, {}, {}})); }
common::Status Client::stats(std::string* out, std::string format) {
  Response r = wait(send(Request{OpCode::kStats, {}, std::move(format)}));
  if (out != nullptr)
    *out = r.status == Status::kOk ? std::move(r.value) : std::string();
  return common_status(r.status);
}
common::Status Client::promote(std::string* positions) {
  Response r = wait(send(Request{OpCode::kPromote, {}, {}}));
  if (positions != nullptr)
    *positions = r.status == Status::kOk ? std::move(r.value) : std::string();
  return common_status(r.status);
}

size_t Client::multi_get(const std::vector<std::string>& keys,
                         std::vector<std::string>* out,
                         std::vector<bool>* found) {
  out->assign(keys.size(), {});
  found->assign(keys.size(), false);
  Request req{OpCode::kMget, {}, {}};
  if (!encode_mget_keys(keys, &req.value)) return 0;
  const Response r = wait(send(std::move(req)));
  if (r.status != Status::kOk) return 0;
  if (!decode_mget_result(r.value, out, found) || out->size() != keys.size()) {
    out->assign(keys.size(), {});
    found->assign(keys.size(), false);
    return 0;
  }
  size_t hits = 0;
  for (const bool f : *found) hits += f ? 1 : 0;
  return hits;
}

size_t Client::scan(std::string start, uint32_t limit,
                    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  Request req{OpCode::kScan, std::move(start), {}};
  encode_scan_limit(limit, &req.value);
  const Response r = wait(send(std::move(req)));
  if (r.status != Status::kOk || !decode_scan_result(r.value, out))
    out->clear();
  return out->size();
}

}  // namespace hart::server
