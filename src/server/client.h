// hart::Client — client library for hartd with a synchronous API and a
// pipelined asynchronous API, over either transport:
//
//   * in-process: Client(hartd) submits straight into the shard queues;
//   * TCP:        Client(host, port) speaks the proto.h framing; one I/O
//                 thread per connection is the only writer of its socket
//                 (senders queue encoded frames and it writes each burst
//                 with one send) and matches responses to requests by id.
//
// Pipelining: send() returns immediately with a request id; wait(id)
// blocks for that response. Responses complete out of submission order
// across shards (per-shard batching), which is exactly what the id
// correlation absorbs. A Client is thread-safe; one connection is shared.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "server/hartd.h"
#include "server/proto.h"

namespace hart::server {

/// One server address for the TCP transport.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

/// Transparent reconnection for transient TCP errors: when the stream
/// dies, the next send() redials the endpoint list (rotating — so a
/// client configured with [primary, follower] lands on the promoted
/// follower after a failover) with bounded exponential backoff. Requests
/// in flight when the stream died still fail with kNetError: the client
/// cannot know whether the server acked them, so it never silently
/// retries a write.
struct ReconnectPolicy {
  /// Dial attempts per send() before giving up (kNetError). 0 disables
  /// reconnection (the single-endpoint ctor's default).
  size_t max_attempts = 0;
  uint32_t backoff_base_ms = 10;
  uint32_t backoff_max_ms = 1000;
};

class Client {
 public:
  /// In-process transport: submits into `local`'s shard queues.
  explicit Client(Hartd& local);
  /// TCP transport, single endpoint, no reconnection (a dead stream fails
  /// all requests with kNetError). Throws on connection failure.
  Client(const std::string& host, uint16_t port);
  /// TCP transport over an endpoint list with reconnection. The initial
  /// dial also honors the policy's attempts/backoff; throws when every
  /// endpoint stays unreachable.
  Client(std::vector<Endpoint> endpoints, ReconnectPolicy policy);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- synchronous API --------------------------------------------------
  Response put(std::string key, std::string value);
  Response get(std::string key);
  Response update(std::string key, std::string value);
  Response del(std::string key);
  Response ping();
  /// Scrape the server's HARTscope metrics into *out. `format`: "json" or
  /// "" / "prometheus" (text). kOk on success; kUnavailable when the
  /// transport or server could not answer (Index API v2 — no wire Status
  /// leaks through this call).
  common::Status stats(std::string* out, std::string format = {});
  /// Batched point lookups in one kMget round trip (dispatcher-served,
  /// never queued behind writes). `out->at(i)` / `found->at(i)` answer
  /// `keys[i]`; returns the hit count. At most kMaxBatchEntries keys;
  /// oversized or failed batches come back all-miss.
  size_t multi_get(const std::vector<std::string>& keys,
                   std::vector<std::string>* out, std::vector<bool>* found);
  /// Ordered scan: up to `limit` entries with key >= `start`, ascending,
  /// merged across shards. Returns the entry count (0 on failure or when
  /// `start` is not a valid key).
  size_t scan(std::string start, uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out);
  /// Ask the server to become primary (replication failover). kOk on
  /// success, with the node's applied replication positions (an encoded
  /// ReplPosition list) written to *positions when non-null; kUnavailable
  /// when the node refused or the transport failed.
  common::Status promote(std::string* positions = nullptr);

  // ---- pipelined API ----------------------------------------------------
  /// Fire a request without waiting; returns its id. On a dead transport
  /// the request completes immediately with kNetError (still waitable).
  /// Over TCP the encoded frame is queued for the connection's I/O thread,
  /// which writes everything queued since its last write in one send();
  /// send() blocks while kMaxQueuedBytes are already queued.
  uint64_t send(Request req);
  /// Cap on the encoded bytes a TCP stream queues for its I/O thread.
  static constexpr size_t kMaxQueuedBytes = size_t{256} << 10;
  /// Block until the response for `id` arrives, then return it. Each id
  /// may be waited on once.
  Response wait(uint64_t id);
  /// Block until every outstanding request has completed.
  void wait_all();

  [[nodiscard]] size_t outstanding() const;
  [[nodiscard]] bool connected() const;

  /// Client-side trace sampling: stamp every Nth KV request (that is not
  /// already stamped) with a fresh trace id and record a "client" span
  /// covering send -> response completion. 1 = every request, 0 = off
  /// (default). Spans land in this process's obs::Tracer when enabled.
  void set_trace_sampling(uint64_t every_n);

 private:
  struct Stream;  // one TCP connection and its write queue (client.cc)

  /// The connection's I/O thread: writes `s`'s queued frames when
  /// signalled, completes the responses of each received chunk, and on
  /// any error fails every pending id with kNetError.
  void io_loop(Stream& s);
  /// Complete `id` and queue its waiter, if any, on `wake`; the caller
  /// drains `wake` after its last completion, outside mu_.
  void complete(uint64_t id, Response resp, WakeList& wake);
  /// Complete `id` on this thread (no live stream to send it on) and wake
  /// its waiter.
  void fail_now(uint64_t id);
  /// Move a pending id to done_ (waking wait_all once nothing is pending)
  /// and queue the condition variable of the thread waiting for it, if
  /// any, on `wake`. A non-pending id is ignored.
  void complete_locked(uint64_t id, Response resp, WakeList& wake)
      REQUIRES(mu_);
  /// Stamp a sampled request and remember its span start (under mu_).
  void trace_start(uint64_t id, Request* req) REQUIRES(mu_);
  /// Pop the span state for a completing id and record the "client" span.
  void trace_finish(uint64_t id) REQUIRES(mu_);
  /// Redial the endpoint list per the policy; true when a fresh stream is
  /// up. Serialized so concurrent senders share one repair.
  bool try_reconnect();
  /// Make `fd` the live stream and start its I/O thread; false (with `fd`
  /// closed) when its eventfd cannot be created.
  bool start_stream(int fd) REQUIRES(reconnect_mu_);

  Hartd* local_ = nullptr;  // in-process transport when non-null
  std::vector<Endpoint> endpoints_;
  ReconnectPolicy policy_;
  std::atomic<bool> closing_{false};

  common::Mutex reconnect_mu_;  // serializes redial + I/O thread respawn
  size_t ep_index_ GUARDED_BY(reconnect_mu_) = 0;

  mutable common::Mutex mu_;
  common::CondVar all_done_;  // wait_all(): signalled when pending_ empties
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  bool broken_ GUARDED_BY(mu_) = false;  // TCP stream died
  std::shared_ptr<Stream> stream_ GUARDED_BY(mu_);  // the latest stream
  uint64_t trace_every_ GUARDED_BY(mu_) = 0;  // sample every Nth; 0 = off
  uint64_t trace_tick_ GUARDED_BY(mu_) = 0;
  uint64_t trace_base_ GUARDED_BY(mu_) = 0;  // per-client trace-id salt
  struct TraceStart {
    uint64_t trace_id = 0;
    uint64_t start_ns = 0;  // tracer-epoch span start
  };
  std::unordered_map<uint64_t, TraceStart> traced_ GUARDED_BY(mu_);
  /// Ids sent but not yet completed. A dying I/O thread fails every pending
  /// id into done_ with kNetError, so waiters never strand across a
  /// reconnect (a fresh stream has no memory of the old one's requests).
  std::unordered_set<uint64_t> pending_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, Response> done_ GUARDED_BY(mu_);
  /// The condition variable of the one thread blocked in wait(id). Shared
  /// so a completer's wake list can notify it after releasing mu_, even if
  /// the waiter has already returned.
  std::unordered_map<uint64_t, std::shared_ptr<common::CondVar>> waiters_
      GUARDED_BY(mu_);
  /// The live stream's I/O thread; declared last because it uses every
  /// member above. Joined and respawned only under reconnect_mu_.
  std::thread io_;
};

}  // namespace hart::server

namespace hart {
using Client = server::Client;  // the library's public name
}
