#include "repl/replicator.h"

#include <algorithm>
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_name.h"
#include "obs/trace.h"

namespace hart::repl {

namespace {

/// Wire batches must fit the request's u16 value field; leave headroom so
/// a split never trips encode_repl_batch's own limit.
constexpr size_t kWireBudget = 64 * 1024;

inline uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Backdated sampled-trace span (same convention as the shard worker):
/// the stage just ended and took `dur_ns`.
inline void trace_stage(const char* name, uint64_t dur_ns, uint32_t arg,
                        uint64_t trace_id) {
  obs::Tracer& tr = obs::Tracer::instance();
  if (!tr.enabled()) return;
  const uint64_t now = tr.now_ns();
  tr.record(name, obs::TraceKind::kOp, now > dur_ns ? now - dur_ns : 0,
            dur_ns, arg, trace_id);
}

/// "host:port" (host may be empty -> loopback).
bool parse_target(const std::string& t, std::string* host, uint16_t* port) {
  const size_t colon = t.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string p = t.substr(colon + 1);
  if (p.empty()) return false;
  unsigned long v = 0;
  for (char c : p) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<unsigned long>(c - '0');
    if (v > 65535) return false;
  }
  if (v == 0) return false;
  *host = t.substr(0, colon);
  *port = static_cast<uint16_t>(v);
  return true;
}

}  // namespace

Replicator::Replicator(const ReplicatorOptions& opts)
    : opts_(opts),
      log_(opts.streams, opts.retain_batches),
      pending_(opts.streams),
      shipped_(obs::Registry::instance().counter(
          "hartd_repl_batches_shipped_total")),
      confirmed_total_(obs::Registry::instance().counter(
          "hartd_repl_batches_confirmed_total")),
      reconnects_(
          obs::Registry::instance().counter("hartd_repl_reconnects_total")),
      link_errors_(
          obs::Registry::instance().counter("hartd_repl_link_errors_total")),
      quorum_acks_(
          obs::Registry::instance().counter("hartd_repl_quorum_acks_total")),
      resyncs_(obs::Registry::instance().counter("hartd_repl_resyncs_total")) {
  start_ns_ = mono_ns();
  if (opts_.window == 0) opts_.window = 1;
  if (opts_.backoff_base_ms == 0) opts_.backoff_base_ms = 1;
  if (opts_.backoff_max_ms < opts_.backoff_base_ms)
    opts_.backoff_max_ms = opts_.backoff_base_ms;
  // Majority of the (primary + followers) group, minus the primary's own
  // implicit vote: F=1 -> 1, F=2 -> 1, F=3 -> 2.
  needed_ = opts_.policy == AckPolicy::kQuorum
                ? (opts_.targets.size() + 1) / 2
                : 0;
  links_.reserve(opts_.targets.size());
  for (const std::string& t : opts_.targets) {
    auto l = std::make_unique<Link>();
    if (!parse_target(t, &l->host, &l->port))
      throw std::invalid_argument("bad replication target: " + t);
    l->index = links_.size();
    l->session = std::make_unique<ReplSession>(l->host, l->port);
    l->confirmed.assign(opts_.streams, 0);
    l->sent.assign(opts_.streams, 0);
    links_.push_back(std::move(l));
  }
  for (auto& l : links_) {
    Link* lp = l.get();
    lp->thread = std::thread([this, lp] { link_loop(lp); });
  }
}

Replicator::~Replicator() { shutdown(); }

void Replicator::on_batch(size_t shard_index, server::DurableBatch&& batch) {
  const auto stream = static_cast<uint32_t>(shard_index);
  // Split into wire-sized chunks; every chunk gets its own seq but they
  // share the batch's epoch. Deferred acks ride on the LAST chunk's seq:
  // follower-side ordered ack release means confirming it implies every
  // earlier chunk is durable there too.
  uint64_t last_seq = 0;
  std::vector<server::ReplEntry> chunk;
  size_t bytes = server::kReplBatchFixed;
  for (server::ReplEntry& e : batch.entries) {
    const size_t sz = server::repl_entry_wire_size(e);
    if (!chunk.empty() && (bytes + sz > kWireBudget ||
                           chunk.size() == server::kMaxBatchEntries)) {
      last_seq = log_.append(stream, batch.epoch, std::move(chunk));
      chunk.clear();
      bytes = server::kReplBatchFixed;
    }
    chunk.push_back(std::move(e));
    bytes += sz;
  }
  if (!chunk.empty()) last_seq = log_.append(stream, batch.epoch, std::move(chunk));

  std::vector<server::DurableBatch::DeferredAck> fire_now;
  {
    common::MutexLock lk(mu_);
    if (!batch.deferred.empty()) {
      if (down_ || needed_ == 0 || last_seq == 0) {
        // Shutdown raced in, local policy slipped a deferral through, or
        // an empty batch: never park acks that nothing will release.
        fire_now = std::move(batch.deferred);
      } else {
        pending_[stream].push_back(
            {last_seq, mono_ns(), std::move(batch.deferred)});
        // The link thread may have shipped this seq (log_.append happens
        // before mu_ is taken) and the confirm may already be in — and no
        // later confirm is guaranteed to arrive on this stream. Release
        // immediately if quorum is already met.
        release_quorum(stream, &fire_now);
      }
    }
    work_cv_.notify_all();
  }
  server::WakeList wake;
  for (auto& a : fire_now) {
    if (down_ && needed_ != 0) a.resp.status = server::Status::kShuttingDown;
    if (a.ack) a.ack(std::move(a.resp), wake);
  }
  wake.wake_all();
}

bool Replicator::drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  common::MutexLock lk(mu_);
  for (;;) {
    bool done = !down_;
    for (const auto& l : links_) {
      for (uint32_t s = 0; s < opts_.streams && done; ++s) {
        if (l->confirmed[s] < log_.tail_seq(s)) done = false;
      }
      if (!done) break;
    }
    if (done) {
      for (const auto& dq : pending_)
        if (!dq.empty()) done = false;
    }
    if (done) return true;
    if (down_ || stop_.load(std::memory_order_acquire)) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    state_cv_.wait_for(mu_, deadline - now);
  }
}

void Replicator::shutdown() {
  std::vector<server::DurableBatch::DeferredAck> orphans;
  {
    common::MutexLock lk(mu_);
    if (down_) return;
    down_ = true;
    for (auto& dq : pending_) {
      for (auto& pa : dq) {
        for (auto& a : pa.acks) orphans.push_back(std::move(a));
      }
      dq.clear();
    }
  }
  stop_.store(true, std::memory_order_release);
  {
    common::MutexLock lk(mu_);
    work_cv_.notify_all();
    state_cv_.notify_all();
  }
  for (auto& l : links_) {
    l->session->force_disconnect();
    if (l->thread.joinable()) l->thread.join();
    l->session->close();
  }
  // These writes are locally durable but never met quorum: report
  // kShuttingDown so the client does not count them as acked.
  server::WakeList wake;
  for (auto& a : orphans) {
    a.resp.status = server::Status::kShuttingDown;
    if (a.ack) a.ack(std::move(a.resp), wake);
  }
  wake.wake_all();
}

size_t Replicator::connected_links() const {
  size_t n = 0;
  for (const auto& l : links_)
    if (l->session->connected()) ++n;
  return n;
}

uint64_t Replicator::lag_batches() const {
  common::MutexLock lk(mu_);
  uint64_t worst = 0;
  for (const auto& l : links_) {
    uint64_t lag = 0;
    for (uint32_t s = 0; s < opts_.streams; ++s) {
      const uint64_t tail = log_.tail_seq(s);
      if (tail > l->confirmed[s]) lag += tail - l->confirmed[s];
    }
    worst = std::max(worst, lag);
  }
  return worst;
}

size_t Replicator::pending_quorum_acks() const {
  common::MutexLock lk(mu_);
  size_t n = 0;
  for (const auto& dq : pending_)
    for (const auto& pa : dq) n += pa.acks.size();
  return n;
}

std::vector<LinkHealth> Replicator::link_health() const {
  std::vector<LinkHealth> out;
  out.reserve(links_.size());
  const uint64_t now = mono_ns();
  common::MutexLock lk(mu_);
  for (const auto& l : links_) {
    LinkHealth h;
    h.index = l->index;
    h.target = l->host + ":" + std::to_string(l->port);
    h.connected = l->session->connected();
    h.synced = l->synced;
    h.backoff_ms = l->cur_backoff_ms;
    for (uint32_t s = 0; s < opts_.streams; ++s) {
      const uint64_t tail = log_.tail_seq(s);
      if (tail > l->confirmed[s]) {
        h.lag_seq += tail - l->confirmed[s];
        h.lag_bytes += log_.bytes_after(s, l->confirmed[s]);
      }
    }
    // Staleness only counts while the link actually owes confirmations;
    // a caught-up link reports 0 (the repl_smoke drain oracle relies on
    // this converging with lag).
    if (h.lag_seq != 0) {
      const uint64_t since =
          l->last_confirm_ns != 0 ? l->last_confirm_ns : start_ns_;
      h.last_confirm_age_ms = now > since ? (now - since) / 1000000 : 0;
    }
    out.push_back(std::move(h));
  }
  return out;
}

bool Replicator::link_connect(Link* l) {
  {
    // Fresh connection: everything previously in flight is unknown; the
    // handshake below re-learns the follower's applied position.
    common::MutexLock lk(mu_);
    l->synced = false;
    l->inflight.clear();
    // The follower is authoritative after the handshake; zero everything
    // so a restarted follower (reporting no position for a stream) gets a
    // full re-ship instead of a silent hole from our stale bookkeeping.
    l->confirmed.assign(opts_.streams, 0);
    l->sent.assign(opts_.streams, 0);
  }
  if (!l->session->connect(
          [this, l](uint64_t id, server::Response&& resp) {
            handle_response(l, id, std::move(resp));
          },
          [this, l] {
            (void)l;
            common::MutexLock lk(mu_);
            work_cv_.notify_all();
            state_cv_.notify_all();
          })) {
    return false;
  }
  uint64_t id = 0;
  {
    common::MutexLock lk(mu_);
    if (l->ever_connected) reconnects_.inc();
    l->ever_connected = true;
    id = l->next_id++;
    l->inflight[id] = {/*handshake=*/true, 0, 0};
  }
  server::Request q;
  q.op = server::OpCode::kReplAck;
  if (!l->session->send(id, q)) return false;
  // Wait for the position reply (or stream death) so shipping starts from
  // the follower's confirmed seq, not from a stale local guess.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  common::MutexLock lk(mu_);
  while (!l->synced && l->session->connected() &&
         !stop_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    state_cv_.wait_for(mu_, deadline - now);
  }
  return l->synced;
}

void Replicator::link_loop(Link* l) {
  common::set_thread_name("hartd-repl-" + std::to_string(l->index));
  uint32_t backoff = opts_.backoff_base_ms;
  while (!stop_.load(std::memory_order_acquire)) {
    // synced is only reset by this thread (in link_connect), so a dead
    // stream is the one reconnect trigger visible here.
    if (!l->session->connected()) {
      if (!link_connect(l)) {
        if (l->session->connected()) l->session->force_disconnect();
        common::MutexLock lk(mu_);
        if (stop_.load(std::memory_order_acquire)) return;
        l->cur_backoff_ms = backoff;
        state_cv_.wait_for(mu_, std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, opts_.backoff_max_ms);
        continue;
      }
      backoff = opts_.backoff_base_ms;
      common::MutexLock lk(mu_);
      l->cur_backoff_ms = 0;
    }

    // Collect-under-lock, send-unlocked: encode the next window of
    // records while holding mu_, then push bytes with no lock held.
    std::vector<std::pair<uint64_t, server::Request>> to_send;
    {
      common::MutexLock lk(mu_);
      for (uint32_t s = 0;
           s < opts_.streams && l->inflight.size() < opts_.window; ++s) {
        std::vector<BatchLog::Record> recs;
        log_.read_after(s, l->sent[s], opts_.window - l->inflight.size(),
                        &recs);
        if (recs.empty()) continue;
        if (recs.front().seq != l->sent[s] + 1) {
          // Eviction gap: the follower fell behind the bounded log. With
          // no resync transport yet this is surfaced loudly (counter +
          // stderr) and the link jumps forward — DESIGN.md §9 documents
          // the limitation and the operator remedy (restart follower
          // before load, or raise --repl-log).
          resyncs_.inc();
          std::fprintf(stderr,
                       "[hartrepl] link %zu stream %u gap: have %llu..%llu, "
                       "follower at %llu — bounded log overrun\n",
                       l->index, s,
                       static_cast<unsigned long long>(recs.front().seq),
                       static_cast<unsigned long long>(log_.tail_seq(s)),
                       static_cast<unsigned long long>(l->sent[s]));
        }
        for (BatchLog::Record& r : recs) {
          server::Request req;
          req.op = server::OpCode::kReplBatch;
          if (!server::encode_repl_batch(s, r.seq, r.epoch, r.entries,
                                         &req.value)) {
            link_errors_.inc();  // unreachable: on_batch splits to fit
            l->sent[s] = r.seq;
            continue;
          }
          const uint64_t id = l->next_id++;
          Inflight inf{/*handshake=*/false, s, r.seq, mono_ns(), {}};
          // Sampled entries: remember their ids so the confirm records a
          // ship->confirm repl_ship span per traced op.
          if (obs::Tracer::instance().enabled()) {
            for (const server::ReplEntry& e : r.entries)
              if (e.trace_id != 0) inf.traces.push_back(e.trace_id);
          }
          l->inflight[id] = std::move(inf);
          l->sent[s] = r.seq;
          to_send.emplace_back(id, std::move(req));
        }
      }
      if (to_send.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        if (l->session->connected() && l->synced)
          work_cv_.wait_for(mu_, std::chrono::milliseconds(200));
        continue;
      }
    }
    for (auto& [id, req] : to_send) {
      if (!l->session->send(id, req)) break;  // reconnect next iteration
      shipped_.inc();
    }
  }
}

void Replicator::handle_response(Link* l, uint64_t id,
                                 server::Response&& resp) {
  std::vector<server::DurableBatch::DeferredAck> to_fire;
  bool kill_link = false;
  {
    common::MutexLock lk(mu_);
    auto it = l->inflight.find(id);
    if (it == l->inflight.end()) return;  // stale reply from a prior epoch
    const Inflight inf = it->second;
    l->inflight.erase(it);
    if (inf.handshake) {
      std::vector<server::ReplPosition> pos;
      if (resp.status == server::Status::kOk &&
          server::decode_repl_positions(resp.value, &pos)) {
        for (const server::ReplPosition& p : pos) {
          if (p.stream >= opts_.streams) continue;
          // The follower is authoritative: a restarted follower reports a
          // lower position and idempotent replay makes resending safe.
          l->confirmed[p.stream] = p.seq;
          l->sent[p.stream] = p.seq;
        }
        l->synced = true;
      } else {
        link_errors_.inc();
        kill_link = true;
      }
      state_cv_.notify_all();
    } else if (resp.status == server::Status::kOk) {
      // The follower's reply IS its fence confirmation for this seq (and,
      // by its ordered ack release, for every earlier seq it received).
      l->confirmed[inf.stream] = std::max(l->confirmed[inf.stream], inf.seq);
      l->last_confirm_ns = mono_ns();
      const uint64_t ship_ns =
          inf.sent_ns != 0 && l->last_confirm_ns > inf.sent_ns
              ? l->last_confirm_ns - inf.sent_ns
              : 0;
      for (const uint64_t tid : inf.traces)
        trace_stage("repl_ship", ship_ns, static_cast<uint32_t>(l->index),
                    tid);
      confirmed_total_.inc();
      if (needed_ != 0) release_quorum(inf.stream, &to_fire);
      state_cv_.notify_all();
    } else {
      // Refused (shutting down / shard failed / not a follower): drop the
      // stream and rebuild from the position handshake.
      link_errors_.inc();
      kill_link = true;
    }
    work_cv_.notify_all();
  }
  // Quorum release: complete every released write first, then wake each
  // waiting thread once.
  server::WakeList wake;
  for (auto& a : to_fire) {
    if (a.ack) a.ack(std::move(a.resp), wake);
  }
  wake.wake_all();
  if (kill_link) l->session->force_disconnect();
}

void Replicator::release_quorum(
    uint32_t stream, std::vector<server::DurableBatch::DeferredAck>* out) {
  const uint64_t q = quorum_confirmed(stream);
  auto& dq = pending_[stream];
  while (!dq.empty() && dq.front().seq <= q) {
    PendingAcks& pa = dq.front();
    // Stage 4 of the write pipeline: how long the quorum parking lot held
    // this batch's acks. One sample per released write ack.
    const uint64_t now = mono_ns();
    const uint64_t wait = pa.park_ns != 0 && now > pa.park_ns
                              ? now - pa.park_ns
                              : 0;
    for (size_t i = 0; i < pa.acks.size(); ++i) quorum_wait_.record(wait);
    if (opts_.slow_op_us != 0 && wait > opts_.slow_op_us * 1000)
      std::fprintf(stderr,
                   "hartd slow-op stage=quorum_wait stream=%u seq=%" PRIu64
                   " acks=%zu wait_us=%" PRIu64 "\n",
                   stream, pa.seq, pa.acks.size(), wait / 1000);
    for (auto& a : pa.acks) {
      if (a.trace_id != 0)
        trace_stage("quorum_ack", wait, stream, a.trace_id);
      out->push_back(std::move(a));
    }
    quorum_acks_.add(pa.acks.size());
    dq.pop_front();
  }
}

uint64_t Replicator::quorum_confirmed(uint32_t stream) const {
  if (needed_ == 0 || links_.size() < needed_) return 0;
  std::vector<uint64_t> seqs;
  seqs.reserve(links_.size());
  for (const auto& l : links_) seqs.push_back(l->confirmed[stream]);
  std::nth_element(seqs.begin(), seqs.begin() + (needed_ - 1), seqs.end(),
                   std::greater<>());
  return seqs[needed_ - 1];
}

}  // namespace hart::repl
