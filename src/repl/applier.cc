#include "repl/applier.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "obs/trace.h"

namespace hart::repl {

namespace {

inline uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Entry outcomes that keep a replicated batch healthy. kNotFound covers
/// idempotent replay of a DELETE whose key is already gone.
bool entry_ok(server::Status s) {
  return s == server::Status::kOk || s == server::Status::kUpdated ||
         s == server::Status::kNotFound;
}

void store_max(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

/// Shared completion state for one wire batch: the last entry ack to
/// arrive triggers the ordered release.
struct FollowerApplier::BatchCtx {
  FollowerApplier* self = nullptr;
  uint32_t stream = 0;
  uint64_t seq = 0;
  size_t entries = 0;
  uint64_t bytes = 0;     // wire payload size of this batch
  uint64_t t0_ns = 0;     // apply start, for the follower_apply span
  std::vector<uint64_t> traces;  // sampled entries' trace ids
  std::atomic<size_t> remaining{0};
  std::atomic<uint64_t> epoch{0};  // max follower epoch across entries
  std::atomic<uint8_t> fail{0};    // first failing wire status (0 = none)
  Ack ack;
};

FollowerApplier::FollowerApplier(SubmitFn submit)
    : submit_(std::move(submit)),
      batches_applied_(obs::Registry::instance().counter(
          "hartd_repl_batches_applied_total")),
      entries_applied_(obs::Registry::instance().counter(
          "hartd_repl_entries_applied_total")),
      batch_errors_(obs::Registry::instance().counter(
          "hartd_repl_batch_errors_total")) {
  start_ns_ = mono_ns();
}

void FollowerApplier::apply(server::Request&& req, Ack ack) {
  uint32_t stream = 0;
  uint64_t seq = 0;
  uint64_t primary_epoch = 0;
  std::vector<server::ReplEntry> entries;
  if (!server::decode_repl_batch(req.value, &stream, &seq, &primary_epoch,
                                 &entries)) {
    batch_errors_.inc();
    server::Response r;
    r.status = server::Status::kBadRequest;
    if (ack) {
      server::WakeList wake;
      ack(std::move(r), wake);
      wake.wake_all();
    }
    return;
  }

  auto ctx = std::make_shared<BatchCtx>();
  ctx->self = this;
  ctx->stream = stream;
  ctx->seq = seq;
  ctx->entries = entries.size();
  ctx->bytes = req.value.size();
  ctx->t0_ns = mono_ns();
  ctx->remaining.store(entries.size(), std::memory_order_relaxed);
  ctx->ack = std::move(ack);
  if (obs::Tracer::instance().enabled()) {
    for (const server::ReplEntry& e : entries)
      if (e.trace_id != 0) ctx->traces.push_back(e.trace_id);
  }

  {
    common::MutexLock lk(mu_);
    StreamState& st = streams_[stream];
    st.inflight[seq] += 1;
    st.inflight_bytes += ctx->bytes;
  }

  if (entries.empty()) {
    // Defensive: the primary never ships an empty batch, but an empty one
    // is trivially "applied".
    DoneEntry d;
    d.resp.status = server::Status::kOk;
    d.ack = std::move(ctx->ack);
    d.entries = 0;
    d.bytes = ctx->bytes;
    d.success = true;
    server::WakeList wake;
    batch_done(stream, seq, std::move(d), wake);
    wake.wake_all();
    return;
  }

  for (server::ReplEntry& e : entries) {
    server::Request sub;
    sub.op = e.op;
    sub.key = std::move(e.key);
    sub.value = std::move(e.value);
    sub.trace_id = e.trace_id;  // sampled ops stay sampled on this node
    // The entry ack runs inside the shard worker's batch: a released
    // REPL_BATCH ack joins that batch's wake list.
    submit_(std::move(sub), [ctx](server::Response resp,
                                  server::WakeList& wake) {
      if (entry_ok(resp.status)) {
        store_max(&ctx->epoch, resp.epoch);
      } else {
        uint8_t none = 0;
        ctx->fail.compare_exchange_strong(
            none, static_cast<uint8_t>(resp.status),
            std::memory_order_relaxed);
      }
      if (ctx->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Stitch the sampled ops into the originating trace: receive ->
        // all entry fences done, on the follower.
        obs::Tracer& tr = obs::Tracer::instance();
        if (tr.enabled() && !ctx->traces.empty()) {
          const uint64_t dur = mono_ns() - ctx->t0_ns;
          const uint64_t now = tr.now_ns();
          for (const uint64_t tid : ctx->traces)
            tr.record("follower_apply", obs::TraceKind::kOp,
                      now > dur ? now - dur : 0, dur, ctx->stream, tid);
        }
        DoneEntry d;
        const uint8_t f = ctx->fail.load(std::memory_order_relaxed);
        d.success = f == 0;
        d.resp.status =
            d.success ? server::Status::kOk : static_cast<server::Status>(f);
        d.resp.epoch = ctx->epoch.load(std::memory_order_relaxed);
        d.ack = std::move(ctx->ack);
        d.entries = ctx->entries;
        d.bytes = ctx->bytes;
        ctx->self->batch_done(ctx->stream, ctx->seq, std::move(d), wake);
      }
    });
  }
}

void FollowerApplier::drop_inflight(StreamState* st, uint64_t seq) {
  auto it = st->inflight.find(seq);
  if (it == st->inflight.end()) return;
  if (--it->second == 0) st->inflight.erase(it);
}

void FollowerApplier::batch_done(uint32_t stream, uint64_t seq,
                                 DoneEntry&& done, server::WakeList& wake) {
  std::vector<DoneEntry> to_fire;
  {
    common::MutexLock lk(mu_);
    StreamState& st = streams_[stream];
    drop_inflight(&st, seq);
    auto dup = st.done.find(seq);
    if (dup != st.done.end()) {
      // Reconnect replay finished while the original completion is still
      // parked: the old connection is dead, so fire its ack immediately
      // (harmless) and let the fresh one take the slot.
      st.inflight_bytes -= std::min(st.inflight_bytes, dup->second.bytes);
      to_fire.push_back(std::move(dup->second));
      dup->second = std::move(done);
    } else {
      st.done.emplace(seq, std::move(done));
    }
    // Ordered release: a parked batch may go out only when no smaller seq
    // of this stream is still being applied — so the primary reading
    // "seq S confirmed" may trust every received seq <= S.
    while (!st.done.empty()) {
      auto it = st.done.begin();
      if (!st.inflight.empty() && st.inflight.begin()->first < it->first)
        break;
      DoneEntry d = std::move(it->second);
      st.inflight_bytes -= std::min(st.inflight_bytes, d.bytes);
      if (d.success) {
        if (it->first > st.applied) {
          st.applied = it->first;
          st.applied_epoch = d.resp.epoch;
        }
        batches_applied_.inc();
        entries_applied_.add(d.entries);
      } else {
        batch_errors_.inc();
      }
      st.done.erase(it);
      to_fire.push_back(std::move(d));
      last_release_ns_ = mono_ns();
    }
  }
  for (DoneEntry& d : to_fire) {
    if (d.ack) d.ack(std::move(d.resp), wake);
  }
}

FollowerApplier::Health FollowerApplier::health() const {
  Health h;
  const uint64_t now = mono_ns();
  common::MutexLock lk(mu_);
  for (const auto& [stream, st] : streams_) {
    h.backlog_batches += st.inflight.size() + st.done.size();
    h.backlog_bytes += st.inflight_bytes;
  }
  if (h.backlog_batches != 0) {
    const uint64_t since =
        last_release_ns_ != 0 ? last_release_ns_ : start_ns_;
    h.last_apply_age_ms = now > since ? (now - since) / 1000000 : 0;
  }
  return h;
}

std::vector<server::ReplPosition> FollowerApplier::positions() const {
  std::vector<server::ReplPosition> out;
  common::MutexLock lk(mu_);
  out.reserve(streams_.size());
  for (const auto& [stream, st] : streams_) {
    out.push_back({stream, st.applied, st.applied_epoch});
  }
  return out;
}

}  // namespace hart::repl
