#include "server/hartd.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/annotations.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "server/stats.h"

namespace hart::server {

namespace {
/// HARTscope: GET/MGET lookups answered kNotFound straight from a shard's
/// Bloom filter — the key never reached the Hart (or a queue).
obs::Counter& bloom_negative_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hartd_bloom_negative_total");
  return c;
}
/// HARTscope: Bloom said "maybe" but the Hart said kNotFound (the filter's
/// false-positive tally; negatives / (negatives + fp) = filter hit rate).
obs::Counter& bloom_fp_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hartd_bloom_fp_total");
  return c;
}
/// Client writes refused with kNotPrimary by the role gate (follower or
/// mid-promotion node) — visible in STATS on every role so an operator
/// can see misdirected traffic from the follower's side too.
obs::Counter& write_rejected_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hartd_write_rejected_total");
  return c;
}
}  // namespace

Hartd::Hartd(const Options& opts)
    : opts_(opts),
      promo_(opts.follow ? repl::Role::kFollower : repl::Role::kPrimary) {
  if (opts_.shards == 0) throw std::invalid_argument("shards must be >= 1");
  if (!opts_.replicate_to.empty()) {
    repl::ReplicatorOptions ro;
    ro.targets = opts_.replicate_to;
    ro.policy = opts_.ack_policy;
    ro.streams = opts_.shards;
    ro.retain_batches = opts_.repl_log_batches;
    ro.window = opts_.repl_window;
    ro.slow_op_us = opts_.slow_op_us;
    repl_ = std::make_unique<repl::Replicator>(ro);
  }
  // Trace-id salt: ids must not collide between the primary and a
  // follower started in the same process (tests run both in-proc), so mix
  // the construction time with this object's address.
  trace_base_ = static_cast<uint64_t>(
                    std::chrono::steady_clock::now().time_since_epoch()
                        .count()) ^
                (reinterpret_cast<uintptr_t>(this) << 16);
  shards_.resize(opts_.shards);
  obs::TraceSpan span("hartd_open", obs::TraceKind::kRecovery,
                      static_cast<uint32_t>(opts_.shards));
  const auto t0 = std::chrono::steady_clock::now();

  // Shard construction doubles as restart recovery for file-backed arenas
  // (Hart's constructor runs Algorithm 7 on a re-opened arena), so open
  // shards in parallel — recovery time is per-shard, not per-service.
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errs(opts_.shards);
  for (size_t i = 0; i < opts_.shards; ++i) {
    pool.emplace_back([this, i, &errs] {
      try {
        Shard::Options so;
        so.index = i;
        so.batch_size = opts_.batch_size;
        so.queue_capacity = opts_.queue_capacity;
        so.bloom_bits_per_key = opts_.bloom_bits_per_key;
        so.bloom_expected_keys = opts_.bloom_expected_keys;
        so.slow_op_us = opts_.slow_op_us;
        so.hart = opts_.hart;
        so.arena.size = opts_.arena_mb << 20;  // 0 -> HART_ARENA_MB default
        so.arena.latency = opts_.latency;
        so.arena.defer_latency = opts_.defer_latency;
        so.arena.check = opts_.check;
        so.arena.shadow = opts_.shadow;
        if (!opts_.arena_dir.empty())
          so.arena.file_path =
              opts_.arena_dir + "/shard-" + std::to_string(i) + ".arena";
        if (repl_) {
          so.batch_sink = [r = repl_.get()](size_t idx, DurableBatch&& b) {
            r->on_batch(idx, std::move(b));
          };
          so.defer_write_acks = opts_.ack_policy == repl::AckPolicy::kQuorum;
        }
        shards_[i] = std::make_unique<Shard>(so);
      } catch (...) {
        errs[i] = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (auto& e : errs)
    if (e) std::rethrow_exception(e);

  // In rwlock-reads ablation mode a dispatcher-side search would contend
  // on the partition shared_mutexes the shard worker also takes; the
  // original queued-read behavior is what the ablation measures, so the
  // kGet fast path turns itself off.
  fastpath_gets_ = opts_.fastpath_reads && !opts_.hart.rwlock_reads;

  if (opts_.follow) {
    // Replicated writes bypass the role gate (a follower rejects CLIENT
    // writes, not its replication stream) and route by the follower's own
    // shard count. The submit contract — ack exactly once, even on
    // refusal — is what the applier's completion counting relies on.
    applier_ = std::make_unique<repl::FollowerApplier>(
        [this](Request&& r, Shard::Ack ack) {
          Shard& s = *shards_[shard_of(r.key)];
          Shard::Ack copy = ack;
          if (!s.submit(std::move(r), std::move(copy))) {
            WakeList wake;
            ack(Response{Status::kShuttingDown, {}, 0}, wake);
            wake.wake_all();
          }
        });
  }

  reopened_ = !opts_.arena_dir.empty();
  for (auto& s : shards_) reopened_ = reopened_ && s->arena().reopened();
  recovery_ms_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (reopened_) recovered_keys_ = total_size();
}

Hartd::~Hartd() { shutdown(); }

bool Hartd::submit(Request req, Shard::Ack ack) {
  // Inline answers and refusals complete on this thread: fire the ack,
  // then wake the waiter it queued, if any.
  auto answer = [&ack](Response r) {
    if (!ack) return;
    WakeList wake;
    ack(std::move(r), wake);
    wake.wake_all();
  };
  if (down_.load(std::memory_order_acquire)) {
    answer(Response{Status::kShuttingDown, {}, 0});
    return false;
  }
  // Dispatcher-side trace sampling: stamp every Nth unsampled KV request
  // (client-stamped ids pass through untouched). Control-plane ops
  // (stats/repl/promote) are never sampled here.
  if (opts_.trace_sample != 0 && req.trace_id == 0 &&
      req.op <= OpCode::kPing &&
      trace_seq_.fetch_add(1, std::memory_order_relaxed) %
              opts_.trace_sample ==
          0) {
    req.trace_id = trace_base_ ^ (trace_seq_.load(std::memory_order_relaxed)
                                  << 1) ^ 1;
  }
  // Sampled requests get a dispatch span covering routing + any
  // dispatcher-served fast path (the shard stages record their own);
  // unsampled ops record nothing here.
  std::optional<obs::TraceSpan> dispatch_span;
  if (req.trace_id != 0 && obs::Tracer::instance().enabled())
    dispatch_span.emplace("dispatch", obs::TraceKind::kOp,
                          static_cast<uint32_t>(req.op), req.trace_id);
  // kStats is answered here on the submitter's thread (both transports
  // funnel through submit), never routed to a shard — a scrape must not
  // count as a shard op or join a group-commit batch.
  if (req.op == OpCode::kStats) {
    Response r;
    r.status = Status::kOk;
    r.value = req.value == "json" ? stats_json(*this) : stats_prometheus(*this);
    if (r.value.size() > kMaxStatsPayload) {
      // Truncate on a line boundary so the payload stays parseable.
      const size_t cut = r.value.rfind('\n', kMaxStatsPayload);
      r.value.resize(cut == std::string::npos ? kMaxStatsPayload : cut + 1);
    }
    answer(std::move(r));
    return true;
  }
  // Replication control plane (DESIGN.md §9): these never touch a shard
  // queue directly. A REPL_BATCH is only applied by a live follower; its
  // response is the fence confirmation the primary's quorum counting
  // relies on, so any wrong-role delivery must be refused, not absorbed.
  if (req.op == OpCode::kReplBatch) {
    if (applier_ && promo_.accepts_repl_batches()) {
      applier_->apply(std::move(req), std::move(ack));
      return true;
    }
    answer(Response{Status::kNotPrimary, {}, 0});
    return true;
  }
  if (req.op == OpCode::kReplAck) {
    Response r;
    r.status = encode_repl_positions(repl_positions(), &r.value)
                   ? Status::kOk
                   : Status::kBadRequest;
    answer(std::move(r));
    return true;
  }
  if (req.op == OpCode::kPromote) {
    // Tail replay + role flip; concurrent PROMOTEs serialize inside the
    // machine and all report the same success (idempotent).
    promo_.promote([this] { drain_shard_queues(); });
    Response r;
    r.status = encode_repl_positions(repl_positions(), &r.value)
                   ? Status::kOk
                   : Status::kBadRequest;
    answer(std::move(r));
    return true;
  }
  // Dispatcher read fast path: HART's optimistic read protocol makes a
  // search from this thread lock-free and safe against the shard worker's
  // concurrent writes, so point and batch reads never queue behind a
  // group-commit batch. kMget/kScan span shards and are always answered
  // here; kGet only when the fast path is enabled (see Options).
  if (req.op == OpCode::kMget) {
    answer(serve_mget(req));
    return true;
  }
  if (req.op == OpCode::kScan) {
    answer(serve_scan(req));
    return true;
  }
  if (req.op == OpCode::kGet && fastpath_gets_) {
    answer(serve_get(req));
    return true;
  }
  // Role gate: only a primary accepts client writes. Followers (and a
  // node mid-promotion, whose drain must see a frozen queue tail) refuse
  // with kNotPrimary so clients redirect instead of silently diverging
  // from the replication stream.
  if (is_write(req.op) && !promo_.accepts_writes()) {
    write_rejected_counter().inc();
    answer(Response{Status::kNotPrimary, {}, 0});
    return true;
  }
  // Bloom short-circuit for queued GETs (the kGet fast path is off — the
  // rwlock-reads ablation): a definitive miss is answered here without
  // ever entering the shard queue. Consistent with the fast path above,
  // which also serves reads ahead of queued unacked writes.
  if (req.op == OpCode::kGet &&
      !shards_[shard_of(req.key)]->bloom_may_contain(req.key)) {
    bloom_negative_counter().inc();
    answer(Response{Status::kNotFound, {}, 0});
    return true;
  }
  Shard& s = *shards_[shard_of(req.key)];
  if (!s.submit(std::move(req), ack)) {
    answer(Response{Status::kShuttingDown, {}, 0});
    return false;
  }
  return true;
}

std::vector<ReplPosition> Hartd::repl_positions() const {
  if (applier_) return applier_->positions();
  if (repl_) return repl_->tail_positions();
  return {};
}

void Hartd::drain_shard_queues() {
  struct Latch {
    common::Mutex mu;
    common::CondVar cv;
    size_t n GUARDED_BY(mu) = 0;
  };
  auto latch = std::make_shared<Latch>();
  {
    common::MutexLock lk(latch->mu);
    latch->n = shards_.size();
  }
  auto arrive = [latch] {
    common::MutexLock lk(latch->mu);
    if (--latch->n == 0) latch->cv.notify_all();
  };
  for (auto& s : shards_) {
    Request ping;
    ping.op = OpCode::kPing;
    if (!s->submit(std::move(ping),
                   [arrive](Response, WakeList&) { arrive(); }))
      arrive();
  }
  common::MutexLock lk(latch->mu);
  while (latch->n > 0) latch->cv.wait(latch->mu);
}

Response Hartd::serve_get(const Request& req) {
  Response r;
  Shard& s = *shards_[shard_of(req.key)];
  if (s.failed()) {
    r.status = Status::kShardFailed;
    return r;
  }
  // Bloom guard: a definitive miss never descends into the Hart at all.
  if (!s.bloom_may_contain(req.key)) {
    bloom_negative_counter().inc();
    r.status = Status::kNotFound;
    fastpath_reads_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  r.status = wire_status(s.hart().search(req.key, &r.value));
  if (r.status == Status::kNotFound && s.has_bloom())
    bloom_fp_counter().inc();
  fastpath_reads_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Response Hartd::serve_mget(const Request& req) {
  Response r;
  std::vector<std::string> keys;
  if (!decode_mget_keys(req.value, &keys)) {
    r.status = Status::kBadRequest;
    return r;
  }
  const size_t n = keys.size();
  std::vector<std::string> vals(n);
  std::vector<bool> found(n, false);
  // Group request slots by shard so each shard's keys are served with a
  // single Hart::multi_get (one EBR guard, partition-grouped probing).
  // Bloom-filtered keys never join a group: found[i] stays false and the
  // shard is not probed for them.
  std::vector<std::vector<size_t>> groups(shards_.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t si = shard_of(keys[i]);
    if (!shards_[si]->bloom_may_contain(keys[i])) {
      bloom_negative_counter().inc();
      continue;
    }
    groups[si].push_back(i);
  }
  std::vector<std::string> gkeys;
  std::vector<std::string> gvals;
  std::vector<bool> gfound;
  for (size_t si = 0; si < shards_.size(); ++si) {
    if (groups[si].empty()) continue;
    if (shards_[si]->failed()) {
      r.status = Status::kShardFailed;
      return r;
    }
    gkeys.clear();
    for (const size_t i : groups[si]) gkeys.push_back(keys[i]);
    shards_[si]->hart().multi_get(gkeys, &gvals, &gfound);
    for (size_t j = 0; j < groups[si].size(); ++j) {
      vals[groups[si][j]] = std::move(gvals[j]);
      found[groups[si][j]] = gfound[j];
      if (!gfound[j] && shards_[si]->has_bloom()) bloom_fp_counter().inc();
    }
  }
  r.status = encode_mget_result(vals, found, &r.value) ? Status::kOk
                                                       : Status::kBadRequest;
  fastpath_reads_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Response Hartd::serve_scan(const Request& req) {
  Response r;
  uint32_t limit = 0;
  if (!decode_scan_limit(req.value, &limit) ||
      !common::validate_key(req.key).ok()) {
    r.status = Status::kBadRequest;
    return r;
  }
  const size_t lim = std::min<size_t>(limit, kMaxBatchEntries);
  // Keys are hash-partitioned across shards, so every shard can hold part
  // of the range: take `lim` from each, merge (each shard's slice is
  // already ascending) and keep the smallest `lim`.
  std::vector<std::pair<std::string, std::string>> all;
  std::vector<std::pair<std::string, std::string>> part;
  for (const auto& s : shards_) {
    if (s->failed()) {
      r.status = Status::kShardFailed;
      return r;
    }
    s->hart().range(req.key, lim, &part);
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(all.begin(), all.end());
  if (all.size() > lim) all.resize(lim);
  r.status = encode_scan_result(all, &r.value) ? Status::kOk
                                               : Status::kBadRequest;
  fastpath_reads_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Response Hartd::execute(Request req) {
  struct Sync {
    common::Mutex mu;
    common::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Response resp GUARDED_BY(mu);
  };
  auto sync = std::make_shared<Sync>();
  submit(std::move(req), [sync](Response r, WakeList& wake) {
    common::MutexLock lk(sync->mu);
    sync->resp = std::move(r);
    sync->done = true;
    // Aliasing pointer: keeps the Sync alive until the wake fires.
    wake.add(std::shared_ptr<common::CondVar>(sync, &sync->cv));
  });
  common::MutexLock lk(sync->mu);
  while (!sync->done) sync->cv.wait(sync->mu);
  return std::move(sync->resp);
}

void Hartd::shutdown() {
  if (down_.exchange(true)) return;
  // Shards first: joining the workers flushes every queued batch through
  // the batch sink, so the replication log holds the final tail before the
  // links drain it. Bounded drain — a dead follower must not hang exit.
  for (auto& s : shards_) s->shutdown();
  if (repl_) {
    repl_->drain(std::chrono::seconds(5));
    repl_->shutdown();
  }
}

size_t Hartd::total_size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    const Shard& sh = *s;
    n += sh.hart().size();
  }
  return n;
}

}  // namespace hart::server
