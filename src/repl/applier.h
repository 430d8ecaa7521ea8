// hartrepl follower applier — applies REPL_BATCH frames through the
// normal shard path and answers each one only after every entry's group
// fence completed, so the response a follower sends IS its durability
// confirmation for that wire batch.
//
// Ordering: one primary stream's entries scatter across the follower's
// own shards (keys re-route by the follower's shard count), so seq N+1
// can finish fencing before seq N. The applier therefore releases
// REPL_BATCH acks in per-stream seq order — the primary's confirmed
// high-water for a stream truthfully implies every received seq <= S is
// durable here. Replay after reconnect is idempotent: a seq at or below
// the released high-water re-applies (PUT/UPDATE overwrite, DELETE of a
// missing key reports kNotFound which counts as success) and is re-acked.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/annotations.h"
#include "obs/counters.h"
#include "server/ack.h"
#include "server/proto.h"

namespace hart::repl {

class FollowerApplier {
 public:
  /// The REPL_BATCH request's ack; fired with the wake list of whoever
  /// completes the batch (see server::Ack).
  using Ack = server::Ack;
  /// Routes one replicated write into the follower's shard path. MUST
  /// invoke the ack exactly once, even on refusal (queue closed, shard
  /// failed) — the applier counts acks to detect batch completion.
  using SubmitFn = std::function<void(server::Request&&, Ack)>;

  explicit FollowerApplier(SubmitFn submit);
  FollowerApplier(const FollowerApplier&) = delete;
  FollowerApplier& operator=(const FollowerApplier&) = delete;
  /// The owner must drain the shard path (all submitted acks fired)
  /// before destroying the applier — in-flight entry callbacks hold
  /// `this`.
  ~FollowerApplier() = default;

  /// Handle one kReplBatch request; `ack` fires once, in per-stream seq
  /// order relative to other batches of the same stream. Runs on the
  /// dispatcher's connection thread.
  void apply(server::Request&& req, Ack ack);

  /// Applied position of every stream this follower has seen (for the
  /// REPL_ACK position query). Epoch is the follower's own group-commit
  /// epoch, not the primary's.
  [[nodiscard]] std::vector<server::ReplPosition> positions() const;

  /// Follower-side replication health: wire batches received but not yet
  /// released (still applying or parked for ordered release) and their
  /// payload bytes, plus how stale the last release is. The age is 0 when
  /// the backlog is empty — same convergence semantics as the primary's
  /// LinkHealth, so hartd_repl_lag_* gauges read the same on both roles.
  struct Health {
    uint64_t backlog_batches = 0;
    uint64_t backlog_bytes = 0;
    uint64_t last_apply_age_ms = 0;
  };
  [[nodiscard]] Health health() const;

 private:
  struct BatchCtx;

  struct DoneEntry {
    server::Response resp;
    Ack ack;
    size_t entries = 0;
    uint64_t bytes = 0;  // wire payload size, drains backlog_bytes
    bool success = false;
  };

  struct StreamState {
    uint64_t applied = 0;        // released high-water seq
    uint64_t applied_epoch = 0;  // follower epoch of that release
    uint64_t inflight_bytes = 0; // payload bytes received, not yet released
    std::map<uint64_t, size_t> inflight;      // seq -> count being applied
    std::map<uint64_t, DoneEntry> done;       // fenced, awaiting ordered release
  };

  /// All entry fences for (stream, seq) completed; stash and release in
  /// order. Released acks queue their waiters on `wake`, which the caller
  /// drains.
  void batch_done(uint32_t stream, uint64_t seq, DoneEntry&& done,
                  server::WakeList& wake);
  void drop_inflight(StreamState* st, uint64_t seq) REQUIRES(mu_);

  SubmitFn submit_;
  mutable common::Mutex mu_;
  std::map<uint32_t, StreamState> streams_ GUARDED_BY(mu_);
  uint64_t last_release_ns_ GUARDED_BY(mu_) = 0;  // mono, last ordered release
  uint64_t start_ns_ = 0;  // mono at construction

  obs::Counter& batches_applied_;
  obs::Counter& entries_applied_;
  obs::Counter& batch_errors_;
};

}  // namespace hart::repl
