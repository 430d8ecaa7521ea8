// One hartd shard: a private pmem::Arena + Hart, an MPSC submission queue
// and a worker thread that drains requests in batches and group-commits
// persists — one Hart::flush_epoch() fence per batch that performed a
// write, with every request in the batch acked only after that epoch's
// persistent() completed. See DESIGN.md §5.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "common/annotations.h"
#include "common/bloom.h"
#include "common/histogram.h"
#include "hart/hart.h"
#include "pmem/arena.h"
#include "server/ack.h"
#include "server/proto.h"
#include "server/queue.h"

namespace hart::server {

struct ShardStats {
  std::atomic<uint64_t> ops{0};         // requests applied (any status)
  std::atomic<uint64_t> write_acks{0};  // durable writes acked
  std::atomic<uint64_t> batches{0};     // batches drained
  std::atomic<uint64_t> epochs{0};      // group-commit fences issued
  std::atomic<uint64_t> failed{0};      // requests refused after a crash point
  std::atomic<uint64_t> device_ns{0};   // deferred PM latency paid per batch
};

/// HARTscope: per-shard apply-time latency, split by operation, plus the
/// group-commit fence. Indices follow op_hist_index().
///
/// Stage attribution (HARTscope v2): every queued op additionally lands in
/// the per-shard stage histograms —
///   queue_wait       submit() -> worker dequeue (MPSC queue residency)
///   batch_residency  dequeue -> ack-ready (apply + fence + device pay,
///                    shared by every op of the batch)
///   fence_wait       apply end -> post-fence for fenced writes only (how
///                    long a write waited on the amortized epoch fence)
/// The fourth stage, repl-wait-for-quorum, is owned by repl::Replicator
/// (the parking lot lives there). All are well-defined zeros when empty.
struct ShardHistograms {
  static constexpr size_t kOps = 4;  // insert / get / update / delete
  std::array<common::LatencyHistogram, kOps> op;
  common::LatencyHistogram fence;
  common::LatencyHistogram queue_wait;
  common::LatencyHistogram batch_residency;
  common::LatencyHistogram fence_wait;
};

/// Histogram slot for a KV op; SIZE_MAX for kPing/kStats (not timed).
inline size_t op_hist_index(OpCode op) {
  switch (op) {
    case OpCode::kPut: return 0;
    case OpCode::kGet: return 1;
    case OpCode::kUpdate: return 2;
    case OpCode::kDelete: return 3;
    default: return SIZE_MAX;
  }
}

inline const char* op_hist_name(size_t idx) {
  static constexpr const char* kNames[ShardHistograms::kOps] = {
      "insert", "get", "update", "delete"};
  return kNames[idx];
}

/// Index API v2 -> wire status. kInserted is only produced by insert and
/// keeps the wire meaning of kOk for kPut (fresh key); kInvalidArgument
/// maps to kBadRequest — the index rejected the key/value before touching
/// anything, so the server keeps serving.
inline Status wire_status(common::Status s) {
  switch (s.code()) {
    case common::Status::kOk:
    case common::Status::kInserted:
      return Status::kOk;
    case common::Status::kUpdated:
      return Status::kUpdated;
    case common::Status::kNotFound:
      return Status::kNotFound;
    default:
      return Status::kBadRequest;
  }
}

/// A batch's durable writes, handed to the replication sink right after the
/// batch's group-commit fence completed on the worker thread: the entries
/// in apply order, the fence epoch, and — when the shard runs with
/// deferred write acks (quorum ack policy) — the write acks the sink now
/// owns and must fire exactly once when the ack policy is satisfied, with
/// a wake list of its own that it drains after its last ack.
/// Reads, refused requests and failed writes are always acked by the shard
/// itself and never appear here.
struct DurableBatch {
  uint64_t epoch = 0;
  std::vector<ReplEntry> entries;
  struct DeferredAck {
    Ack ack;
    Response resp;
    uint64_t trace_id = 0;  // nonzero: record a quorum_ack span on release
  };
  std::vector<DeferredAck> deferred;
};

class Shard {
 public:
  /// Completion callback. Invoked exactly once per submitted request, from
  /// the shard worker, which completes every response of a batch before it
  /// drains the batch's wake list: each waiting thread wakes once per batch.
  using Ack = server::Ack;

  /// Post-fence replication hook, called on the worker thread with every
  /// batch that durably applied at least one write.
  using BatchSink = std::function<void(size_t shard_index, DurableBatch&&)>;

  struct Options {
    size_t index = 0;
    pmem::Arena::Options arena;  // file_path already chosen by the caller
    core::Hart::Options hart;
    size_t batch_size = 32;
    size_t queue_capacity = 4096;
    /// When set, every fenced batch's writes are forwarded (see
    /// DurableBatch). With `defer_write_acks` the sink also takes over
    /// firing the batch's write acks — the quorum ack policy.
    BatchSink batch_sink;
    bool defer_write_acks = false;
    /// Counting Bloom filter in front of the Hart for dispatcher-side
    /// negative-lookup short-circuit (0 = off). DRAM cost is about
    /// expected_keys * bits_per_key / 2 bytes per shard.
    size_t bloom_bits_per_key = 0;
    /// Keys the filter is sized for; grown to the recovered key count when
    /// an existing arena holds more.
    size_t bloom_expected_keys = size_t{1} << 20;
    /// Structured slow-op log threshold: a request whose submit->ack-ready
    /// time exceeds this emits one stderr line with its full stage
    /// breakdown (and bumps hartd_slow_ops_total). 0 = disabled.
    uint64_t slow_op_us = 0;
  };

  /// Opens the arena (recovering an existing file-backed HART) and starts
  /// the worker.
  explicit Shard(const Options& opts);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Enqueue a request. Returns false without invoking `ack` when the
  /// shard is shutting down (the caller acks kShuttingDown itself).
  bool submit(Request req, Ack ack);

  /// Graceful: close the queue, drain every pending batch (their acks all
  /// fire), join the worker, quiesce the Hart. Idempotent.
  void shutdown();

  [[nodiscard]] core::Hart& hart() { return *hart_; }
  [[nodiscard]] const core::Hart& hart() const { return *hart_; }
  [[nodiscard]] pmem::Arena& arena() { return *arena_; }
  [[nodiscard]] const pmem::Arena& arena() const { return *arena_; }
  [[nodiscard]] const ShardStats& stats() const { return stats_; }
  /// Copy of the per-op latency histograms (worker writes, scrapes read).
  [[nodiscard]] ShardHistograms histograms() const {
    common::MutexLock lk(hist_mu_);
    return hists_;
  }
  /// True once a simulated crash point fired in the worker; subsequent
  /// requests are refused with kShardFailed and never acked as durable.
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] size_t index() const { return opts_.index; }

  /// Dispatcher fast path: false means the key is definitively absent
  /// (the GET can be answered kNotFound without enqueueing; no false
  /// negatives — see common::CountingBloom). Always true with no filter.
  [[nodiscard]] bool bloom_may_contain(std::string_view key) const {
    return bloom_ == nullptr || bloom_->may_contain(key);
  }
  [[nodiscard]] bool has_bloom() const { return bloom_ != nullptr; }

 private:
  struct Pending {
    Request req;
    Ack ack;
    Response resp;
    uint64_t enq_ns = 0;       // stamped by submit(): queue-wait start
    uint64_t apply_end_ns = 0; // stamped by the worker after apply()
    bool fence = false;  // performed a durable write: ack after the epoch
  };

  void worker();
  void apply(Pending* p);

  Options opts_;
  std::unique_ptr<pmem::Arena> arena_;
  std::unique_ptr<core::Hart> hart_;
  // Built (and recovery-rebuilt) in the constructor before worker_ starts;
  // mutated only by the worker (apply), probed lock-free by dispatchers.
  std::unique_ptr<common::CountingBloom> bloom_;
  MpscQueue<Pending> queue_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> down_{false};
  ShardStats stats_;
  mutable common::Mutex hist_mu_;  // worker records, scrapes copy
  ShardHistograms hists_ GUARDED_BY(hist_mu_);
  std::thread worker_;  // last: started after everything above is live
};

}  // namespace hart::server
