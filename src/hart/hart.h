// HART — Hash-assisted Adaptive Radix Tree (the paper's contribution).
//
// Structure (paper Fig. 1): a DRAM hash table maps the first kh bytes of a
// key to an ART whose internal nodes live in DRAM and whose leaf nodes live
// in PM, managed by EPallocator. Selective consistency/persistence
// (Section III.A.2): only leaves and values are persisted; the hash table
// and all internal nodes are reconstructable from the leaves (Algorithm 7).
// Writers take one writer lock per ART (Section III.A.3); readers run
// lock-free by default via optimistic node versioning plus epoch-based
// reclamation (DESIGN.md §7), with Options::rwlock_reads restoring the
// paper's reader/writer-lock read path as an ablation.
#pragma once

#include <atomic>
#include <memory>
#include <string_view>

#include "common/ebr.h"
#include "common/index.h"
#include "epalloc/allocator.h"
#include "hart/hash_dir.h"
#include "hart/hart_leaf.h"
#include "pmem/arena.h"

namespace hart::core {

/// Signature of a HART root in an arena ("HARTROOT").
inline constexpr uint64_t kHartRootMagic = 0x48415254'524f4f54ULL;

/// Persistent root of a HART instance, stored in the arena header. Contains
/// everything needed to recover: the EPallocator chunk lists (the leaf list
/// is the recovery index) and the micro-logs.
struct HartRoot {
  uint64_t magic;
  uint32_t hash_key_len;
  uint32_t reserved;
  /// Group-commit epoch stamp (see flush_epoch()). Monotone; persisted by
  /// the epoch fence, so after recovery it lower-bounds the number of
  /// completed commit epochs.
  uint64_t epoch;
  epalloc::EPRoot ep;
};

class Hart final : public common::Index {
 public:
  struct Options {
    /// kh: number of key bytes consumed by the hash table (paper default 2;
    /// 0 degenerates to a single ART — the "no hash assist" ablation).
    uint32_t hash_key_len = 2;
    /// Bucket count of the DRAM hash table (power of two).
    size_t hash_buckets = size_t{1} << 16;
    /// Ablation: take the paper's per-ART reader/writer lock on the read
    /// side (Section III.A.3) instead of the optimistic lock-free read
    /// path. Reads then never retry, but serialize against writers; node
    /// and slot frees become eager (no EBR deferral).
    bool rwlock_reads = false;
    /// One-byte key fingerprints (FPTree-style) in every tagged leaf
    /// pointer, checked before the leaf's PM key bytes are read — misses
    /// and hash-collision probes skip PM entirely. The persisted copy
    /// lives in HartLeaf::key_fp (written with the leaf tail, no extra
    /// flush); recovery rebuilds the DRAM tags from the key bytes. Off is
    /// the ablation baseline.
    bool fingerprints = true;
    /// PM allocator selection: striped vs legacy, stripe count, and whether
    /// chunk-header persists batch onto the flush_epoch() fence. Bare Hart
    /// embedders default to eager metadata persists (per-op durability, as
    /// the crash tests require); the service turns batching on because its
    /// acks already wait for the epoch fence.
    epalloc::AllocOptions alloc;
  };

  /// Opens a HART on `arena`. A fresh arena is initialized; an arena whose
  /// root carries a valid HART signature is recovered (Algorithm 7).
  explicit Hart(pmem::Arena& arena) : Hart(arena, Options{}) {}
  Hart(pmem::Arena& arena, Options opts);
  /// Drains the EBR domain: every node/slot this Hart retired is freed
  /// before the trees and allocator state go away.
  ~Hart() override;

  // ---- common::Index -----------------------------------------------------
  common::Status insert(std::string_view key, std::string_view value) override;
  common::Status search(std::string_view key, std::string* out) const override;
  common::Status update(std::string_view key, std::string_view value) override;
  common::Status remove(std::string_view key) override;
  size_t range(std::string_view lo, size_t limit,
               std::vector<std::pair<std::string, std::string>>* out)
      const override;
  size_t size() const override {
    return count_.load(std::memory_order_relaxed);
  }
  common::MemoryUsage memory_usage() const override;
  const char* name() const override { return "HART"; }

  // ---- HART-specific -----------------------------------------------------
  /// Batched point lookups: groups the keys by hash partition and takes
  /// each ART's read lock once, amortizing lock acquisition (an extension;
  /// useful for the multi-get pattern of KV-store front ends).
  /// `out[i]` is set to the value of `keys[i]`; returns the hit count.
  /// Misses leave `out[i]` empty with `found[i] == false`.
  size_t multi_get(const std::vector<std::string>& keys,
                   std::vector<std::string>* out,
                   std::vector<bool>* found) const;

  /// Rebuild all DRAM state from PM (Algorithm 7). Invoked automatically
  /// when the constructor finds an existing HART in the arena; exposed for
  /// the recovery experiment (Fig. 10c) and crash tests.
  ///
  /// `threads > 1` distributes the leaf chunks over worker threads (an
  /// extension beyond the paper — safe because partition creation is
  /// lock-free and every tree insert takes its partition's write lock).
  void recover(unsigned threads = 1);

  /// Group-commit epoch fence (the service layer's batching hook): flushes
  /// the allocator's deferred chunk-header persists (Allocator::
  /// flush_metadata — a no-op unless Options::alloc.batched_meta), then
  /// stamps and persists the root's epoch counter with ONE persistent()
  /// call and returns the new epoch. Every operation that returned before
  /// this call is durable once flush_epoch() returns — each op already
  /// persists its own data, so the fence is the per-batch "final fence"
  /// that a real PM group commit would amortize (one fence per batch
  /// instead of per op). Callers must serialize calls per Hart (one
  /// committer thread).
  uint64_t flush_epoch();
  /// The last epoch returned by flush_epoch() (0 before the first fence).
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Drain: acquire and release every partition's write lock, so every
  /// operation that was in flight when quiesce() was called has completed
  /// (and any later operation observes all of them). Used by the service
  /// layer's graceful shutdown before closing the arena.
  void quiesce();

  /// Enumerate the full key of every live leaf straight from the
  /// EPallocator's chunk lists (no tree descent; unordered). Used by the
  /// service layer to rebuild per-shard Bloom filters after recovery.
  /// Requires quiescence (no concurrent writers), same as recover().
  template <class F>
  void for_each_key(F&& fn) const {
    ep_->for_each_live(epalloc::ObjType::kLeaf, [&](uint64_t off) {
      const auto* leaf = arena_.ptr<HartLeaf>(off);
      fn(std::string_view(leaf->key, leaf->key_len));
    });
  }

  [[nodiscard]] uint32_t hash_key_len() const { return opts_.hash_key_len; }
  [[nodiscard]] size_t partition_count() const {
    return dir_.partition_count();
  }
  [[nodiscard]] epalloc::Allocator& allocator() { return *ep_; }
  [[nodiscard]] const epalloc::Allocator& allocator() const { return *ep_; }
  [[nodiscard]] pmem::Arena& arena() { return arena_; }

 private:
  static Options resolve_options(pmem::Arena& arena, Options opts);
  [[nodiscard]] art::Key art_key(std::string_view key) const {
    const size_t h =
        opts_.hash_key_len < key.size() ? opts_.hash_key_len : key.size();
    return {reinterpret_cast<const uint8_t*>(key.data()) + h,
            key.size() - h};
  }
  /// Algorithm 3 (out-of-place update with the update micro-log). The
  /// partition's write lock must be held, and in optimistic mode the caller
  /// must be pinned (the superseded value slot is retired through EBR).
  /// kOk on success; kOutOfMemory when the new value cannot be allocated
  /// (the old value is untouched and the log is reclaimed).
  common::Status update_locked(HartLeaf* leaf, std::string_view value)
      REQUIRES_EBR_PIN;
  /// Redo/abort in-flight updates after a crash (Algorithm 3's recovery
  /// case analysis).
  void replay_update_logs();
  /// Clear stale value references left in free leaf slots, then free
  /// committed values no leaf slot references (batched-metadata crash
  /// repair). Runs after the leaf walk.
  void sweep_orphaned_values();

  // ---- optimistic read path (ISSUE 5 tentpole) --------------------------
  /// True when the lock-free read path (and hence EBR deferral) is active.
  [[nodiscard]] bool optimistic() const { return !opts_.rwlock_reads; }
  /// Reads the leaf's value under its vseq seqlock. Returns 1 on success
  /// (out filled), 0 when the leaf is deleted (p_value == 0), -1 when the
  /// read raced an update and the caller should retry or fall back.
  int read_leaf_value_optimistic(const HartLeaf* leaf,
                                 std::string* out) const;
  /// Defer reuse of a freed PM slot until the reader grace period elapses.
  void retire_slot(epalloc::ObjType cls, uint64_t off) REQUIRES_EBR_PIN;
  static void retire_slot_cb(void* packed, void* self);

  pmem::Arena& arena_;
  Options opts_;
  HartRoot* root_;
  std::unique_ptr<epalloc::Allocator> ep_;
  std::atomic<uint64_t> dram_bytes_{0};
  HashDir dir_;
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> epoch_{0};
};

/// Ordered stateful scan over a Hart (an extension beyond the paper's
/// one-shot range query). Batches entries internally and re-seeks between
/// batches, so it holds no lock while the caller consumes entries.
/// Concurrent-writer semantics are read-committed per batch: entries
/// inserted or removed mid-scan may or may not be observed.
class HartCursor {
 public:
  HartCursor(const Hart& hart, std::string_view start,
             size_t batch_size = 256);

  [[nodiscard]] bool valid() const { return pos_ < buf_.size(); }
  [[nodiscard]] const std::string& key() const { return buf_[pos_].first; }
  [[nodiscard]] const std::string& value() const {
    return buf_[pos_].second;
  }
  /// Advance; refills the batch transparently. After the last entry,
  /// valid() becomes false.
  void next();

 private:
  void refill(const std::string& from, bool skip_equal);

  const Hart& hart_;
  size_t batch_size_;
  std::vector<std::pair<std::string, std::string>> buf_;
  size_t pos_ = 0;
};

}  // namespace hart::core
