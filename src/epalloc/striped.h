// StripedAllocator — striped, DRAM-shadowed implementation of the
// epalloc::Allocator interface (PR 10; the HESH/Dash recipe from ROADMAP
// item 2).
//
// The persistent format is EXACTLY the legacy EPAllocator's: per-type
// chunk lists rooted in EPRoot, 8-byte failure-atomic chunk headers, the
// shared recycle/update micro-logs. What changes is the volatile side and
// the persistence schedule:
//
//  * Striping. Volatile chunk metadata is partitioned into S stripes
//    (modeled per-DIMM sub-allocators) by a deterministic map,
//    stripe(chunk) = (chunk_off / stride) mod S — no ownership table, so
//    any thread can find a chunk's stripe lock-free. Each stripe has its
//    own mutex, chunk map and free list, so writers on different stripes
//    never contend.
//  * Thread equalization. Each thread gets a round-robin home stripe and
//    allocates there first, stealing from (home+k) mod S only when its
//    stripe is out of space (counted in epalloc_stripe_steals_total).
//  * DRAM shadow bitmaps. Every chunk's occupancy bitmap is mirrored in
//    its ChunkState (`shadow`), kept exactly equal to the PM header word
//    — header *stores* remain immediate 8-byte atomic stores so lock-free
//    bit_probe readers are unaffected — and all allocation decisions read
//    the shadow, never PM.
//  * Batched metadata persistence (batched_meta). Chunk-header persists
//    are deferred: mutated headers are marked dirty and flushed by
//    flush_metadata(), which Hart::flush_epoch() invokes just before the
//    epoch stamp persists — the group-commit fence the service already
//    pays. Freed slots stay `pending` (not reusable) until their cleared
//    header is durable; otherwise a crash could resurrect a
//    half-overwritten slot under a stale set bit. Chunk-list links,
//    micro-logs and object payloads keep their eager persist schedule —
//    only the per-op bitmap flush is batched away.
//
// Crash model in batched mode: commits/frees since the last fence may not
// be durable — identical to losing the unacked tail of a group-commit
// batch, which the service already tolerates. Each header is one atomic
// 8-byte word, so recovery always sees a consistent (possibly slightly
// stale) bitmap and the standard Algorithm 7 walk + stale-value probe
// reclaim anything orphaned.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "epalloc/allocator.h"
#include "epalloc/chunk.h"
#include "epalloc/micrologs.h"
#include "pmem/arena.h"

namespace hart::epalloc {

class StripedAllocator final : public Allocator {
 public:
  /// `root` must live in the arena header (persistent). On a fresh arena it
  /// must be zero; on reopen call recover_structure() before any use.
  /// `stripes` must be >= 1 (make_allocator resolves 0 = auto).
  StripedAllocator(pmem::Arena& arena, EPRoot* root, uint32_t leaf_obj_size,
                   LeafProbeFn probe, LeafClearFn clear, uint32_t stripes,
                   bool batched_meta);
  ~StripedAllocator() override;

  StripedAllocator(const StripedAllocator&) = delete;
  StripedAllocator& operator=(const StripedAllocator&) = delete;

  common::Status reserve(ObjType t, uint64_t* obj_off) override;
  void commit(ObjType t, uint64_t obj_off) override;
  void release(ObjType t, uint64_t obj_off) override;
  void free_object(ObjType t, uint64_t obj_off) override;
  void free_leaf_with_value(uint64_t leaf_off, ObjType vcls,
                            uint64_t val_off) override;
  void free_object_retired(ObjType t, uint64_t obj_off) override;
  void free_leaf_with_value_retired(uint64_t leaf_off, ObjType vcls,
                                    uint64_t val_off) override;
  void release_retired(ObjType t, uint64_t obj_off) override;
  void recycle_chunk_of(ObjType t, uint64_t obj_off) override;

  [[nodiscard]] bool bit_is_set(ObjType t, uint64_t obj_off) const override;
  [[nodiscard]] bool bit_probe(ObjType t, uint64_t obj_off) const override;
  [[nodiscard]] const TypeGeometry& geom(ObjType t) const override {
    return types_[static_cast<int>(t)].geom;
  }

  void flush_metadata(uint64_t epoch) override;
  [[nodiscard]] uint32_t stripe_count() const override { return nstripes_; }
  [[nodiscard]] const char* kind_name() const override { return "striped"; }

  UpdateLog* acquire_ulog() override;
  void reclaim_ulog(UpdateLog* log) override;

  void recover_structure() override;
  void for_each_live(ObjType t,
                     const std::function<void(uint64_t)>& f) const override;
  [[nodiscard]] std::vector<uint64_t> chunk_offsets(ObjType t) const override;

  [[nodiscard]] uint64_t live_objects(ObjType t) const override;
  [[nodiscard]] uint64_t chunk_count(ObjType t) const override;
  [[nodiscard]] uint64_t list_head(ObjType t) const override {
    return root_->heads[static_cast<int>(t)];
  }

 private:
  struct ChunkState {
    uint64_t shadow = 0;    // DRAM mirror of the PM header's bitmap
    uint64_t reserved = 0;  // volatile reservation bitmap
    uint64_t retired = 0;   // volatile: freed, awaiting EBR grace period
    uint64_t pending = 0;   // freed, but the cleared header is not yet
                            // durable; blocks reuse until flush_metadata
    bool dirty = false;     // header persist deferred to flush_metadata
    bool in_avail = false;
  };
  struct Stripe {
    mutable common::Mutex mu;
    std::unordered_map<uint64_t, ChunkState> chunks GUARDED_BY(mu);
    // Chunks that may have a reservable slot.
    std::vector<uint64_t> avail GUARDED_BY(mu);
    // Chunks with a deferred header persist (entries may go stale when a
    // chunk is recycled; the dirty flag is authoritative).
    std::vector<uint64_t> dirty_chunks GUARDED_BY(mu);
  };
  struct TypeState {
    TypeGeometry geom;  // immutable after construction; not guarded
    /// Serializes chunk-list mutations (link a new chunk, unlink on
    /// recycle) and the volatile->persistent head word. Lock order:
    /// head_mu -> any stripe mu -> rlog_mu_.
    mutable common::Mutex head_mu;
    std::deque<Stripe> stripes;  // deque: Stripe is not movable
  };

  TypeState& ts(ObjType t) { return types_[static_cast<int>(t)]; }
  const TypeState& ts(ObjType t) const {
    return types_[static_cast<int>(t)];
  }
  MemChunk* chunk_ptr(uint64_t off) const {
    return arena_.ptr<MemChunk>(off);
  }
  Stripe& stripe_for(const TypeState& st, uint64_t chunk_off) const {
    return const_cast<TypeState&>(st)
        .stripes[(chunk_off / st.geom.stride) % nstripes_];
  }

  /// ep_malloc semantics; throws std::bad_alloc on arena exhaustion.
  uint64_t reserve_impl(ObjType t);
  bool try_reserve_in_stripe(TypeState& st, Stripe& s, uint64_t* obj_off);
  uint64_t new_chunk_list_locked(TypeState& st, ObjType t)
      REQUIRES(st.head_mu);
  void free_slot_locked(TypeState& st, Stripe& s, uint64_t obj_off,
                        bool retire) REQUIRES(s.mu);
  void make_available_locked(Stripe& s, uint64_t chunk_off, ChunkState& cs)
      REQUIRES(s.mu);
  void mark_dirty_locked(Stripe& s, uint64_t chunk_off, ChunkState& cs)
      REQUIRES(s.mu);
  void persist_head(ObjType t);

  void finish_recycle_log();

  pmem::Arena& arena_;
  EPRoot* root_;
  LeafProbeFn probe_;
  LeafClearFn clear_;
  const uint32_t nstripes_;
  const bool batched_;
  TypeState types_[kNumObjTypes];
  // Bitmasks over kUpdateLogSlots (<= 32): the line-contained slots that
  // may be handed out, and those in flight.
  const uint32_t ulog_slots_;
  common::Mutex ulog_mu_;
  uint32_t ulog_busy_ GUARDED_BY(ulog_mu_) = 0;
  /// Serializes all use of the single shared persistent RecycleLog (same
  /// argument as the legacy allocator — see epalloc.h). Acquired after a
  /// stripe mutex, never the other way around.
  common::Mutex rlog_mu_;
};

}  // namespace hart::epalloc
