// EPallocator — the paper's enhanced persistent memory allocator
// (Section III.A.4-6, Algorithms 2 and 6).
//
// Instead of persisting allocator metadata per object, EPallocator hands out
// objects from 56-object chunks whose single 8-byte header word (bitmap +
// hint + full indicator) is updated failure-atomically. Chunks of each type
// form a singly linked persistent list rooted in EPRoot, which is both the
// recovery index (Algorithm 7 walks the leaf list) and the leak-prevention
// device: an object's bit is set only *after* the object is fully linked
// into the index, so a crash in between leaves the slot free.
//
// Two-phase allocation: ep_malloc() returns a *reserved* object (volatile
// reservation, so concurrent writers on different ARTs never collide), and
// commit() sets the persistent bit. Reservations evaporate at a crash —
// which is exactly the paper's leak-freedom argument.
//
// This is the *legacy* implementation of the epalloc::Allocator interface
// (allocator.h): one instance per arena, every header mutation persisted
// inline. The striped allocator (striped.h) is the default since PR 10;
// this one stays selectable via --legacy-alloc as the ablation baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "epalloc/allocator.h"
#include "epalloc/chunk.h"
#include "epalloc/micrologs.h"
#include "pmem/arena.h"

namespace hart::epalloc {

class EPAllocator final : public Allocator {
 public:
  // Pre-interface spellings (the probe/clear types moved to namespace scope
  // with the Allocator split; existing embedders qualify them here).
  using LeafValueRef = epalloc::LeafValueRef;
  using LeafProbeFn = epalloc::LeafProbeFn;
  using LeafClearFn = epalloc::LeafClearFn;

  /// `root` must live in the arena header (persistent). On a fresh arena it
  /// must be zero; on reopen call recover_structure() before any use.
  EPAllocator(pmem::Arena& arena, EPRoot* root, uint32_t leaf_obj_size,
              LeafProbeFn probe, LeafClearFn clear);

  EPAllocator(const EPAllocator&) = delete;
  EPAllocator& operator=(const EPAllocator&) = delete;

  /// Algorithm 2. Returns the arena offset of a reserved object. The
  /// persistent bit is not yet set; call commit() once the object is
  /// reachable from the index, or release() to abort. Throws std::bad_alloc
  /// on arena exhaustion (reserve() is the non-throwing spelling).
  uint64_t ep_malloc(ObjType t);

  /// ep_malloc with the arena-exhaustion path surfaced as kOutOfMemory.
  common::Status reserve(ObjType t, uint64_t* obj_off) override;

  /// Set and persist the object's bitmap bit (e.g. Alg. 1 lines 14/18).
  void commit(ObjType t, uint64_t obj_off) override;

  /// Drop a reservation without committing (abort path; no crash involved).
  void release(ObjType t, uint64_t obj_off) override;

  /// Reset and persist the object's bitmap bit (deletion / update paths).
  /// Does not recycle; call recycle_chunk_of() afterwards (Alg. 5/6).
  void free_object(ObjType t, uint64_t obj_off) override;

  /// Deletion path (Alg. 5 lines 11-12 plus the p_value clear deviation,
  /// see DESIGN.md): atomically — with respect to leaf reservations —
  /// reset the leaf bit, reset the value bit, and clear the leaf's value
  /// pointer. Holding the leaf mutex across all three prevents another
  /// writer from reserving the just-freed leaf slot and racing the
  /// stale-value probe against this clear.
  void free_leaf_with_value(uint64_t leaf_off, ObjType vcls,
                            uint64_t val_off) override;

  // ---- EBR-deferred reuse ---------------------------------------------
  // Lock-free readers may still be dereferencing a slot when its owner
  // frees it. The *_retired variants reset the persistent bit eagerly
  // (the delete/update is durable immediately — crash recovery is
  // unchanged) but also set a volatile `retired` bit that keeps ep_malloc
  // from handing the slot out again. Once the reader grace period has
  // elapsed (EBR callback) release_retired() clears the retired bit,
  // makes the chunk allocatable and attempts the deferred chunk recycle.

  /// free_object(), minus making the slot reusable.
  void free_object_retired(ObjType t, uint64_t obj_off) override;

  /// free_leaf_with_value(), minus making either slot reusable.
  void free_leaf_with_value_retired(uint64_t leaf_off, ObjType vcls,
                                    uint64_t val_off) override;

  /// Grace period over: allow reuse and run the deferred EPRecycle.
  /// Tolerates a chunk that no longer exists (freed across a recovery).
  void release_retired(ObjType t, uint64_t obj_off) override;

  /// EPRecycle(MemChunkOf(obj)) — Algorithm 6. Unlinks and frees the chunk
  /// if it contains no used (or reserved) object.
  void recycle_chunk_of(ObjType t, uint64_t obj_off) override;

  [[nodiscard]] bool bit_is_set(ObjType t, uint64_t obj_off) const override;

  /// Lock-free read of an object's persistent bit, for concurrent readers
  /// (HART search validates the leaf bit, Algorithm 4 line 9). Header words
  /// are updated with atomic 8-byte stores, so this is race-free.
  [[nodiscard]] bool bit_probe(ObjType t, uint64_t obj_off) const override;
  [[nodiscard]] const TypeGeometry& geom(ObjType t) const override {
    return types_[static_cast<int>(t)].geom;
  }

  /// Every header persist here is inline, so there is nothing to flush.
  void flush_metadata(uint64_t /*epoch*/) override {}
  [[nodiscard]] uint32_t stripe_count() const override { return 1; }
  [[nodiscard]] const char* kind_name() const override { return "legacy"; }

  // ---- update-log slot pool (Algorithm 3 uses one slot per update) ----
  UpdateLog* acquire_ulog() override;
  /// LogReclaim: zero + persist the slot, return it to the pool.
  void reclaim_ulog(UpdateLog* log) override;

  // ---- recovery -------------------------------------------------------
  /// Structural recovery: finish or roll back the recycle log, rebuild the
  /// arena allocation map from the reachable chunk lists (leak freedom by
  /// construction), and rebuild all volatile state. The caller then replays
  /// its update logs and rebuilds DRAM structures (Algorithm 7).
  void recover_structure() override;

  /// Invoke `f(obj_off)` for every object whose bit is set, in list order.
  void for_each_live(ObjType t,
                     const std::function<void(uint64_t)>& f) const override;

  /// Snapshot of the chunk offsets of one list (parallel recovery shards
  /// the leaf list across workers by chunk).
  [[nodiscard]] std::vector<uint64_t> chunk_offsets(ObjType t) const override;

  // ---- introspection (tests, stats) -----------------------------------
  [[nodiscard]] uint64_t live_objects(ObjType t) const override;
  [[nodiscard]] uint64_t chunk_count(ObjType t) const override;
  [[nodiscard]] uint64_t list_head(ObjType t) const override {
    return root_->heads[static_cast<int>(t)];
  }

 private:
  struct ChunkState {
    uint64_t reserved = 0;  // volatile reservation bitmap
    uint64_t retired = 0;   // volatile: freed, awaiting EBR grace period
    uint64_t prev = 0;      // volatile back-pointer in the chunk list
    bool in_avail = false;
  };
  struct TypeState {
    TypeGeometry geom;  // immutable after construction; not guarded
    mutable common::Mutex mu;
    std::unordered_map<uint64_t, ChunkState> chunks GUARDED_BY(mu);
    // Chunks that may have a free slot.
    std::vector<uint64_t> avail GUARDED_BY(mu);
  };

  TypeState& ts(ObjType t) { return types_[static_cast<int>(t)]; }
  const TypeState& ts(ObjType t) const {
    return types_[static_cast<int>(t)];
  }
  MemChunk* chunk_ptr(uint64_t off) const {
    return arena_.ptr<MemChunk>(off);
  }
  uint64_t new_chunk_locked(TypeState& st, ObjType t) REQUIRES(st.mu);
  void free_object_locked(TypeState& st, uint64_t obj_off) REQUIRES(st.mu);
  void free_object_retired_locked(TypeState& st, uint64_t obj_off)
      REQUIRES(st.mu);
  void make_available_locked(TypeState& st, uint64_t chunk_off,
                             ChunkState& cs) REQUIRES(st.mu);
  void persist_head(ObjType t);
  void finish_recycle_log();

  pmem::Arena& arena_;
  EPRoot* root_;
  LeafProbeFn probe_;
  LeafClearFn clear_;
  TypeState types_[kNumObjTypes];
  // Bitmasks over kUpdateLogSlots (<= 32): the line-contained slots that
  // may be handed out, and those in flight.
  const uint32_t ulog_slots_;
  common::Mutex ulog_mu_;
  uint32_t ulog_busy_ GUARDED_BY(ulog_mu_) = 0;
  /// Serializes all use of the single shared RecycleLog. The per-type mutex
  /// is not enough: chunks of *different* object types can be recycled
  /// concurrently, and without this lock both writers would interleave
  /// their stores into the same log words — a PM race that could make
  /// recovery unlink a chunk with the wrong type's geometry. Acquired
  /// after a TypeState mutex, never the other way around. Guards a PM
  /// structure (root_->rlog), which TSA cannot express as GUARDED_BY; the
  /// discipline is documented here and enforced by review + PMCheck.
  common::Mutex rlog_mu_;
};

}  // namespace hart::epalloc
