// epalloc::Allocator — the paper's enhanced persistent memory allocator
// (EPallocator, Section III.A.4-6, Algorithms 2 and 6), with striped,
// DRAM-shadowed volatile state (the HESH/Dash recipe).
//
// Persistent format. Objects are handed out from 56-object chunks. Leaf
// chunks form a singly linked persistent list rooted in EPRoot (the
// recovery index, which Algorithm 7 walks, and the leak-prevention
// device), with its recycle micro-log (micrologs.h); a leaf chunk's 8-byte
// header word (bitmap + hint + full indicator) is updated failure-atomically.
//
// Only leaves carry a persistent bit (has_persistent_bit()): a leaf's bit
// is set only *after* the leaf is fully written and linked into the index,
// so a crash in between leaves the slot free. Values have none, and value
// chunks are bare stride-aligned arena spans on no list (DESIGN.md §1,
// correction 1): a value is live exactly when a live leaf names it, so
// recovery re-derives each value and its chunk from the leaves (mark_live).
//
// Two-phase allocation: reserve() returns a *reserved* object (volatile
// reservation, so concurrent writers on different ARTs never collide), and
// commit() marks it used. Reservations evaporate at a crash — which is
// exactly the paper's leak-freedom argument.
//
// Volatile side and persist schedule:
//
//  * Striping. Volatile chunk metadata is partitioned into S stripes
//    (modeled per-DIMM sub-allocators) by a deterministic map,
//    stripe(chunk) = (chunk_off / stride) mod S — no ownership table, so
//    any thread can find a chunk's stripe lock-free. Each stripe has its
//    own mutex, dense chunk table and free list, so writers on different
//    stripes never contend. A chunk's table slot is
//    (chunk_off / stride) / S: no hashing on reserve, commit or free.
//  * Stripe affinity. A thread starts each reserve at the stripe that
//    served its last reserve of that type (first time: a round-robin home
//    stripe), moving on to the next stripe only when that one is out of
//    space (counted in epalloc_stripe_steals_total). A new chunk's stripe
//    follows its offset, and the thread follows the new chunk.
//  * O(1) recycle. Volatile predecessor links let Algorithm 6 unlink a
//    leaf chunk without walking the list, and the free paths report
//    whether a chunk became empty, so a recycle runs only for those.
//  * DRAM shadow bitmaps. Every chunk's occupancy bitmap lives in its
//    ChunkState (`shadow`): for leaf chunks a mirror of the PM header word
//    (whose stores stay immediate and atomic for lock-free bit_probe), for
//    value chunks the only record. Allocation reads the shadow, never PM.
//  * Batched metadata persistence (AllocOptions::batched_meta). A leaf
//    commit's header persist is deferred: the header is marked dirty and
//    flushed by flush_metadata(), which Hart::flush_epoch() invokes just
//    before the epoch stamp persists — the group-commit fence the service
//    already pays. A leaf free persists its header eagerly in either
//    schedule, so a freed slot (and the value its leaf named) is reusable
//    at once: the change that unreferenced it is already durable.
//    Leaf chunk-list links, the recycle log and object payloads keep their
//    eager persist schedule too.
//
// With stripes = 1 and eager metadata persists this is the paper's
// single-instance EPallocator minus the value bits and lists: one header
// persist per insert and per delete, none per update.
//
// Crash model in batched mode: inserts since the last fence may not be
// durable — identical to losing the unacked tail of a group-commit batch,
// which the service already tolerates. Each header is one atomic 8-byte
// word, so recovery always sees a consistent (possibly slightly stale)
// leaf bitmap, and every leaf it sees live names a durable value.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "epalloc/chunk.h"
#include "epalloc/micrologs.h"
#include "pmem/arena.h"

namespace hart::epalloc {

/// Allocator construction knobs (part of Hart::Options and hartd::Config).
struct AllocOptions {
  /// Hard ceiling on the stripe count (a modeled system has at most a few
  /// dozen DIMMs; the constructor clamps here).
  static constexpr uint32_t kMaxStripes = 64;
  /// Number of stripes (modeled DIMMs). 0 = auto: min(hw threads, 8),
  /// at least 1.
  uint32_t stripes = 0;
  /// Defer leaf-commit header persists to flush_metadata() (the service
  /// sets this; raw Hart embedders default to eager per-op durability).
  bool batched_meta = false;
};

class Allocator {
 public:
  /// `root` must live in the arena header (persistent). On a fresh arena it
  /// must be zero; on reopen call recover_structure() before any use.
  Allocator(pmem::Arena& arena, EPRoot* root, uint32_t leaf_obj_size,
            const AllocOptions& opts = {});
  ~Allocator();

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// Algorithm 2, lines 1-11. On kOk, *obj_off holds a reserved object's
  /// arena offset. It is not yet marked used; call commit() once the
  /// object is reachable from the index, or release() to abort.
  /// kOutOfMemory when the arena cannot fit another chunk (nothing is
  /// reserved).
  common::Status reserve(ObjType t, uint64_t* obj_off);

  /// Mark the object used (e.g. Alg. 1 lines 14/18). For a leaf, set its
  /// header bit: the store is immediate (lock-free readers see it via
  /// bit_probe); the *persist* is inline, or deferred to flush_metadata()
  /// in batched mode. For a value, only the DRAM shadow changes.
  void commit(ObjType t, uint64_t obj_off);

  /// Drop a reservation without committing (abort path; no crash involved).
  void release(ObjType t, uint64_t obj_off);

  /// Mark the object free (deletion / update paths). A leaf's cleared
  /// header bit persists before this returns, in either schedule; a
  /// value's slot is only a DRAM shadow bit, so the caller must already
  /// have made durable whatever stopped referencing it. The slot is
  /// reusable at once. Does not recycle; returns true when the chunk
  /// became empty, and only then does the caller need recycle_chunk_of()
  /// (Alg. 5/6).
  bool free_object(ObjType t, uint64_t obj_off);

  // ---- EBR-deferred reuse ---------------------------------------------
  /// free_object(), plus a volatile `retired` bit that keeps reserve()
  /// from handing the slot out again until release_retired() runs after
  /// the reader grace period.
  void free_object_retired(ObjType t, uint64_t obj_off);

  /// Grace period over: allow reuse, and run the deferred EPRecycle if the
  /// chunk is now empty. Tolerates a chunk that no longer exists (freed
  /// across a recovery).
  void release_retired(ObjType t, uint64_t obj_off);

  /// EPRecycle(MemChunkOf(obj)): frees the chunk if it contains no used
  /// (or reserved, or retired) object. A leaf chunk is unlinked first
  /// (Algorithm 6; the predecessor comes from the volatile links, O(1)). A
  /// value chunk's span just goes back to the arena, with no persist.
  void recycle_chunk_of(ObjType t, uint64_t obj_off);

  /// Whether the object is marked used (the DRAM shadow; no PM read).
  [[nodiscard]] bool bit_is_set(ObjType t, uint64_t obj_off) const;

  /// Lock-free read of a leaf's persistent bit, for concurrent readers
  /// (HART search validates the leaf bit, Algorithm 4 line 9). Header words
  /// are updated with atomic 8-byte stores, so this is race-free. Value
  /// chunks have no header bits.
  [[nodiscard]] bool bit_probe(ObjType t, uint64_t obj_off) const {
    const TypeGeometry& g = geom(t);
    auto* c = chunk_ptr(g.chunk_of(obj_off));
    const uint64_t w =
        std::atomic_ref<uint64_t>(c->header).load(std::memory_order_acquire);
    return (ChunkHdr::bitmap(w) >> g.index_of(obj_off)) & 1;
  }

  [[nodiscard]] const TypeGeometry& geom(ObjType t) const {
    return types_[static_cast<int>(t)].geom;
  }

  // ---- batched metadata persistence -----------------------------------
  /// Persist every deferred chunk-header word. The service calls this
  /// once per group-commit batch, inside
  /// Hart::flush_epoch() before the epoch stamp persists; `epoch` is the
  /// epoch being made durable (informational). No-op in eager mode.
  void flush_metadata(uint64_t epoch);

  /// Number of allocation stripes.
  [[nodiscard]] uint32_t stripe_count() const { return nstripes_; }

  /// Allocator name, for hartd's startup line and perfbench's notes.
  [[nodiscard]] const char* kind_name() const { return "striped"; }

  // ---- recovery -------------------------------------------------------
  /// Structural recovery: finish or roll back the recycle log, rebuild the
  /// arena allocation map from the reachable leaf chunks (leak freedom by
  /// construction), and rebuild the leaf chunks' volatile state — their
  /// shadows from the PM headers, the predecessor links from the list. No
  /// value chunk exists yet. The caller then walks the live leaves, hands
  /// each one's value to mark_live() and rebuilds its DRAM structures
  /// (Algorithm 7); a value chunk no live leaf names stays free.
  void recover_structure();

  /// Recovery: record a value that a live leaf names as used (DRAM only);
  /// the chunk's first one marks the chunk's span used in the arena. Safe
  /// to call from several recovery threads. Throws std::runtime_error when
  /// `obj_off` is no value slot, is marked already, or lies in a chunk
  /// whose span leaves the arena or overlaps another chunk — a corrupt
  /// image, which verify_hart_image reports.
  void mark_live(ObjType t, uint64_t obj_off);

  /// Invoke `f(obj_off)` for every leaf whose persistent bit is set, in
  /// list order, or in the leaf chunk at `chunk_off` only.
  void for_each_live(const std::function<void(uint64_t)>& f) const;
  void for_each_live_in(uint64_t chunk_off,
                        const std::function<void(uint64_t)>& f) const;

  /// Snapshot of the leaf chunk list (parallel recovery shards it across
  /// workers by chunk).
  [[nodiscard]] std::vector<uint64_t> chunk_offsets() const;

  // ---- introspection (tests, stats) -----------------------------------
  [[nodiscard]] uint64_t live_objects(ObjType t) const;
  [[nodiscard]] uint64_t chunk_count(ObjType t) const;

 private:
  /// Volatile state of one chunk: 32 bytes per table slot.
  struct ChunkState {
    uint64_t shadow = 0;    // used objects (leaves: mirrors the PM header)
    uint64_t reserved = 0;  // volatile reservation bitmap
    uint64_t retired = 0;   // volatile: freed, awaiting EBR grace period
    bool live = false;      // the slot holds a chunk
    bool dirty = false;     // header persist deferred to flush_metadata
    bool in_avail = false;

    /// Nothing used, reserved or retired: recyclable.
    [[nodiscard]] bool empty() const {
      return (shadow | reserved | retired) == 0;
    }
  };
  struct Stripe {
    mutable common::Mutex mu;
    // Dense chunk table, slot (chunk_off / stride) / S (table_slot()).
    // Grows, never shrinks, up to the highest chunk offset in use.
    std::vector<ChunkState> table GUARDED_BY(mu);
    uint64_t nchunks GUARDED_BY(mu) = 0;  // live slots in `table`
    // Chunks that may have a reservable slot (entries may go stale when a
    // chunk is recycled; the live flag is authoritative).
    std::vector<uint64_t> avail GUARDED_BY(mu);
    // Chunks with a deferred header persist (entries may go stale when a
    // chunk is recycled; the dirty flag is authoritative).
    std::vector<uint64_t> dirty_chunks GUARDED_BY(mu);
  };
  struct TypeState {
    TypeGeometry geom;  // immutable after construction; not guarded
    std::deque<Stripe> stripes;  // deque: Stripe is not movable
  };

  TypeState& ts(ObjType t) { return types_[static_cast<int>(t)]; }
  const TypeState& ts(ObjType t) const {
    return types_[static_cast<int>(t)];
  }
  MemChunk* chunk_ptr(uint64_t off) const {
    return arena_.ptr<MemChunk>(off);
  }
  uint32_t stripe_index(const TypeState& st, uint64_t chunk_off) const {
    return static_cast<uint32_t>((chunk_off / st.geom.stride) % nstripes_);
  }
  Stripe& stripe_for(const TypeState& st, uint64_t chunk_off) const {
    return const_cast<TypeState&>(st).stripes[stripe_index(st, chunk_off)];
  }
  size_t table_slot(const TypeState& st, uint64_t chunk_off) const {
    return (chunk_off / st.geom.stride) / nstripes_;
  }
  /// The live chunk at `chunk_off` in stripe `s`, or nullptr.
  ChunkState* find_locked(const TypeState& st, Stripe& s,
                          uint64_t chunk_off) const REQUIRES(s.mu) {
    const size_t i = table_slot(st, chunk_off);
    if (i >= s.table.size() || !s.table[i].live) return nullptr;
    return &s.table[i];
  }
  /// A fresh (live, empty) table slot for a chunk just created at
  /// `chunk_off`, growing the table as needed.
  ChunkState& add_chunk_locked(const TypeState& st, Stripe& s,
                               uint64_t chunk_off) REQUIRES(s.mu);
  /// Drops the chunk's table slot and returns its span to the arena.
  void drop_chunk_locked(const TypeState& st, Stripe& s, uint64_t chunk_off,
                         ChunkState& cs) REQUIRES(s.mu);
  /// Sets the predecessor link of the leaf chunk at `chunk_off`.
  void set_prev_locked(uint64_t chunk_off, uint64_t prev) REQUIRES(head_mu_);

  /// reserve() minus the status mapping; throws std::bad_alloc on arena
  /// exhaustion.
  uint64_t reserve_impl(ObjType t);
  bool try_reserve_in_stripe(TypeState& st, Stripe& s, uint64_t* obj_off);
  /// Allocates a chunk of type `t`; a leaf chunk is also linked at the
  /// head of the leaf list (Algorithm 2, lines 8-10).
  uint64_t new_chunk(const TypeState& st, ObjType t);
  /// Returns true when the chunk became empty.
  bool free_slot_locked(TypeState& st, Stripe& s, ObjType t,
                        uint64_t obj_off, bool retire) REQUIRES(s.mu);
  void make_available_locked(Stripe& s, uint64_t chunk_off, ChunkState& cs)
      REQUIRES(s.mu);
  void mark_dirty_locked(Stripe& s, uint64_t chunk_off, ChunkState& cs)
      REQUIRES(s.mu);
  void persist_head();

  void finish_recycle_log();

  pmem::Arena& arena_;
  EPRoot* root_;
  const uint32_t nstripes_;
  const bool batched_;
  TypeState types_[kNumObjTypes];
  /// Serializes the leaf chunk list (links, head word, recycle log: PM
  /// words TSA cannot name) and prev_. Lock order: head_mu_ -> stripe mu.
  common::Mutex head_mu_;
  /// Predecessor links of the leaf list, indexed by chunk_off / stride:
  /// prev_[i] is the chunk whose pnext names chunk i (0 for the head).
  std::vector<uint64_t> prev_ GUARDED_BY(head_mu_);
};

}  // namespace hart::epalloc
