#include "epalloc/epalloc.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/counters.h"

namespace hart::epalloc {

namespace {
// HARTscope: process-wide allocator event tallies. Registry references
// are resolved once (the map is node-based, references are stable) so a
// hot-path bump is a single striped relaxed fetch_add.
struct EpCounters {
  obs::Counter& ep_malloc;
  obs::Counter& commit;
  obs::Counter& release;
  obs::Counter& free_obj;
  obs::Counter& chunk_alloc;
  obs::Counter& chunk_recycle;
  obs::Counter& ulog_take;
  obs::Counter& ulog_reclaim;
  obs::Counter& stale_value_reclaim;
  // Chunk-header (bitmap word) persists — the PM metadata writes the
  // striped allocator batches away. Counted here too so the --legacy-alloc
  // ablation reports a comparable number.
  obs::Counter& pm_meta_persists;
};

EpCounters& ep_counters() {
  auto& reg = obs::Registry::instance();
  static EpCounters c{
      reg.counter("ep_malloc_total"),
      reg.counter("ep_commit_total"),
      reg.counter("ep_release_total"),
      reg.counter("ep_free_total"),
      reg.counter("ep_chunk_alloc_total"),
      reg.counter("ep_chunk_recycle_total"),
      reg.counter("ep_ulog_take_total"),
      reg.counter("ep_ulog_reclaim_total"),
      reg.counter("ep_stale_value_reclaim_total"),
      reg.counter("epalloc_pm_meta_persists_total"),
  };
  return c;
}
}  // namespace

EPAllocator::EPAllocator(pmem::Arena& arena, EPRoot* root,
                         uint32_t leaf_obj_size, LeafProbeFn probe,
                         LeafClearFn clear)
    : arena_(arena),
      root_(root),
      probe_(probe),
      clear_(clear),
      ulog_slots_(line_contained_ulog_slots(arena.off(root->ulogs))) {
  types_[static_cast<int>(ObjType::kLeaf)].geom =
      TypeGeometry::for_obj_size(leaf_obj_size);
  for (int t = 1; t < kNumObjTypes; ++t)
    types_[t].geom = TypeGeometry::for_obj_size(
        value_class_size(static_cast<ObjType>(t)));
}

void EPAllocator::persist_head(ObjType t) {
  arena_.trace_store(&root_->heads[static_cast<int>(t)], sizeof(uint64_t));
  arena_.persist(&root_->heads[static_cast<int>(t)], sizeof(uint64_t));
}

void EPAllocator::make_available_locked(TypeState& st, uint64_t chunk_off,
                                        ChunkState& cs) {
  if (!cs.in_avail) {
    cs.in_avail = true;
    st.avail.push_back(chunk_off);
  }
}

uint64_t EPAllocator::new_chunk_locked(TypeState& st, ObjType t) {
  const TypeGeometry& g = st.geom;
  const uint64_t off = arena_.alloc(g.chunk_bytes, g.stride);
  auto* c = chunk_ptr(off);
  // Zero the whole chunk so stale-value probes on never-used leaf slots see
  // a null p_value, then make it durable before linking (Alg. 2 lines 8-10;
  // a crash before the head update leaves the chunk unreachable, and the
  // recovery reachability scan frees it — no leak).
  std::memset(c, 0, g.chunk_bytes);
  c->header = ChunkHdr::make(0, 0, kIndAvailable);
  c->pnext = root_->heads[static_cast<int>(t)];
  arena_.trace_store(c, g.chunk_bytes);
  arena_.persist(c, g.chunk_bytes);
  root_->heads[static_cast<int>(t)] = off;
  persist_head(t);

  if (c->pnext != pmem::kNullOff) {
    auto it = st.chunks.find(c->pnext);
    assert(it != st.chunks.end());
    it->second.prev = off;
  }
  ChunkState& cs = st.chunks[off];
  cs.reserved = 0;
  cs.prev = 0;
  make_available_locked(st, off, cs);
  ep_counters().chunk_alloc.inc();
  return off;
}

uint64_t EPAllocator::ep_malloc(ObjType t) {
  ep_counters().ep_malloc.inc();
  TypeState& st = ts(t);
  uint64_t obj_off = 0;
  {
    common::MutexLock lk(st.mu);
    for (;;) {
      while (!st.avail.empty()) {
        const uint64_t c_off = st.avail.back();
        auto it = st.chunks.find(c_off);
        if (it == st.chunks.end()) {  // recycled; stale avail entry
          st.avail.pop_back();
          continue;
        }
        ChunkState& cs = it->second;
        const uint64_t occupied = ChunkHdr::bitmap(chunk_ptr(c_off)->header) |
                                  cs.reserved | cs.retired;
        const auto idx = static_cast<uint32_t>(std::countr_one(occupied));
        if (idx >= kObjectsPerChunk) {  // actually full
          cs.in_avail = false;
          st.avail.pop_back();
          continue;
        }
        cs.reserved |= (uint64_t{1} << idx);
        obj_off = st.geom.object_off(c_off, idx);
        break;
      }
      if (obj_off != 0) break;
      new_chunk_locked(st, t);
    }
  }

  // PMCheck: the slot may be re-used space whose previous content was
  // persisted; the new owner's first flush must not count as redundant.
  arena_.note_object_alloc(obj_off, st.geom.obj_size);

  // Algorithm 2 lines 12-16: a free leaf slot may still reference a value
  // committed by a prior incomplete insertion or deletion; reclaim it so
  // the value object becomes allocatable again.
  if (t == ObjType::kLeaf && probe_ != nullptr) {
    const LeafValueRef ref = probe_(arena_, obj_off);
    if (ref.value_off != 0 && bit_is_set(ref.cls, ref.value_off)) {
      ep_counters().stale_value_reclaim.inc();
      free_object(ref.cls, ref.value_off);
      recycle_chunk_of(ref.cls, ref.value_off);
      clear_(arena_, obj_off);
    }
  }
  return obj_off;
}

common::Status EPAllocator::reserve(ObjType t, uint64_t* obj_off) {
  try {
    *obj_off = ep_malloc(t);
  } catch (const std::bad_alloc&) {
    return common::Status::kOutOfMemory;
  }
  return common::Status::kOk;
}

void EPAllocator::commit(ObjType t, uint64_t obj_off) {
  ep_counters().commit.inc();
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  common::MutexLock lk(st.mu);
  auto* c = chunk_ptr(c_off);
  std::atomic_ref<uint64_t>(c->header)
      .store(ChunkHdr::with_bit(c->header, idx, true),
             std::memory_order_release);
  arena_.trace_store(&c->header, sizeof(c->header));
  arena_.persist(&c->header, sizeof(c->header));
  ep_counters().pm_meta_persists.inc();
  auto it = st.chunks.find(c_off);
  assert(it != st.chunks.end());
  it->second.reserved &= ~(uint64_t{1} << idx);
}

void EPAllocator::release(ObjType t, uint64_t obj_off) {
  ep_counters().release.inc();
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  common::MutexLock lk(st.mu);
  auto it = st.chunks.find(c_off);
  assert(it != st.chunks.end());
  it->second.reserved &= ~(uint64_t{1} << idx);
  make_available_locked(st, c_off, it->second);
}

void EPAllocator::free_object_locked(TypeState& st, uint64_t obj_off) {
  ep_counters().free_obj.inc();
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  auto* c = chunk_ptr(c_off);
  assert((ChunkHdr::bitmap(c->header) >> idx) & 1);
  std::atomic_ref<uint64_t>(c->header)
      .store(ChunkHdr::with_bit(c->header, idx, false),
             std::memory_order_release);
  arena_.trace_store(&c->header, sizeof(c->header));
  arena_.persist(&c->header, sizeof(c->header));
  ep_counters().pm_meta_persists.inc();
  auto it = st.chunks.find(c_off);
  assert(it != st.chunks.end());
  make_available_locked(st, c_off, it->second);
}

void EPAllocator::free_object(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  common::MutexLock lk(st.mu);
  free_object_locked(st, obj_off);
}

void EPAllocator::free_object_retired_locked(TypeState& st,
                                             uint64_t obj_off) {
  ep_counters().free_obj.inc();
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  auto* c = chunk_ptr(c_off);
  assert((ChunkHdr::bitmap(c->header) >> idx) & 1);
  // Persistent bit resets stay eager: the delete must be durable before it
  // is acked, regardless of how long readers pin the slot's *memory*.
  std::atomic_ref<uint64_t>(c->header)
      .store(ChunkHdr::with_bit(c->header, idx, false),
             std::memory_order_release);
  arena_.trace_store(&c->header, sizeof(c->header));
  arena_.persist(&c->header, sizeof(c->header));
  ep_counters().pm_meta_persists.inc();
  auto it = st.chunks.find(c_off);
  assert(it != st.chunks.end());
  // No make_available: the retired bit keeps ep_malloc away until
  // release_retired() runs after the EBR grace period.
  it->second.retired |= (uint64_t{1} << idx);
}

void EPAllocator::free_object_retired(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  common::MutexLock lk(st.mu);
  free_object_retired_locked(st, obj_off);
}

void EPAllocator::free_leaf_with_value_retired(uint64_t leaf_off,
                                               ObjType vcls,
                                               uint64_t val_off) {
  TypeState& leaf_st = ts(ObjType::kLeaf);
  common::MutexLock lk(leaf_st.mu);
  free_object_retired_locked(leaf_st, leaf_off);
  {
    TypeState& val_st = ts(vcls);
    common::MutexLock vlk(val_st.mu);
    free_object_retired_locked(val_st, val_off);
  }
  // Clear the leaf's dangling value pointer; optimistic readers treat
  // p_value == 0 as "deleted", and the slot cannot be re-reserved until
  // release_retired().
  clear_(arena_, leaf_off);
}

void EPAllocator::release_retired(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  {
    common::MutexLock lk(st.mu);
    const uint64_t c_off = st.geom.chunk_of(obj_off);
    auto it = st.chunks.find(c_off);
    if (it == st.chunks.end()) return;  // chunk freed across a recovery
    const uint32_t idx = st.geom.index_of(obj_off);
    it->second.retired &= ~(uint64_t{1} << idx);
    make_available_locked(st, c_off, it->second);
  }
  // The free skipped EPRecycle; run it now that the slot is reusable.
  recycle_chunk_of(t, obj_off);
}

void EPAllocator::free_leaf_with_value(uint64_t leaf_off, ObjType vcls,
                                       uint64_t val_off) {
  TypeState& leaf_st = ts(ObjType::kLeaf);
  common::MutexLock lk(leaf_st.mu);  // blocks leaf reservations throughout
  // Alg. 5 line 11: reset the leaf bit (the delete's commit point).
  free_object_locked(leaf_st, leaf_off);
  // Alg. 5 line 12: reset the value bit (nested LEAF -> VALUE lock order,
  // same as the stale-value probe path).
  {
    TypeState& val_st = ts(vcls);
    common::MutexLock vlk(val_st.mu);
    free_object_locked(val_st, val_off);
  }
  // Clear the leaf's dangling value pointer so the freed value slot can be
  // safely re-allocated to another key (see Hart::remove and DESIGN.md).
  clear_(arena_, leaf_off);
}

bool EPAllocator::bit_probe(ObjType t, uint64_t obj_off) const {
  const TypeGeometry& g = geom(t);
  auto* c = chunk_ptr(g.chunk_of(obj_off));
  const uint64_t w =
      std::atomic_ref<uint64_t>(c->header).load(std::memory_order_acquire);
  return (ChunkHdr::bitmap(w) >> g.index_of(obj_off)) & 1;
}

bool EPAllocator::bit_is_set(ObjType t, uint64_t obj_off) const {
  const TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  common::MutexLock lk(st.mu);
  if (st.chunks.find(c_off) == st.chunks.end()) return false;
  return (ChunkHdr::bitmap(chunk_ptr(c_off)->header) >> idx) & 1;
}

void EPAllocator::recycle_chunk_of(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  common::MutexLock lk(st.mu);
  auto it = st.chunks.find(c_off);
  if (it == st.chunks.end()) return;  // already recycled
  ChunkState& cs = it->second;
  auto* c = chunk_ptr(c_off);
  // Algorithm 6 lines 1-2: only an entirely empty chunk is recycled.
  // Retired slots count as occupied — readers may still be inside them.
  if (ChunkHdr::bitmap(c->header) != 0 || cs.reserved != 0 ||
      cs.retired != 0)
    return;

  // The recycle log is one shared persistent structure: hold rlog_mu_ from
  // the first log store until the log is cleared, or two threads recycling
  // chunks of different types would interleave stores into the same words
  // (PM race found by PMCheck; recovery could then unlink a chunk with the
  // wrong type's geometry).
  common::MutexLock rlk(rlog_mu_);
  RecycleLog& rlog = root_->rlog;
  rlog.type_plus1 = static_cast<uint64_t>(t) + 1;
  rlog.pcurrent = c_off;
  arena_.trace_store(&rlog, sizeof(rlog));
  arena_.persist(&rlog, sizeof(rlog));

  const uint64_t next = c->pnext;
  uint64_t prev = 0;
  if (root_->heads[static_cast<int>(t)] == c_off) {
    root_->heads[static_cast<int>(t)] = next;
    persist_head(t);
  } else {
    prev = cs.prev;
    assert(prev != 0);
    rlog.pprev = prev;
    arena_.trace_store(&rlog.pprev, sizeof(rlog.pprev));
    arena_.persist(&rlog.pprev, sizeof(rlog.pprev));
    auto* pc = chunk_ptr(prev);
    pc->pnext = next;
    arena_.trace_store(&pc->pnext, sizeof(pc->pnext));
    arena_.persist(&pc->pnext, sizeof(pc->pnext));
  }
  if (next != pmem::kNullOff) {
    auto nit = st.chunks.find(next);
    assert(nit != st.chunks.end());
    nit->second.prev = prev;
  }
  st.chunks.erase(it);  // stale avail entries are skipped on pop
  arena_.free(c_off, st.geom.chunk_bytes, st.geom.stride);
  ep_counters().chunk_recycle.inc();

  rlog = RecycleLog{};
  arena_.trace_store(&rlog, sizeof(rlog));
  arena_.persist(&rlog, sizeof(rlog));
}

UpdateLog* EPAllocator::acquire_ulog() {
  for (;;) {
    {
      common::MutexLock lk(ulog_mu_);
      const auto idx =
          static_cast<uint32_t>(std::countr_one(ulog_busy_ | ~ulog_slots_));
      if (idx < kUpdateLogSlots) {
        ulog_busy_ |= (uint32_t{1} << idx);
        ep_counters().ulog_take.inc();
        return &root_->ulogs[idx];
      }
    }
    std::this_thread::yield();  // all slots in flight; extremely unlikely
  }
}

void EPAllocator::reclaim_ulog(UpdateLog* log) {
  ep_counters().ulog_reclaim.inc();
  *log = UpdateLog{};
  arena_.trace_store(log, sizeof(*log));
  arena_.persist(log, sizeof(*log));
  const auto idx = static_cast<uint32_t>(log - root_->ulogs);
  common::MutexLock lk(ulog_mu_);
  ulog_busy_ &= ~(uint32_t{1} << idx);
}

void EPAllocator::finish_recycle_log() {
  RecycleLog& rlog = root_->rlog;
  if (rlog.pcurrent == 0) return;
  const ObjType t = rlog.type();
  const uint64_t c_off = rlog.pcurrent;
  auto* c = chunk_ptr(c_off);
  if (rlog.pprev != 0) {
    // Crash somewhere around line 10: redo the unlink if still pending.
    auto* pc = chunk_ptr(rlog.pprev);
    if (pc->pnext == c_off) {
      pc->pnext = c->pnext;
      arena_.persist(&pc->pnext, sizeof(pc->pnext));
    }
  } else {
    uint64_t& head = root_->heads[static_cast<int>(t)];
    if (head == c_off) {
      // Crash before the head was updated: resume from line 6.
      head = c->pnext;
      persist_head(t);
    }
    // Otherwise either the head update already persisted (c->pnext == head)
    // or the log was written but nothing else happened with the chunk not
    // at the head; in both cases the list is consistent as-is. The chunk,
    // if unlinked, is unreachable and thus freed by the reachability scan.
  }
  rlog = RecycleLog{};
  arena_.persist(&rlog, sizeof(rlog));
}

void EPAllocator::recover_structure() {
  finish_recycle_log();

  arena_.reset_alloc_map();
  for (auto& st : types_) {
    common::MutexLock lk(st.mu);
    st.chunks.clear();
    st.avail.clear();
  }
  {
    // Recovery runs single-threaded, but ulog_busy_ is guarded state — take
    // its lock so the reset is race-free even if a caller misuses the API.
    common::MutexLock lk(ulog_mu_);
    ulog_busy_ = 0;
  }

  const uint64_t max_chunks =
      arena_.size() / sizeof(MemChunk);  // loop guard for corrupt lists
  for (int ti = 0; ti < kNumObjTypes; ++ti) {
    TypeState& st = types_[ti];
    common::MutexLock lk(st.mu);
    uint64_t prev = 0;
    uint64_t off = root_->heads[ti];
    uint64_t n = 0;
    while (off != pmem::kNullOff) {
      if (++n > max_chunks)
        throw std::runtime_error("EPAllocator: cyclic chunk list");
      arena_.mark_used(off, st.geom.chunk_bytes);
      auto* c = chunk_ptr(off);
      ChunkState& cs = st.chunks[off];
      cs.reserved = 0;
      cs.prev = prev;
      cs.in_avail = false;
      if (ChunkHdr::bitmap(c->header) != kBitmapMask)
        make_available_locked(st, off, cs);
      prev = off;
      off = c->pnext;
    }
  }
}

void EPAllocator::for_each_live(
    ObjType t, const std::function<void(uint64_t)>& f) const {
  const TypeState& st = ts(t);
  uint64_t off = root_->heads[static_cast<int>(t)];
  while (off != pmem::kNullOff) {
    const auto* c = chunk_ptr(off);
    uint64_t bm = ChunkHdr::bitmap(c->header);
    while (bm != 0) {
      const auto idx = static_cast<uint32_t>(std::countr_zero(bm));
      bm &= bm - 1;
      f(st.geom.object_off(off, idx));
    }
    off = c->pnext;
  }
}

std::vector<uint64_t> EPAllocator::chunk_offsets(ObjType t) const {
  std::vector<uint64_t> out;
  uint64_t off = root_->heads[static_cast<int>(t)];
  while (off != pmem::kNullOff) {
    out.push_back(off);
    off = chunk_ptr(off)->pnext;
  }
  return out;
}

uint64_t EPAllocator::live_objects(ObjType t) const {
  const TypeState& st = ts(t);
  common::MutexLock lk(st.mu);
  uint64_t total = 0;
  for (const auto& [off, cs] : st.chunks)
    total += static_cast<uint64_t>(
        std::popcount(ChunkHdr::bitmap(chunk_ptr(off)->header)));
  return total;
}

uint64_t EPAllocator::chunk_count(ObjType t) const {
  const TypeState& st = ts(t);
  common::MutexLock lk(st.mu);
  return st.chunks.size();
}

}  // namespace hart::epalloc
