#include "epalloc/striped.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>

#include "epalloc/epalloc.h"
#include "obs/counters.h"

namespace hart::epalloc {

namespace {
// Same registry entries as the legacy allocator (the Registry dedups by
// name), plus the striping/batching tallies the ablation compares.
struct StripedCounters {
  obs::Counter& ep_malloc;
  obs::Counter& commit;
  obs::Counter& release;
  obs::Counter& free_obj;
  obs::Counter& chunk_alloc;
  obs::Counter& chunk_recycle;
  obs::Counter& ulog_take;
  obs::Counter& ulog_reclaim;
  obs::Counter& stale_value_reclaim;
  obs::Counter& pm_meta_persists;
  obs::Counter& stripe_steals;
  obs::Counter& stripe_spawned;
  obs::Counter& meta_flush_batches;
  obs::Counter& meta_deferred;
};

StripedCounters& striped_counters() {
  auto& reg = obs::Registry::instance();
  static StripedCounters c{
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
      reg.counter("epalloc_stripe_steals_total"),
      reg.counter("epalloc_stripe_spawned_total"),
      reg.counter("epalloc_meta_flush_batches_total"),
      reg.counter("epalloc_meta_persists_deferred_total"),
  };
  return c;
}

/// Process-wide thread ordinal for round-robin thread->stripe equalization.
uint32_t thread_ordinal() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}
}  // namespace

StripedAllocator::StripedAllocator(pmem::Arena& arena, EPRoot* root,
                                   uint32_t leaf_obj_size, LeafProbeFn probe,
                                   LeafClearFn clear, uint32_t stripes,
                                   bool batched_meta)
    : arena_(arena),
      root_(root),
      probe_(probe),
      clear_(clear),
      nstripes_(stripes == 0 ? 1 : stripes),
      batched_(batched_meta),
      ulog_slots_(line_contained_ulog_slots(arena.off(root->ulogs))) {
  types_[static_cast<int>(ObjType::kLeaf)].geom =
      TypeGeometry::for_obj_size(leaf_obj_size);
  for (int t = 1; t < kNumObjTypes; ++t)
    types_[t].geom = TypeGeometry::for_obj_size(
        value_class_size(static_cast<ObjType>(t)));
  for (auto& st : types_)
    for (uint32_t s = 0; s < nstripes_; ++s) st.stripes.emplace_back();
  striped_counters().stripe_spawned.add(nstripes_);
}

StripedAllocator::~StripedAllocator() {
  // Best-effort: make deferred header persists durable on clean teardown
  // (the service already fences via flush_epoch; this covers bare Hart
  // embedders). A CrashPoint here means a crash test is tearing down an
  // already-crashed arena — swallow it, recovery owns the image.
  try {
    flush_metadata(0);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void StripedAllocator::persist_head(ObjType t) {
  arena_.trace_store(&root_->heads[static_cast<int>(t)], sizeof(uint64_t));
  arena_.persist(&root_->heads[static_cast<int>(t)], sizeof(uint64_t));
}

void StripedAllocator::make_available_locked(Stripe& s, uint64_t chunk_off,
                                             ChunkState& cs) {
  if (!cs.in_avail) {
    cs.in_avail = true;
    s.avail.push_back(chunk_off);
  }
}

void StripedAllocator::mark_dirty_locked(Stripe& s, uint64_t chunk_off,
                                         ChunkState& cs) {
  striped_counters().meta_deferred.inc();
  if (!cs.dirty) {
    cs.dirty = true;
    s.dirty_chunks.push_back(chunk_off);
  }
}

uint64_t StripedAllocator::new_chunk_list_locked(TypeState& st, ObjType t) {
  const TypeGeometry& g = st.geom;
  const uint64_t off = arena_.alloc(g.chunk_bytes, g.stride);
  auto* c = chunk_ptr(off);
  // Zero + persist the whole chunk before linking, exactly like the legacy
  // allocator (Alg. 2 lines 8-10): a crash before the head update leaves
  // the chunk unreachable and the recovery reachability scan frees it.
  // List links always persist eagerly, even in batched mode — recovery
  // walks them before any flush_metadata could run.
  std::memset(c, 0, g.chunk_bytes);
  c->header = ChunkHdr::make(0, 0, kIndAvailable);
  c->pnext = root_->heads[static_cast<int>(t)];
  arena_.trace_store(c, g.chunk_bytes);
  arena_.persist(c, g.chunk_bytes);
  root_->heads[static_cast<int>(t)] = off;
  persist_head(t);
  striped_counters().chunk_alloc.inc();
  return off;
}

bool StripedAllocator::try_reserve_in_stripe(TypeState& st, Stripe& s,
                                             uint64_t* obj_off) {
  common::MutexLock lk(s.mu);
  while (!s.avail.empty()) {
    const uint64_t c_off = s.avail.back();
    auto it = s.chunks.find(c_off);
    if (it == s.chunks.end()) {  // recycled; stale avail entry
      s.avail.pop_back();
      continue;
    }
    ChunkState& cs = it->second;
    // All allocation decisions read the DRAM shadow; pending-free slots
    // stay occupied until their cleared header is durable.
    const uint64_t occupied =
        cs.shadow | cs.reserved | cs.retired | cs.pending;
    const auto idx = static_cast<uint32_t>(std::countr_one(occupied));
    if (idx >= kObjectsPerChunk) {  // actually full
      cs.in_avail = false;
      s.avail.pop_back();
      continue;
    }
    cs.reserved |= (uint64_t{1} << idx);
    *obj_off = st.geom.object_off(c_off, idx);
    return true;
  }
  return false;
}

uint64_t StripedAllocator::reserve_impl(ObjType t) {
  striped_counters().ep_malloc.inc();
  TypeState& st = ts(t);
  uint64_t obj_off = 0;
  const uint32_t home = thread_ordinal() % nstripes_;
  for (uint32_t k = 0; k < nstripes_; ++k) {
    Stripe& s = st.stripes[(home + k) % nstripes_];
    if (try_reserve_in_stripe(st, s, &obj_off)) {
      if (k != 0) striped_counters().stripe_steals.inc();
      break;
    }
  }
  if (obj_off == 0) {
    // Every stripe exhausted: grow the chunk list. Which stripe the new
    // chunk lands on is decided by its offset (the deterministic map), not
    // by the allocating thread.
    uint64_t c_off = 0;
    {
      common::MutexLock hlk(st.head_mu);
      c_off = new_chunk_list_locked(st, t);
    }
    Stripe& s = stripe_for(st, c_off);
    common::MutexLock lk(s.mu);
    ChunkState& cs = s.chunks[c_off];
    cs.reserved = 1;  // slot 0 goes to this thread
    obj_off = st.geom.object_off(c_off, 0);
    make_available_locked(s, c_off, cs);
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
      striped_counters().stale_value_reclaim.inc();
      free_object(ref.cls, ref.value_off);
      recycle_chunk_of(ref.cls, ref.value_off);
      clear_(arena_, obj_off);
    }
  }
  return obj_off;
}

common::Status StripedAllocator::reserve(ObjType t, uint64_t* obj_off) {
  try {
    *obj_off = reserve_impl(t);
  } catch (const std::bad_alloc&) {
    return common::Status::kOutOfMemory;
  }
  return common::Status::kOk;
}

void StripedAllocator::commit(ObjType t, uint64_t obj_off) {
  striped_counters().commit.inc();
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  auto* c = chunk_ptr(c_off);
  // The header *store* is immediate either way — lock-free bit_probe
  // readers must see committed bits; only the persist may be deferred.
  std::atomic_ref<uint64_t>(c->header)
      .store(ChunkHdr::with_bit(c->header, idx, true),
             std::memory_order_release);
  arena_.trace_store(&c->header, sizeof(c->header));
  auto it = s.chunks.find(c_off);
  assert(it != s.chunks.end());
  ChunkState& cs = it->second;
  cs.shadow |= (uint64_t{1} << idx);
  cs.reserved &= ~(uint64_t{1} << idx);
  if (batched_) {
    mark_dirty_locked(s, c_off, cs);
  } else {
    arena_.persist(&c->header, sizeof(c->header));
    striped_counters().pm_meta_persists.inc();
  }
}

void StripedAllocator::release(ObjType t, uint64_t obj_off) {
  striped_counters().release.inc();
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  auto it = s.chunks.find(c_off);
  assert(it != s.chunks.end());
  it->second.reserved &= ~(uint64_t{1} << idx);
  make_available_locked(s, c_off, it->second);
}

void StripedAllocator::free_slot_locked(TypeState& st, Stripe& s,
                                        uint64_t obj_off, bool retire) {
  striped_counters().free_obj.inc();
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  auto* c = chunk_ptr(c_off);
  assert((ChunkHdr::bitmap(c->header) >> idx) & 1);
  std::atomic_ref<uint64_t>(c->header)
      .store(ChunkHdr::with_bit(c->header, idx, false),
             std::memory_order_release);
  arena_.trace_store(&c->header, sizeof(c->header));
  auto it = s.chunks.find(c_off);
  assert(it != s.chunks.end());
  ChunkState& cs = it->second;
  cs.shadow &= ~(uint64_t{1} << idx);
  if (retire) {
    // No make_available: the retired bit keeps reserve() away until
    // release_retired() runs after the EBR grace period.
    cs.retired |= (uint64_t{1} << idx);
  }
  if (batched_) {
    // The slot is not reusable until the cleared header is durable: if a
    // new object moved in first and we crashed, the stale set bit would
    // resurrect a half-overwritten slot. flush_metadata lifts the block.
    cs.pending |= (uint64_t{1} << idx);
    mark_dirty_locked(s, c_off, cs);
  } else {
    arena_.persist(&c->header, sizeof(c->header));
    striped_counters().pm_meta_persists.inc();
  }
  if (!retire) make_available_locked(s, c_off, cs);
}

void StripedAllocator::free_object(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  Stripe& s = stripe_for(st, st.geom.chunk_of(obj_off));
  common::MutexLock lk(s.mu);
  free_slot_locked(st, s, obj_off, /*retire=*/false);
}

void StripedAllocator::free_object_retired(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  Stripe& s = stripe_for(st, st.geom.chunk_of(obj_off));
  common::MutexLock lk(s.mu);
  free_slot_locked(st, s, obj_off, /*retire=*/true);
}

void StripedAllocator::free_leaf_with_value(uint64_t leaf_off, ObjType vcls,
                                            uint64_t val_off) {
  TypeState& leaf_st = ts(ObjType::kLeaf);
  // Holding the freed leaf's *stripe* mutex throughout blocks exactly the
  // reservations that could race the stale-value probe against this clear
  // (a slot can only be re-reserved under its own stripe's mutex).
  Stripe& ls = stripe_for(leaf_st, leaf_st.geom.chunk_of(leaf_off));
  common::MutexLock lk(ls.mu);
  free_slot_locked(leaf_st, ls, leaf_off, /*retire=*/false);
  {
    TypeState& val_st = ts(vcls);
    Stripe& vs = stripe_for(val_st, val_st.geom.chunk_of(val_off));
    common::MutexLock vlk(vs.mu);
    free_slot_locked(val_st, vs, val_off, /*retire=*/false);
  }
  clear_(arena_, leaf_off);
}

void StripedAllocator::free_leaf_with_value_retired(uint64_t leaf_off,
                                                    ObjType vcls,
                                                    uint64_t val_off) {
  TypeState& leaf_st = ts(ObjType::kLeaf);
  Stripe& ls = stripe_for(leaf_st, leaf_st.geom.chunk_of(leaf_off));
  common::MutexLock lk(ls.mu);
  free_slot_locked(leaf_st, ls, leaf_off, /*retire=*/true);
  {
    TypeState& val_st = ts(vcls);
    Stripe& vs = stripe_for(val_st, val_st.geom.chunk_of(val_off));
    common::MutexLock vlk(vs.mu);
    free_slot_locked(val_st, vs, val_off, /*retire=*/true);
  }
  // Clear the leaf's dangling value pointer; optimistic readers treat
  // p_value == 0 as "deleted", and the slot cannot be re-reserved until
  // release_retired() (and, in batched mode, the next flush_metadata).
  clear_(arena_, leaf_off);
}

void StripedAllocator::release_retired(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  {
    Stripe& s = stripe_for(st, c_off);
    common::MutexLock lk(s.mu);
    auto it = s.chunks.find(c_off);
    if (it == s.chunks.end()) return;  // chunk freed across a recovery
    const uint32_t idx = st.geom.index_of(obj_off);
    it->second.retired &= ~(uint64_t{1} << idx);
    make_available_locked(s, c_off, it->second);
  }
  // The free skipped EPRecycle; run it now that the slot is reusable.
  recycle_chunk_of(t, obj_off);
}

bool StripedAllocator::bit_is_set(ObjType t, uint64_t obj_off) const {
  const TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  auto it = s.chunks.find(c_off);
  if (it == s.chunks.end()) return false;
  return (it->second.shadow >> idx) & 1;  // DRAM shadow, no PM read
}

bool StripedAllocator::bit_probe(ObjType t, uint64_t obj_off) const {
  const TypeGeometry& g = geom(t);
  auto* c = chunk_ptr(g.chunk_of(obj_off));
  const uint64_t w =
      std::atomic_ref<uint64_t>(c->header).load(std::memory_order_acquire);
  return (ChunkHdr::bitmap(w) >> g.index_of(obj_off)) & 1;
}

void StripedAllocator::recycle_chunk_of(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  // Lock order: head_mu (list stability, including the prev-walk below)
  // -> stripe mu -> rlog_mu_.
  common::MutexLock hlk(st.head_mu);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  auto it = s.chunks.find(c_off);
  if (it == s.chunks.end()) return;  // already recycled
  ChunkState& cs = it->second;
  // Algorithm 6 lines 1-2: only an entirely empty chunk is recycled.
  // Retired and pending-free slots count as occupied.
  if (cs.shadow != 0 || cs.reserved != 0 || cs.retired != 0 ||
      cs.pending != 0)
    return;
  auto* c = chunk_ptr(c_off);
  assert(ChunkHdr::bitmap(c->header) == 0);
  if (cs.dirty) {
    // Make the all-clear header durable before unlinking; the stale entry
    // in dirty_chunks is skipped by the dirty-flag check at flush time.
    arena_.persist(&c->header, sizeof(c->header));
    striped_counters().pm_meta_persists.inc();
    cs.dirty = false;
  }

  // No volatile prev pointer in striped mode: chunk-list topology is
  // guarded by head_mu, so walking for the predecessor here is safe and
  // keeps the per-chunk DRAM state smaller.
  uint64_t prev = 0;
  if (root_->heads[static_cast<int>(t)] != c_off) {
    uint64_t p = root_->heads[static_cast<int>(t)];
    while (p != pmem::kNullOff && chunk_ptr(p)->pnext != c_off)
      p = chunk_ptr(p)->pnext;
    assert(p != pmem::kNullOff);
    if (p == pmem::kNullOff) return;  // not linked (corrupt list); bail
    prev = p;
  }

  common::MutexLock rlk(rlog_mu_);
  RecycleLog& rlog = root_->rlog;
  rlog.type_plus1 = static_cast<uint64_t>(t) + 1;
  rlog.pcurrent = c_off;
  arena_.trace_store(&rlog, sizeof(rlog));
  arena_.persist(&rlog, sizeof(rlog));

  const uint64_t next = c->pnext;
  if (prev == 0) {
    root_->heads[static_cast<int>(t)] = next;
    persist_head(t);
  } else {
    rlog.pprev = prev;
    arena_.trace_store(&rlog.pprev, sizeof(rlog.pprev));
    arena_.persist(&rlog.pprev, sizeof(rlog.pprev));
    auto* pc = chunk_ptr(prev);
    pc->pnext = next;
    arena_.trace_store(&pc->pnext, sizeof(pc->pnext));
    arena_.persist(&pc->pnext, sizeof(pc->pnext));
  }
  s.chunks.erase(it);  // stale avail entries are skipped on pop
  arena_.free(c_off, st.geom.chunk_bytes, st.geom.stride);
  striped_counters().chunk_recycle.inc();

  rlog = RecycleLog{};
  arena_.trace_store(&rlog, sizeof(rlog));
  arena_.persist(&rlog, sizeof(rlog));
}

void StripedAllocator::flush_metadata(uint64_t /*epoch*/) {
  if (!batched_) return;
  bool any = false;
  for (auto& st : types_) {
    for (auto& s : st.stripes) {
      common::MutexLock lk(s.mu);
      if (s.dirty_chunks.empty()) continue;
      for (const uint64_t c_off : s.dirty_chunks) {
        auto it = s.chunks.find(c_off);
        // Stale entry (chunk recycled, possibly even re-spawned clean).
        if (it == s.chunks.end() || !it->second.dirty) continue;
        arena_.persist(&chunk_ptr(c_off)->header,
                       sizeof(chunk_ptr(c_off)->header));
        striped_counters().pm_meta_persists.inc();
        any = true;
        ChunkState& cs = it->second;
        cs.dirty = false;
        cs.pending = 0;  // cleared bits are durable: slots reusable
        if ((cs.shadow | cs.reserved | cs.retired) != kBitmapMask)
          make_available_locked(s, c_off, cs);
      }
      s.dirty_chunks.clear();
    }
  }
  if (any) striped_counters().meta_flush_batches.inc();
}

UpdateLog* StripedAllocator::acquire_ulog() {
  for (;;) {
    {
      common::MutexLock lk(ulog_mu_);
      const auto idx =
          static_cast<uint32_t>(std::countr_one(ulog_busy_ | ~ulog_slots_));
      if (idx < kUpdateLogSlots) {
        ulog_busy_ |= (uint32_t{1} << idx);
        striped_counters().ulog_take.inc();
        return &root_->ulogs[idx];
      }
    }
    std::this_thread::yield();  // all slots in flight; extremely unlikely
  }
}

void StripedAllocator::reclaim_ulog(UpdateLog* log) {
  // Always eager: a deferred zero-persist could leave a completed log
  // durable, and recovery would replay it against recycled objects.
  striped_counters().ulog_reclaim.inc();
  *log = UpdateLog{};
  arena_.trace_store(log, sizeof(*log));
  arena_.persist(log, sizeof(*log));
  const auto idx = static_cast<uint32_t>(log - root_->ulogs);
  common::MutexLock lk(ulog_mu_);
  ulog_busy_ &= ~(uint32_t{1} << idx);
}

void StripedAllocator::finish_recycle_log() {
  RecycleLog& rlog = root_->rlog;
  if (rlog.pcurrent == 0) return;
  const ObjType t = rlog.type();
  const uint64_t c_off = rlog.pcurrent;
  auto* c = chunk_ptr(c_off);
  if (rlog.pprev != 0) {
    // Crash somewhere around Alg. 6 line 10: redo the unlink if pending.
    auto* pc = chunk_ptr(rlog.pprev);
    if (pc->pnext == c_off) {
      pc->pnext = c->pnext;
      arena_.persist(&pc->pnext, sizeof(pc->pnext));
    }
  } else {
    uint64_t& head = root_->heads[static_cast<int>(t)];
    if (head == c_off) {
      head = c->pnext;
      persist_head(t);
    }
  }
  rlog = RecycleLog{};
  arena_.persist(&rlog, sizeof(rlog));
}

void StripedAllocator::recover_structure() {
  finish_recycle_log();

  arena_.reset_alloc_map();
  for (auto& st : types_) {
    for (auto& s : st.stripes) {
      common::MutexLock lk(s.mu);
      s.chunks.clear();
      s.avail.clear();
      s.dirty_chunks.clear();
    }
  }
  {
    common::MutexLock lk(ulog_mu_);
    ulog_busy_ = 0;
  }

  const uint64_t max_chunks =
      arena_.size() / sizeof(MemChunk);  // loop guard for corrupt lists
  for (int ti = 0; ti < kNumObjTypes; ++ti) {
    TypeState& st = types_[ti];
    common::MutexLock hlk(st.head_mu);
    uint64_t off = root_->heads[ti];
    uint64_t n = 0;
    while (off != pmem::kNullOff) {
      if (++n > max_chunks)
        throw std::runtime_error("StripedAllocator: cyclic chunk list");
      arena_.mark_used(off, st.geom.chunk_bytes);
      auto* c = chunk_ptr(off);
      Stripe& s = stripe_for(st, off);
      common::MutexLock lk(s.mu);
      ChunkState& cs = s.chunks[off];
      // DRAM shadows rebuild straight from the durable PM headers; the
      // caller's micro-log replay then applies its fix-ups through the
      // normal commit/free paths, which keep the shadows in sync.
      cs.shadow = ChunkHdr::bitmap(c->header);
      cs.reserved = 0;
      cs.retired = 0;
      cs.pending = 0;
      cs.dirty = false;
      cs.in_avail = false;
      if (cs.shadow != kBitmapMask) make_available_locked(s, off, cs);
      off = c->pnext;
    }
  }
}

void StripedAllocator::for_each_live(
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

std::vector<uint64_t> StripedAllocator::chunk_offsets(ObjType t) const {
  std::vector<uint64_t> out;
  uint64_t off = root_->heads[static_cast<int>(t)];
  while (off != pmem::kNullOff) {
    out.push_back(off);
    off = chunk_ptr(off)->pnext;
  }
  return out;
}

uint64_t StripedAllocator::live_objects(ObjType t) const {
  const TypeState& st = ts(t);
  uint64_t total = 0;
  for (const auto& s : st.stripes) {
    common::MutexLock lk(s.mu);
    for (const auto& [off, cs] : s.chunks)
      total += static_cast<uint64_t>(std::popcount(cs.shadow));
  }
  return total;
}

uint64_t StripedAllocator::chunk_count(ObjType t) const {
  const TypeState& st = ts(t);
  uint64_t total = 0;
  for (const auto& s : st.stripes) {
    common::MutexLock lk(s.mu);
    total += s.chunks.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

AllocOptions::Kind resolve_alloc_kind(AllocOptions::Kind k) {
  if (k != AllocOptions::Kind::kAuto) return k;
  const char* env = std::getenv("HART_LEGACY_ALLOC");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0'))
    return AllocOptions::Kind::kLegacy;
  return AllocOptions::Kind::kStriped;
}

std::unique_ptr<Allocator> make_allocator(pmem::Arena& arena, EPRoot* root,
                                          uint32_t leaf_obj_size,
                                          LeafProbeFn probe, LeafClearFn clear,
                                          const AllocOptions& opts) {
  if (resolve_alloc_kind(opts.kind) == AllocOptions::Kind::kLegacy)
    return std::make_unique<EPAllocator>(arena, root, leaf_obj_size, probe,
                                         clear);
  uint32_t n = opts.stripes;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 4 : (hw > 8 ? 8 : hw);
  }
  if (n > AllocOptions::kMaxStripes) n = AllocOptions::kMaxStripes;
  return std::make_unique<StripedAllocator>(arena, root, leaf_obj_size, probe,
                                            clear, n, opts.batched_meta);
}

}  // namespace hart::epalloc
