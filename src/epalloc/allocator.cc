#include "epalloc/allocator.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <new>
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
  obs::Counter& pm_meta_persists;
  obs::Counter& stripe_steals;
  obs::Counter& stripe_spawned;
  obs::Counter& meta_flush_batches;
  obs::Counter& meta_deferred;
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
      reg.counter("epalloc_pm_meta_persists_total"),
      reg.counter("epalloc_stripe_steals_total"),
      reg.counter("epalloc_stripe_spawned_total"),
      reg.counter("epalloc_meta_flush_batches_total"),
      reg.counter("epalloc_meta_persists_deferred_total"),
  };
  return c;
}

/// Process-wide thread ordinal: a thread's first reserve of a type starts
/// at a round-robin home stripe.
uint32_t thread_ordinal() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

/// Per thread and type, the stripe that served the thread's last reserve
/// (reduced mod the allocator's stripe count, so one hint serves every
/// allocator the thread uses). kNoStripe until the first reserve.
constexpr uint32_t kNoStripe = ~uint32_t{0};
uint32_t& stripe_hint(ObjType t) {
  thread_local uint32_t hint[kNumObjTypes] = {kNoStripe, kNoStripe, kNoStripe,
                                              kNoStripe, kNoStripe};
  return hint[static_cast<int>(t)];
}

/// Resolve AllocOptions::stripes: 0 = auto (min(hw threads, 8)), clamped
/// to [1, kMaxStripes].
uint32_t resolve_stripes(uint32_t n) {
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 4 : (hw > 8 ? 8 : hw);
  }
  return n > AllocOptions::kMaxStripes ? AllocOptions::kMaxStripes : n;
}
}  // namespace

Allocator::Allocator(pmem::Arena& arena, EPRoot* root, uint32_t leaf_obj_size,
                     const AllocOptions& opts)
    : arena_(arena),
      root_(root),
      nstripes_(resolve_stripes(opts.stripes)),
      batched_(opts.batched_meta) {
  types_[static_cast<int>(ObjType::kLeaf)].geom =
      TypeGeometry::for_obj_size(leaf_obj_size);
  for (int t = 1; t < kNumObjTypes; ++t)
    types_[t].geom = TypeGeometry::for_obj_size(
        value_class_size(static_cast<ObjType>(t)));
  for (auto& st : types_)
    for (uint32_t s = 0; s < nstripes_; ++s) st.stripes.emplace_back();
  ep_counters().stripe_spawned.add(nstripes_);
}

Allocator::~Allocator() {
  // Best-effort: make deferred header persists durable on clean teardown
  // (the service already fences via flush_epoch; this covers bare Hart
  // embedders). A CrashPoint here means a crash test is tearing down an
  // already-crashed arena — swallow it, recovery owns the image.
  try {
    flush_metadata(0);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void Allocator::persist_head() {
  arena_.trace_store(&root_->leaf_head, sizeof(root_->leaf_head));
  arena_.persist(&root_->leaf_head, sizeof(root_->leaf_head));
}

Allocator::ChunkState& Allocator::add_chunk_locked(const TypeState& st,
                                                   Stripe& s,
                                                   uint64_t chunk_off) {
  const size_t i = table_slot(st, chunk_off);
  if (i >= s.table.size()) s.table.resize(i + 1);
  ChunkState& cs = s.table[i];
  assert(!cs.live);
  cs = ChunkState{};
  cs.live = true;
  ++s.nchunks;
  return cs;
}

void Allocator::drop_chunk_locked(const TypeState& st, Stripe& s,
                                  uint64_t chunk_off, ChunkState& cs) {
  cs = ChunkState{};  // stale avail/dirty entries are skipped on use
  --s.nchunks;
  arena_.free(chunk_off, st.geom.chunk_bytes, st.geom.stride);
}

void Allocator::set_prev_locked(uint64_t chunk_off, uint64_t prev) {
  const size_t i = chunk_off / ts(ObjType::kLeaf).geom.stride;
  if (i >= prev_.size()) prev_.resize(i + 1);
  prev_[i] = prev;
}

void Allocator::make_available_locked(Stripe& s, uint64_t chunk_off,
                                      ChunkState& cs) {
  if (!cs.in_avail) {
    cs.in_avail = true;
    s.avail.push_back(chunk_off);
  }
}

void Allocator::mark_dirty_locked(Stripe& s, uint64_t chunk_off,
                                  ChunkState& cs) {
  ep_counters().meta_deferred.inc();
  if (!cs.dirty) {
    cs.dirty = true;
    s.dirty_chunks.push_back(chunk_off);
  }
}

uint64_t Allocator::new_chunk(const TypeState& st, ObjType t) {
  const TypeGeometry& g = st.geom;
  const uint64_t off = arena_.alloc(g.chunk_bytes, g.stride);
  ep_counters().chunk_alloc.inc();
  // A value chunk is a bare span on no list: nothing to write or persist.
  if (!has_persistent_bit(t)) return off;
  // Persist the header line before linking (Alg. 2 lines 8-10): a crash
  // before the head update leaves the chunk unreachable and the recovery
  // reachability scan frees it. The object area is not written: a slot
  // becomes reachable only after its own contents persisted (DESIGN.md
  // §13). List links persist eagerly, even in batched mode.
  common::MutexLock hlk(head_mu_);
  auto* c = chunk_ptr(off);
  const uint64_t old_head = root_->leaf_head;
  c->header = ChunkHdr::make(0, 0, kIndAvailable);
  c->pnext = old_head;
  arena_.trace_store(c, sizeof(MemChunk));
  arena_.persist(c, sizeof(MemChunk));
  root_->leaf_head = off;
  persist_head();
  set_prev_locked(off, 0);
  if (old_head != pmem::kNullOff) set_prev_locked(old_head, off);
  return off;
}

bool Allocator::try_reserve_in_stripe(TypeState& st, Stripe& s,
                                      uint64_t* obj_off) {
  common::MutexLock lk(s.mu);
  while (!s.avail.empty()) {
    const uint64_t c_off = s.avail.back();
    ChunkState* found = find_locked(st, s, c_off);
    if (found == nullptr) {  // recycled; stale avail entry
      s.avail.pop_back();
      continue;
    }
    ChunkState& cs = *found;
    // All allocation decisions read the DRAM shadow.
    const uint64_t occupied = cs.shadow | cs.reserved | cs.retired;
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

uint64_t Allocator::reserve_impl(ObjType t) {
  ep_counters().ep_malloc.inc();
  TypeState& st = ts(t);
  uint64_t obj_off = 0;
  uint32_t& hint = stripe_hint(t);
  const uint32_t first =
      (hint == kNoStripe ? thread_ordinal() : hint) % nstripes_;
  for (uint32_t k = 0; k < nstripes_; ++k) {
    const uint32_t si = (first + k) % nstripes_;
    if (try_reserve_in_stripe(st, st.stripes[si], &obj_off)) {
      if (k != 0) ep_counters().stripe_steals.inc();
      hint = si;
      break;
    }
  }
  if (obj_off == 0) {
    // Every stripe exhausted: open a new chunk. Which stripe it lands on
    // is decided by its offset (the deterministic map), not by the
    // allocating thread; the thread's next reserve starts there.
    const uint64_t c_off = new_chunk(st, t);
    Stripe& s = stripe_for(st, c_off);
    common::MutexLock lk(s.mu);
    ChunkState& cs = add_chunk_locked(st, s, c_off);
    cs.reserved = 1;  // slot 0 goes to this thread
    obj_off = st.geom.object_off(c_off, 0);
    make_available_locked(s, c_off, cs);
    hint = stripe_index(st, c_off);
  }

  // PMCheck: the slot may be re-used space whose previous content was
  // persisted; the new owner's first flush must not count as redundant.
  // Algorithm 2's lines 12-16 (reclaim the value a free leaf slot still
  // names) are gone with the value bits: that value is already free.
  arena_.note_object_alloc(obj_off, st.geom.obj_size);
  return obj_off;
}

common::Status Allocator::reserve(ObjType t, uint64_t* obj_off) {
  try {
    *obj_off = reserve_impl(t);
  } catch (const std::bad_alloc&) {
    return common::Status::kOutOfMemory;
  }
  return common::Status::kOk;
}

void Allocator::commit(ObjType t, uint64_t obj_off) {
  ep_counters().commit.inc();
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  ChunkState* found = find_locked(st, s, c_off);
  assert(found != nullptr);
  ChunkState& cs = *found;
  cs.shadow |= (uint64_t{1} << idx);
  cs.reserved &= ~(uint64_t{1} << idx);
  if (!has_persistent_bit(t)) return;
  auto* c = chunk_ptr(c_off);
  // The header *store* is immediate either way — lock-free bit_probe
  // readers must see committed bits; only the persist may be deferred.
  std::atomic_ref<uint64_t>(c->header)
      .store(ChunkHdr::with_bit(c->header, idx, true),
             std::memory_order_release);
  arena_.trace_store(&c->header, sizeof(c->header));
  if (batched_) {
    mark_dirty_locked(s, c_off, cs);
  } else {
    arena_.persist(&c->header, sizeof(c->header));
    ep_counters().pm_meta_persists.inc();
  }
}

void Allocator::release(ObjType t, uint64_t obj_off) {
  ep_counters().release.inc();
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  ChunkState* cs = find_locked(st, s, c_off);
  assert(cs != nullptr);
  cs->reserved &= ~(uint64_t{1} << idx);
  make_available_locked(s, c_off, *cs);
}

bool Allocator::free_slot_locked(TypeState& st, Stripe& s, ObjType t,
                                 uint64_t obj_off, bool retire) {
  ep_counters().free_obj.inc();
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  ChunkState* found = find_locked(st, s, c_off);
  assert(found != nullptr);
  ChunkState& cs = *found;
  assert((cs.shadow >> idx) & 1);
  cs.shadow &= ~(uint64_t{1} << idx);
  if (has_persistent_bit(t)) {
    // Eager in both schedules: the caller may hand this leaf's value (and
    // the slot itself) to another owner as soon as we return, which is
    // safe only once the cleared bit is durable. The persist covers the
    // whole word, so deferred commits of this chunk are durable too.
    auto* c = chunk_ptr(c_off);
    std::atomic_ref<uint64_t>(c->header)
        .store(ChunkHdr::with_bit(c->header, idx, false),
               std::memory_order_release);
    arena_.trace_store(&c->header, sizeof(c->header));
    arena_.persist(&c->header, sizeof(c->header));
    ep_counters().pm_meta_persists.inc();
    cs.dirty = false;  // a stale dirty_chunks entry is skipped at flush
  }
  if (retire) {
    // No make_available: the retired bit keeps reserve() away until
    // release_retired() runs after the EBR grace period.
    cs.retired |= (uint64_t{1} << idx);
  } else {
    make_available_locked(s, c_off, cs);
  }
  return cs.empty();
}

bool Allocator::free_object(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  Stripe& s = stripe_for(st, st.geom.chunk_of(obj_off));
  common::MutexLock lk(s.mu);
  return free_slot_locked(st, s, t, obj_off, /*retire=*/false);
}

void Allocator::free_object_retired(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  Stripe& s = stripe_for(st, st.geom.chunk_of(obj_off));
  common::MutexLock lk(s.mu);
  free_slot_locked(st, s, t, obj_off, /*retire=*/true);
}

void Allocator::release_retired(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  {
    Stripe& s = stripe_for(st, c_off);
    common::MutexLock lk(s.mu);
    ChunkState* cs = find_locked(st, s, c_off);
    if (cs == nullptr) return;  // chunk freed across a recovery
    const uint32_t idx = st.geom.index_of(obj_off);
    cs->retired &= ~(uint64_t{1} << idx);
    make_available_locked(s, c_off, *cs);
    if (!cs->empty()) return;
  }
  // The free skipped EPRecycle; run it now that the chunk is empty.
  recycle_chunk_of(t, obj_off);
}

bool Allocator::bit_is_set(ObjType t, uint64_t obj_off) const {
  const TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  const ChunkState* cs = find_locked(st, s, c_off);
  if (cs == nullptr) return false;
  return (cs->shadow >> idx) & 1;  // DRAM shadow, no PM read
}

void Allocator::recycle_chunk_of(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  if (!has_persistent_bit(t)) {
    // A value chunk is on no list: its span goes back to the arena with no
    // persist, unless another thread reserved in it since.
    Stripe& s = stripe_for(st, c_off);
    common::MutexLock lk(s.mu);
    ChunkState* cs = find_locked(st, s, c_off);
    if (cs != nullptr && cs->empty()) drop_chunk_locked(st, s, c_off, *cs);
    return;
  }
  common::MutexLock hlk(head_mu_);  // lock order: head_mu_ -> stripe mu
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  ChunkState* found = find_locked(st, s, c_off);
  if (found == nullptr) return;  // already recycled
  ChunkState& cs = *found;
  // Algorithm 6 lines 1-2: only an entirely empty chunk is recycled.
  // Retired slots count as occupied. The caller saw the chunk empty, but
  // another thread may have reserved in it since.
  if (!cs.empty()) return;
  auto* c = chunk_ptr(c_off);
  assert(ChunkHdr::bitmap(c->header) == 0);
  if (cs.dirty) {
    // Make the all-clear header durable before unlinking; the stale entry
    // in dirty_chunks is skipped by the dirty-flag check at flush time.
    arena_.persist(&c->header, sizeof(c->header));
    ep_counters().pm_meta_persists.inc();
    cs.dirty = false;
  }

  const uint64_t prev = prev_[c_off / st.geom.stride];
  const uint64_t next = c->pnext;
  // A stale link would write a wrong pnext into another chunk: refuse
  // before the recycle log is touched (one read of a line the unlink
  // touches anyway).
  if ((prev != 0 ? chunk_ptr(prev)->pnext : root_->leaf_head) != c_off)
    throw std::logic_error("EPAllocator: stale predecessor link for chunk " +
                           std::to_string(c_off));

  RecycleLog& rlog = root_->rlog;
  rlog.pcurrent = c_off;
  arena_.trace_store(&rlog, sizeof(rlog));
  arena_.persist(&rlog, sizeof(rlog));

  if (prev == 0) {
    root_->leaf_head = next;
    persist_head();
  } else {
    rlog.pprev = prev;
    arena_.trace_store(&rlog.pprev, sizeof(rlog.pprev));
    arena_.persist(&rlog.pprev, sizeof(rlog.pprev));
    auto* pc = chunk_ptr(prev);
    pc->pnext = next;
    arena_.trace_store(&pc->pnext, sizeof(pc->pnext));
    arena_.persist(&pc->pnext, sizeof(pc->pnext));
  }
  if (next != pmem::kNullOff) set_prev_locked(next, prev);
  drop_chunk_locked(st, s, c_off, cs);
  ep_counters().chunk_recycle.inc();

  rlog = RecycleLog{};
  arena_.trace_store(&rlog, sizeof(rlog));
  arena_.persist(&rlog, sizeof(rlog));
}

void Allocator::flush_metadata(uint64_t /*epoch*/) {
  if (!batched_) return;
  bool any = false;
  TypeState& st = ts(ObjType::kLeaf);  // only leaf headers persist
  for (auto& s : st.stripes) {
    common::MutexLock lk(s.mu);
    if (s.dirty_chunks.empty()) continue;
    for (const uint64_t c_off : s.dirty_chunks) {
      ChunkState* found = find_locked(st, s, c_off);
      // Stale entry (chunk recycled, possibly even re-spawned clean).
      if (found == nullptr || !found->dirty) continue;
      arena_.persist(&chunk_ptr(c_off)->header,
                     sizeof(chunk_ptr(c_off)->header));
      ep_counters().pm_meta_persists.inc();
      any = true;
      found->dirty = false;
    }
    s.dirty_chunks.clear();
  }
  if (any) ep_counters().meta_flush_batches.inc();
}

void Allocator::finish_recycle_log() {
  RecycleLog& rlog = root_->rlog;
  if (rlog.pcurrent == 0) return;
  const uint64_t c_off = rlog.pcurrent;
  auto* c = chunk_ptr(c_off);
  if (rlog.pprev != 0) {
    // Crash somewhere around Alg. 6 line 10: redo the unlink if pending.
    auto* pc = chunk_ptr(rlog.pprev);
    if (pc->pnext == c_off) {
      pc->pnext = c->pnext;
      arena_.persist(&pc->pnext, sizeof(pc->pnext));
    }
  } else if (root_->leaf_head == c_off) {
    root_->leaf_head = c->pnext;
    persist_head();
  }
  rlog = RecycleLog{};
  arena_.persist(&rlog, sizeof(rlog));
}

void Allocator::recover_structure() {
  finish_recycle_log();

  arena_.reset_alloc_map();
  for (auto& st : types_) {
    for (auto& s : st.stripes) {
      common::MutexLock lk(s.mu);
      s.table.clear();
      s.nchunks = 0;
      s.avail.clear();
      s.dirty_chunks.clear();
    }
  }

  // Leaf shadows rebuild from the PM headers; value chunks come back as
  // the caller's leaf walk names them (mark_live).
  TypeState& st = ts(ObjType::kLeaf);
  const uint64_t max_chunks =
      arena_.size() / st.geom.stride;  // loop guard for corrupt lists
  common::MutexLock hlk(head_mu_);
  prev_.clear();
  uint64_t off = root_->leaf_head;
  uint64_t prev = 0;
  uint64_t n = 0;
  while (off != pmem::kNullOff) {
    if (++n > max_chunks)
      throw std::runtime_error("epalloc: cyclic chunk list");
    arena_.mark_used(off, st.geom.chunk_bytes);
    auto* c = chunk_ptr(off);
    set_prev_locked(off, prev);
    Stripe& s = stripe_for(st, off);
    common::MutexLock lk(s.mu);
    ChunkState& cs = add_chunk_locked(st, s, off);
    cs.shadow = ChunkHdr::bitmap(c->header);
    if (cs.shadow != kBitmapMask) make_available_locked(s, off, cs);
    prev = off;
    off = c->pnext;
  }
}

void Allocator::mark_live(ObjType t, uint64_t obj_off) {
  TypeState& st = ts(t);
  const uint64_t c_off = st.geom.chunk_of(obj_off);
  const uint32_t idx = st.geom.index_of(obj_off);
  if (has_persistent_bit(t) || idx >= kObjectsPerChunk ||
      st.geom.object_off(c_off, idx) != obj_off)
    throw std::runtime_error("epalloc: live reference " +
                             std::to_string(obj_off) +
                             " is not an object slot of its value class");
  Stripe& s = stripe_for(st, c_off);
  common::MutexLock lk(s.mu);
  ChunkState* cs = find_locked(st, s, c_off);
  if (cs == nullptr) {  // the chunk's first live value brings it back
    if (!arena_.mark_used(c_off, st.geom.chunk_bytes))
      throw std::runtime_error(
          "epalloc: value chunk " + std::to_string(c_off) +
          " leaves the arena or overlaps another chunk");
    cs = &add_chunk_locked(st, s, c_off);
    make_available_locked(s, c_off, *cs);
  }
  if ((cs->shadow >> idx) & 1)
    throw std::runtime_error("epalloc: object " + std::to_string(obj_off) +
                             " referenced twice");
  cs->shadow |= uint64_t{1} << idx;
}

void Allocator::for_each_live(const std::function<void(uint64_t)>& f) const {
  for (uint64_t off = root_->leaf_head; off != pmem::kNullOff;
       off = chunk_ptr(off)->pnext)
    for_each_live_in(off, f);
}

void Allocator::for_each_live_in(
    uint64_t chunk_off, const std::function<void(uint64_t)>& f) const {
  uint64_t bm = ChunkHdr::bitmap(chunk_ptr(chunk_off)->header);
  while (bm != 0) {
    const auto idx = static_cast<uint32_t>(std::countr_zero(bm));
    bm &= bm - 1;
    f(geom(ObjType::kLeaf).object_off(chunk_off, idx));
  }
}

std::vector<uint64_t> Allocator::chunk_offsets() const {
  std::vector<uint64_t> out;
  for (uint64_t off = root_->leaf_head; off != pmem::kNullOff;
       off = chunk_ptr(off)->pnext)
    out.push_back(off);
  return out;
}

uint64_t Allocator::live_objects(ObjType t) const {
  const TypeState& st = ts(t);
  uint64_t total = 0;
  for (const auto& s : st.stripes) {
    common::MutexLock lk(s.mu);
    for (const ChunkState& cs : s.table)
      total += static_cast<uint64_t>(std::popcount(cs.shadow));
  }
  return total;
}

uint64_t Allocator::chunk_count(ObjType t) const {
  const TypeState& st = ts(t);
  uint64_t total = 0;
  for (const auto& s : st.stripes) {
    common::MutexLock lk(s.mu);
    total += s.nchunks;
  }
  return total;
}

}  // namespace hart::epalloc
