#include "hart/hart.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace hart::core {

namespace {
constexpr uint64_t kHartMagic = kHartRootMagic;

size_t value_object_size(epalloc::ObjType t) {
  return epalloc::value_class_size(t);
}

obs::Counter& read_fallback_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("hart_read_fallback_total");
  return c;
}

/// Writer side of the partition seqlock (HashDir::Partition::mod_version):
/// odd for the duration of the mutator's critical section, so an optimistic
/// multi-leaf walk (range) that overlaps any mutation sees a version change
/// and discards its results. Boehm's seqlock-writer ordering: the odd store
/// is fenced (release) before the data stores; the even store is itself a
/// release.
class ModGuard {
 public:
  explicit ModGuard(HashDir::Partition* part)
      : part_(part),
        v_(part->mod_version.load(std::memory_order_relaxed)) {
    part_->mod_version.store(v_ + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  ~ModGuard() {
    part_->mod_version.store(v_ + 2, std::memory_order_release);
  }
  ModGuard(const ModGuard&) = delete;
  ModGuard& operator=(const ModGuard&) = delete;

 private:
  HashDir::Partition* part_;
  uint64_t v_;
};
}  // namespace

Hart::Options Hart::resolve_options(pmem::Arena& arena, Options opts) {
  const auto* root = arena.root<HartRoot>();
  if (root->magic == kHartMagic) {
    // Reopening an existing HART: kh is a structural parameter recorded in
    // the root (the split of every persisted key depends on it).
    opts.hash_key_len = root->hash_key_len;
  }
  if (opts.hash_key_len > 8)
    throw std::invalid_argument("hash_key_len must be <= 8");
  if ((opts.hash_buckets & (opts.hash_buckets - 1)) != 0)
    throw std::invalid_argument("hash_buckets must be a power of two");
  return opts;
}

Hart::Hart(pmem::Arena& arena, Options opts)
    : arena_(arena),
      opts_(resolve_options(arena, opts)),
      root_(arena.root<HartRoot>()),
      ep_(epalloc::make_allocator(arena, &root_->ep, sizeof(HartLeaf),
                                  &hart_leaf_probe, &hart_leaf_clear,
                                  opts_.alloc)),
      dir_(opts_.hash_buckets,
           HartLeafTraits{opts_.hash_key_len, &arena},
           &dram_bytes_,
           opts_.rwlock_reads ? nullptr : &common::ebr::Domain::instance(),
           opts_.fingerprints) {
  if (root_->magic == kHartMagic) {
    recover();
  } else {
    *root_ = HartRoot{};
    root_->hash_key_len = opts_.hash_key_len;
    root_->magic = kHartMagic;
    arena_.persist(root_, sizeof(HartRoot));
  }
}

Hart::~Hart() {
  // Retired ART nodes hold a callback context pointing at their tree, and
  // retired PM slots one pointing at this Hart — both die with us.
  if (optimistic()) common::ebr::Domain::instance().drain();
}

void Hart::retire_slot(epalloc::ObjType cls, uint64_t off) {
  // Offsets are 8-aligned (every EPallocator object size is a multiple of
  // 8), so the class tag rides in the low bits of the packed pointer.
  common::ebr::Domain::instance().retire(
      reinterpret_cast<void*>(off | static_cast<uint64_t>(cls)),
      &Hart::retire_slot_cb, this);
}

void Hart::retire_slot_cb(void* packed, void* self) {
  const auto bits = reinterpret_cast<uint64_t>(packed);
  static_cast<Hart*>(self)->ep_->release_retired(
      static_cast<epalloc::ObjType>(bits & 7), bits & ~uint64_t{7});
}

// Algorithm 1: Insertion(K, V, HT).
common::Status Hart::insert(std::string_view key, std::string_view value) {
  if (auto s = common::validate_key(key); !s.ok()) return s;
  if (auto s = common::validate_value(value); !s.ok()) return s;
  const uint64_t hkey = pack_hash_key(key, opts_.hash_key_len);
  // Lines 2-5: locate the ART, creating one if absent.
  HashDir::Partition* part = dir_.find_or_create(hkey);
  common::WriterLock lk(part->mu);
  // Writers pin the epoch too: every retire below (replaced ART nodes,
  // superseded value slots) must land in a bucket readers admitted after
  // the unlink cannot reach — see ebr::Domain::retire's contract.
  common::ebr::Guard ebr_pin(common::ebr::Domain::instance());
  ModGuard mod(part);

  // Line 6-8: if the key exists, this is an update.
  const art::Key akey = art_key(key);
  if (HartLeaf* existing = part->tree.search(akey); existing != nullptr) {
    if (auto s = update_locked(existing, value); !s.ok()) return s;
    return common::Status::kUpdated;
  }

  // Lines 10-11: allocate the leaf and the value object. Exhaustion backs
  // out cleanly — reservations are volatile, nothing was persisted.
  uint64_t leaf_off = 0;
  if (auto s = ep_->reserve(epalloc::ObjType::kLeaf, &leaf_off); !s.ok())
    return s;
  const epalloc::ObjType vcls = value_class_for(value.size());
  uint64_t val_off = 0;
  if (auto s = ep_->reserve(vcls, &val_off); !s.ok()) {
    ep_->release(epalloc::ObjType::kLeaf, leaf_off);
    return s;
  }

  // Line 12: value = V; persistent(value).
  char* vp = arena_.ptr<char>(val_off);
  std::memcpy(vp, value.data(), value.size());
  std::memset(vp + value.size(), 0, value_object_size(vcls) - value.size());
  arena_.trace_store(vp, value_object_size(vcls));
  arena_.persist(vp, value_object_size(vcls));

  // Lines 13 and 15-16, fused (DESIGN.md §1): the complete key, its length
  // and the tail (p_value = &value, class tag, length, fingerprint) go into
  // the leaf, then one persistent() covers the whole leaf. The leaf bit is
  // still clear, so the key bytes mean nothing yet; what matters is that
  // the tail is durable *before* the value bit — the stale-value probe and
  // the verifier interpret p_value through val_class, so a crash after the
  // value bit must never find a stale class next to it.
  auto* leaf = arena_.ptr<HartLeaf>(leaf_off);
  std::memcpy(leaf->key, key.data(), key.size());
  leaf->key_len = static_cast<uint8_t>(key.size());
  leaf->val_len = static_cast<uint8_t>(value.size());
  leaf->val_class = value_class_tag(vcls);
  // Recovery re-tags the DRAM tree from the persisted fingerprint.
  leaf->key_fp = art::key_fingerprint(akey);
  leaf->vseq = 0;  // even: no update in flight (reused slots hold garbage)
  leaf->p_value = val_off;
  arena_.trace_store(leaf->key, key.size());
  arena_.trace_store(&leaf->key_len,
                     sizeof(HartLeaf) - offsetof(HartLeaf, key_len));
  arena_.persist(leaf, sizeof(HartLeaf));

  // Line 14: set + persist the value bit.
  ep_->commit(vcls, val_off);

  // Line 17: Insert2Tree — DRAM only, no persistence needed (selective
  // consistency: internal nodes are reconstructable). The tree is keyed by
  // the caller's DRAM copy of the key: reading it back from the leaf would
  // be a charged PM read. The release store publishing the leaf into the
  // tree is what makes the plain stores above visible to lock-free readers.
  part->tree.insert(akey, leaf);

  // Line 18: set + persist the leaf bit — the commit point.
  ep_->commit(epalloc::ObjType::kLeaf, leaf_off);
  count_.fetch_add(1, std::memory_order_relaxed);
  return common::Status::kInserted;
}

// Algorithm 3: Update(K, V, L) — out-of-place with the update micro-log.
common::Status Hart::update_locked(HartLeaf* leaf, std::string_view value) {
  const uint64_t leaf_off = arena_.off(leaf);
  const uint64_t old_off = leaf->p_value;
  const epalloc::ObjType old_cls = value_class_of(leaf);
  const epalloc::ObjType new_cls = value_class_for(value.size());

  // Lines 4-5: write the new value into freshly allocated space. On
  // exhaustion nothing was written: the old value is untouched and no log
  // slot is held, so returning is a clean abort.
  uint64_t new_off = 0;
  if (auto s = ep_->reserve(new_cls, &new_off); !s.ok()) return s;
  char* vp = arena_.ptr<char>(new_off);
  std::memcpy(vp, value.data(), value.size());
  std::memset(vp + value.size(), 0, value_object_size(new_cls) - value.size());
  arena_.trace_store(vp, value_object_size(new_cls));
  arena_.persist(vp, value_object_size(new_cls));

  // Lines 2-3 and 6, fused (DESIGN.md §1): the whole record is written with
  // PNewV last, then flushed once. The slot sits inside one cache line
  // (acquire_ulog guarantees it), and stores to one line reach PM in
  // program order, so a durable PNewV implies durable PLeaf, POldV and
  // meta. Without PNewV recovery resets the slot — the new value's
  // reservation is volatile — so PLeaf needs no flush of its own.
  epalloc::UpdateLog* ulog = ep_->acquire_ulog();
  ulog->pleaf = leaf_off;
  ulog->poldv = old_off;
  ulog->meta = epalloc::UpdateLog::pack_meta(
      static_cast<uint32_t>(value.size()), old_cls, new_cls);
  std::atomic_ref<uint64_t>(ulog->pnewv)
      .store(new_off, std::memory_order_release);
  arena_.trace_store(ulog, sizeof(*ulog));
  arena_.persist(ulog, sizeof(*ulog));

  // Line 7: set the bit for the new value.
  ep_->commit(new_cls, new_off);

  // Line 8: swing the value pointer and its metadata in the leaf — they
  // are adjacent at the leaf tail, one flush covers them. The swing runs
  // under the leaf's vseq seqlock so a lock-free reader can never pair the
  // new pointer with the old length/class (or vice versa); p_value itself
  // is a release store pairing with the reader's acquire, which publishes
  // the new value's bytes. vseq is runtime-only: recovery replay rederives
  // the tail from the log and rezeroes it.
  const std::atomic_ref<uint32_t> vseq(leaf->vseq);
  const uint32_t vs = vseq.load(std::memory_order_relaxed);
  vseq.store(vs + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  std::atomic_ref<uint8_t>(leaf->val_len)
      .store(static_cast<uint8_t>(value.size()), std::memory_order_relaxed);
  std::atomic_ref<uint8_t>(leaf->val_class)
      .store(value_class_tag(new_cls), std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(leaf->p_value)
      .store(new_off, std::memory_order_release);
  vseq.store(vs + 2, std::memory_order_release);
  arena_.trace_store(&leaf->val_len,
                     sizeof(HartLeaf) - offsetof(HartLeaf, val_len));
  arena_.persist(&leaf->val_len,
                 sizeof(HartLeaf) - offsetof(HartLeaf, val_len));

  // Lines 9-10: release the old value, recycle its chunk if empty. With
  // lock-free readers the slot's *reuse* (and the chunk recycle) waits out
  // the grace period; durability is identical — the bit reset persists now.
  if (optimistic()) {
    ep_->free_object_retired(old_cls, old_off);
    retire_slot(old_cls, old_off);
  } else {
    ep_->free_object(old_cls, old_off);
    ep_->recycle_chunk_of(old_cls, old_off);
  }

  // Line 11: LogReclaim.
  ep_->reclaim_ulog(ulog);
  return common::Status::kOk;
}

common::Status Hart::update(std::string_view key, std::string_view value) {
  if (auto s = common::validate_key(key); !s.ok()) return s;
  if (auto s = common::validate_value(value); !s.ok()) return s;
  HashDir::Partition* part =
      dir_.find(pack_hash_key(key, opts_.hash_key_len));
  if (part == nullptr) return common::Status::kNotFound;
  common::WriterLock lk(part->mu);
  common::ebr::Guard ebr_pin(common::ebr::Domain::instance());
  ModGuard mod(part);
  HartLeaf* leaf = part->tree.search(art_key(key));
  if (leaf == nullptr) return common::Status::kNotFound;
  if (auto s = update_locked(leaf, value); !s.ok()) return s;
  return common::Status::kOk;
}

int Hart::read_leaf_value_optimistic(const HartLeaf* leaf,
                                     std::string* out) const {
  auto* m = const_cast<HartLeaf*>(leaf);
  const std::atomic_ref<uint32_t> vseq(m->vseq);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint32_t v0 = vseq.load(std::memory_order_acquire);
    if ((v0 & 1) != 0) continue;  // update mid-swing
    // Acquire on p_value pairs with the updater's release store: the new
    // value object's bytes become visible before its pointer does.
    const uint64_t pv = std::atomic_ref<uint64_t>(m->p_value)
                            .load(std::memory_order_acquire);
    const uint8_t len = std::atomic_ref<uint8_t>(m->val_len)
                            .load(std::memory_order_relaxed);
    const uint8_t cls = std::atomic_ref<uint8_t>(m->val_class)
                            .load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (vseq.load(std::memory_order_relaxed) != v0) continue;
    // (pv, len, cls) is a consistent tail snapshot. The slot behind pv
    // cannot be reused before our epoch pin is released (EBR), and value
    // objects are never mutated in place, so the copy below is race-free.
    if (pv == 0) return 0;  // deleted under us (Alg. 5's p_value clear)
    const char* vp = arena_.ptr<char>(pv);
    arena_.pm_read(vp, value_object_size(static_cast<epalloc::ObjType>(
                           static_cast<uint8_t>(cls + 1))));
    if (out != nullptr) out->assign(vp, len);
    return 1;
  }
  return -1;
}

// Algorithm 4: Search(K, HT) — lock-free by default: OLC descent through
// the DRAM nodes, then a vseq-validated value read from PM. Persistent
// churn (retries exhausted) falls back to the paper's shared-lock read.
common::Status Hart::search(std::string_view key, std::string* out) const {
  if (auto s = common::validate_key(key); !s.ok()) return s;
  HashDir::Partition* part =
      dir_.find(pack_hash_key(key, opts_.hash_key_len));
  if (part == nullptr) return common::Status::kNotFound;
  const art::Key akey = art_key(key);
  if (optimistic()) {
    common::ebr::Guard g(common::ebr::Domain::instance());
    const auto r = part->tree.search_optimistic(akey);
    if (r.ok) {
      if (r.leaf == nullptr) return common::Status::kNotFound;
      // Line 9: validate the leaf bit in the chunk bitmap (lock-free).
      if (!ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(r.leaf)))
        return common::Status::kNotFound;
      const int vr = read_leaf_value_optimistic(r.leaf, out);
      if (vr > 0) return common::Status::kOk;
      if (vr == 0) return common::Status::kNotFound;
    }
    read_fallback_counter().inc();
  }
  common::ReaderLock lk(part->mu);
  const HartLeaf* leaf = part->tree.search(akey);
  if (leaf == nullptr) return common::Status::kNotFound;
  // Line 9: validate the leaf bit in the chunk bitmap.
  if (!ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
    return common::Status::kNotFound;
  const char* vp = arena_.ptr<char>(leaf->p_value);
  arena_.pm_read(vp, value_object_size(value_class_of(leaf)));
  if (out != nullptr) out->assign(vp, leaf->val_len);
  return common::Status::kOk;
}

// Algorithm 5: Deletion(K, HT).
common::Status Hart::remove(std::string_view key) {
  if (auto s = common::validate_key(key); !s.ok()) return s;
  HashDir::Partition* part =
      dir_.find(pack_hash_key(key, opts_.hash_key_len));
  if (part == nullptr) return common::Status::kNotFound;
  common::WriterLock lk(part->mu);
  common::ebr::Guard ebr_pin(common::ebr::Domain::instance());
  ModGuard mod(part);
  // Lines 5-9: locate and unlink the leaf from the (DRAM) tree.
  HartLeaf* leaf = part->tree.remove(art_key(key));
  if (leaf == nullptr) return common::Status::kNotFound;
  const uint64_t leaf_off = arena_.off(leaf);
  const uint64_t val_off = leaf->p_value;
  const epalloc::ObjType vcls = value_class_of(leaf);

  // Lines 11-12: reset the leaf bit, then the value bit. A crash in
  // between leaves a dangling committed value that EPMalloc's stale-value
  // check reclaims when the leaf slot is reused (Alg. 2 lines 12-16).
  //
  // Deviation from the paper's Algorithm 5 (documented in DESIGN.md): the
  // freed leaf's p_value is additionally cleared once both bits are reset.
  // Otherwise, after the freed value slot is re-allocated to another key,
  // a reuse of this leaf slot would see p_value -> live value with its bit
  // set and Alg. 2's stale-value check would reclaim the *new* owner's
  // value. All three steps happen atomically w.r.t. leaf reservations.
  //
  // Lock-free readers may still hold either slot, so in optimistic mode
  // both frees are retired: the persistent bits reset now (the deletion is
  // durable immediately), reuse and the chunk recycles wait out the grace
  // period (release_retired runs them).
  if (optimistic()) {
    ep_->free_leaf_with_value_retired(leaf_off, vcls, val_off);
    retire_slot(vcls, val_off);
    retire_slot(epalloc::ObjType::kLeaf, leaf_off);
  } else {
    ep_->free_leaf_with_value(leaf_off, vcls, val_off);
    // Lines 13-14: recycle now-empty chunks.
    ep_->recycle_chunk_of(vcls, val_off);
    ep_->recycle_chunk_of(epalloc::ObjType::kLeaf, leaf_off);
  }

  // Lines 15-16: free the ART if it became empty (internal nodes were
  // already collapsed away by the tree removal).
  count_.fetch_sub(1, std::memory_order_relaxed);
  return common::Status::kOk;
}

size_t Hart::range(
    std::string_view lo, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) const {
  out->clear();
  if (limit == 0 || !common::validate_key(lo).ok()) return 0;
  const uint64_t hlo = pack_hash_key(lo, opts_.hash_key_len);

  auto emit_locked = [&](HartLeaf* leaf) {
    if (!ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
      return true;
    const char* vp = arena_.ptr<char>(leaf->p_value);
    arena_.pm_read(vp, value_object_size(value_class_of(leaf)));
    out->emplace_back(std::string(leaf->key, leaf->key_len),
                      std::string(vp, leaf->val_len));
    return out->size() < limit;
  };

  if (!optimistic()) {
    dir_.for_each_partition_from(hlo, [&](HashDir::Partition* part) {
      common::ReaderLock lk(part->mu);
      return part->hkey == hlo
                 ? part->tree.for_each_from(art_key(lo), emit_locked)
                 : part->tree.for_each(emit_locked);
    });
    return out->size();
  }

  // Optimistic scan: per partition, walk without the lock, staging entries
  // aside; the walk is valid iff the partition's mod_version is even and
  // unchanged across it (no mutator critical section overlapped). A torn
  // walk is discarded and retried; persistent churn degrades to the
  // shared-lock walk for that partition only.
  common::ebr::Guard g(common::ebr::Domain::instance());
  std::vector<std::pair<std::string, std::string>> staging;
  constexpr int kRangeAttempts = 4;
  dir_.for_each_partition_from(hlo, [&](HashDir::Partition* part) {
    bool done = false;
    for (int a = 0; a < kRangeAttempts && !done; ++a) {
      const uint64_t v0 = part->mod_version.load(std::memory_order_acquire);
      if ((v0 & 1) != 0) continue;  // mutator mid-section; try again
      staging.clear();
      bool torn = false;
      auto emit = [&](HartLeaf* leaf) {
        if (!ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
          return true;
        std::string val;
        const int vr = read_leaf_value_optimistic(leaf, &val);
        if (vr < 0) {
          torn = true;
          return false;
        }
        if (vr == 0) return true;  // deleted under us
        staging.emplace_back(std::string(leaf->key, leaf->key_len),
                             std::move(val));
        return out->size() + staging.size() < limit;
      };
      part->hkey == hlo ? part->tree.for_each_from(art_key(lo), emit)
                        : part->tree.for_each(emit);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (torn || part->mod_version.load(std::memory_order_relaxed) != v0)
        continue;
      for (auto& kv : staging) out->push_back(std::move(kv));
      done = true;
    }
    if (!done) {
      read_fallback_counter().inc();
      common::ReaderLock lk(part->mu);
      part->hkey == hlo ? part->tree.for_each_from(art_key(lo), emit_locked)
                        : part->tree.for_each(emit_locked);
    }
    return out->size() < limit;
  });
  return out->size();
}

size_t Hart::multi_get(const std::vector<std::string>& keys,
                       std::vector<std::string>* out,
                       std::vector<bool>* found) const {
  out->assign(keys.size(), std::string());
  found->assign(keys.size(), false);
  size_t hits = 0;

  if (optimistic()) {
    // One epoch pin covers the whole batch; each key takes the lock-free
    // point-lookup path, degrading to a per-partition shared lock only on
    // validation churn.
    common::ebr::Guard g(common::ebr::Domain::instance());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!common::validate_key(keys[i]).ok()) continue;  // miss, not throw
      HashDir::Partition* part =
          dir_.find(pack_hash_key(keys[i], opts_.hash_key_len));
      if (part == nullptr) continue;
      const art::Key akey = art_key(keys[i]);
      const auto r = part->tree.search_optimistic(akey);
      if (r.ok) {
        if (r.leaf == nullptr ||
            !ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(r.leaf)))
          continue;
        const int vr = read_leaf_value_optimistic(r.leaf, &(*out)[i]);
        if (vr == 0) continue;
        if (vr > 0) {
          (*found)[i] = true;
          ++hits;
          continue;
        }
      }
      read_fallback_counter().inc();
      common::ReaderLock lk(part->mu);
      const HartLeaf* leaf = part->tree.search(akey);
      if (leaf == nullptr ||
          !ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
        continue;
      const char* vp = arena_.ptr<char>(leaf->p_value);
      arena_.pm_read(vp, value_object_size(value_class_of(leaf)));
      (*out)[i].assign(vp, leaf->val_len);
      (*found)[i] = true;
      ++hits;
    }
    return hits;
  }

  // Ablation mode: group request indices by partition so each ART lock is
  // taken once.
  std::unordered_map<HashDir::Partition*, std::vector<size_t>> groups;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!common::validate_key(keys[i]).ok()) continue;
    HashDir::Partition* part =
        dir_.find(pack_hash_key(keys[i], opts_.hash_key_len));
    if (part != nullptr) groups[part].push_back(i);
  }
  for (auto& [part, idxs] : groups) {
    common::ReaderLock lk(part->mu);
    for (const size_t i : idxs) {
      const HartLeaf* leaf = part->tree.search(art_key(keys[i]));
      if (leaf == nullptr ||
          !ep_->bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
        continue;
      const char* vp = arena_.ptr<char>(leaf->p_value);
      arena_.pm_read(vp, value_object_size(value_class_of(leaf)));
      (*out)[i].assign(vp, leaf->val_len);
      (*found)[i] = true;
      ++hits;
    }
  }
  return hits;
}

uint64_t Hart::flush_epoch() {
  // One persistent() call per batch: the stamped counter changes every
  // time, so the fence is never a redundant persist, and its completion
  // point is the batch's commit point (each op persisted its own data
  // before returning; this is the amortized final fence).
  obs::TraceSpan span("epoch_fence", obs::TraceKind::kFence);
  const uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  // Batched allocator metadata rides this fence: every deferred chunk-
  // header persist must be durable before the epoch stamp that declares
  // the batch committed (no-op for eager allocators).
  ep_->flush_metadata(e);
  root_->epoch = e;
  arena_.trace_store(&root_->epoch, sizeof(root_->epoch));
  arena_.persist(&root_->epoch, sizeof(root_->epoch));
  epoch_.store(e, std::memory_order_release);
  static obs::Counter& fences =
      obs::Registry::instance().counter("hart_fence_total");
  fences.inc();
  return e;
}

void Hart::quiesce() {
  dir_.for_each_partition([](HashDir::Partition* part) {
    common::WriterLock lk(part->mu);
    return true;
  });
  // Every in-flight op has completed; flush the reclamation backlog so a
  // subsequent arena close leaves no slot in retired limbo, and push any
  // deferred chunk-header persists out (the drain's frees may have dirtied
  // more headers, so the order matters).
  if (optimistic()) common::ebr::Domain::instance().drain();
  ep_->flush_metadata(epoch_.load(std::memory_order_relaxed));
}

common::MemoryUsage Hart::memory_usage() const {
  common::MemoryUsage u;
  u.dram_bytes = dram_bytes_.load(std::memory_order_relaxed);
  u.pm_bytes = arena_.stats().pm_live_bytes.load(std::memory_order_relaxed);
  return u;
}

HartCursor::HartCursor(const Hart& hart, std::string_view start,
                       size_t batch_size)
    : hart_(hart), batch_size_(batch_size == 0 ? 1 : batch_size) {
  refill(std::string(start), /*skip_equal=*/false);
}

void HartCursor::refill(const std::string& from, bool skip_equal) {
  // Fetch one extra entry so that re-seeking from the last consumed key
  // (inclusive lower bound) can drop the duplicate.
  hart_.range(from, batch_size_ + 1, &buf_);
  pos_ = 0;
  if (skip_equal && !buf_.empty() && buf_.front().first == from)
    pos_ = 1;
}

void HartCursor::next() {
  if (!valid()) return;
  if (pos_ + 1 < buf_.size()) {
    ++pos_;
    return;
  }
  const std::string last = std::move(buf_.back().first);
  refill(last, /*skip_equal=*/true);
}

// Algorithm 3's recovery case analysis, applied to every log slot.
void Hart::replay_update_logs() {
  for (auto& ulog : root_->ep.ulogs) {
    if (ulog.pleaf == 0 || ulog.pnewv == 0) {
      // Not a complete record: a crash before the record's flush (the old
      // value is intact; the new one's reservation evaporated), or a torn
      // LogReclaim. Either way the slot must come back fully zeroed — a
      // stale PNewV left behind would otherwise complete the record the
      // next update writes into this slot before that update's flush.
      if (ulog.pleaf != 0 || ulog.poldv != 0 || ulog.pnewv != 0 ||
          ulog.meta != 0) {
        ulog = epalloc::UpdateLog{};
        arena_.trace_store(&ulog, sizeof(ulog));
        arena_.persist(&ulog, sizeof(ulog));
      }
      continue;
    }
    // All three pointers valid: resume from line 7 (idempotent redo).
    auto* leaf = arena_.ptr<HartLeaf>(ulog.pleaf);
    const epalloc::ObjType new_cls = ulog.new_class();
    const epalloc::ObjType old_cls = ulog.old_class();
    ep_->commit(new_cls, ulog.pnewv);
    leaf->p_value = ulog.pnewv;
    leaf->val_len = static_cast<uint8_t>(ulog.new_len());
    leaf->val_class = value_class_tag(new_cls);
    leaf->vseq = 0;  // a crash mid-swing may have left it odd
    arena_.trace_store(leaf, sizeof(HartLeaf));
    arena_.persist(leaf, sizeof(HartLeaf));
    // Line 9 only. Line 10's chunk recycle must not run here: with batched
    // metadata, a live leaf's value in the same chunk may still lack its
    // durable bit until the leaf walk re-commits it, so the chunk can look
    // empty now. An empty chunk left linked is reused, not leaked.
    if (ep_->bit_is_set(old_cls, ulog.poldv))
      ep_->free_object(old_cls, ulog.poldv);
    ulog = epalloc::UpdateLog{};
    arena_.trace_store(&ulog, sizeof(ulog));
    arena_.persist(&ulog, sizeof(ulog));
  }
}

// Algorithm 7: Recovery(HT) — rebuild the hash table and all internal
// nodes from the persistent leaf list.
void Hart::recover(unsigned threads) {
  obs::TraceSpan span("hart_recover", obs::TraceKind::kRecovery, threads);
  static obs::Counter& runs =
      obs::Registry::instance().counter("hart_recover_runs_total");
  runs.inc();
  // Retired nodes/slots hold callbacks into the trees about to be cleared
  // and the allocator state about to be rebuilt — flush them first.
  if (optimistic()) common::ebr::Domain::instance().drain();
  dir_.clear();
  count_.store(0, std::memory_order_relaxed);
  epoch_.store(root_->epoch, std::memory_order_relaxed);
  ep_->recover_structure();
  replay_update_logs();

  static obs::Counter& completed_deletes = obs::Registry::instance().counter(
      "hart_recover_completed_deletes_total");
  static obs::Counter& recommitted_values = obs::Registry::instance().counter(
      "hart_recover_recommitted_values_total");

  const HartLeafTraits traits{opts_.hash_key_len, &arena_};
  auto insert_leaf = [&](uint64_t leaf_off) {
    // Rebuild inserts can replace (and thus retire) freshly built nodes in
    // optimistic mode, so each recovery worker pins like any other writer.
    common::ebr::Guard ebr_pin(common::ebr::Domain::instance());
    auto* leaf = arena_.ptr<HartLeaf>(leaf_off);
    // Batched-metadata crash repairs. With the legacy (eager) schedule
    // neither state can arise — the old recovery asserted as much — but
    // when header persists batch onto the epoch fence, a crash between a
    // durable step and its deferred header flush leaves exactly these two
    // torn shapes:
    if (leaf->p_value == 0) {
      // An in-flight delete: the leaf's p_value clear persisted (it is
      // eager) but the header bit clears were still deferred. Complete the
      // delete — the slot is free, nothing references the value (the value
      // side, if still committed, is swept as an orphan below).
      completed_deletes.inc();
      ep_->free_object(epalloc::ObjType::kLeaf, leaf_off);
      return;
    }
    if (!ep_->bit_is_set(value_class_of(leaf), leaf->p_value)) {
      // An in-flight insert/update that reached its leaf-side commit point
      // but whose value-bit persist was still deferred: the value bytes
      // are durable (they persist eagerly, before the leaf commit), so
      // re-committing the bit finishes the operation.
      recommitted_values.inc();
      ep_->commit(value_class_of(leaf), leaf->p_value);
    }
    // Fingerprint fix-up: the DRAM-side tag is re-derived from the key
    // bytes by tree.insert below; the persisted copy is repaired here when
    // a legacy image (key_fp == 0) or corruption disagrees. Each leaf is
    // visited by exactly one recovery worker, so the plain store is safe.
    const uint8_t want_fp = art::key_fingerprint(traits.key(leaf));
    if (leaf->key_fp != want_fp) {
      leaf->key_fp = want_fp;
      arena_.trace_store(&leaf->key_fp, sizeof(leaf->key_fp));
      arena_.persist(&leaf->key_fp, sizeof(leaf->key_fp));
    }
    const uint64_t hkey = pack_hash_key(
        std::string_view(leaf->key, leaf->key_len), opts_.hash_key_len);
    HashDir::Partition* part = dir_.find_or_create(hkey);
    if (threads > 1) {
      common::WriterLock lk(part->mu);
      part->tree.insert(traits.key(leaf), leaf);
    } else {
      // Single-threaded recovery needs no locks.
      part->tree.insert(traits.key(leaf), leaf);
    }
    count_.fetch_add(1, std::memory_order_relaxed);
  };

  static obs::Counter& recovered =
      obs::Registry::instance().counter("hart_recovered_leaves_total");
  if (threads <= 1) {
    ep_->for_each_live(epalloc::ObjType::kLeaf, insert_leaf);
  } else {
    // Parallel recovery (extension): shard the leaf chunks across workers.
    const std::vector<uint64_t> chunks =
        ep_->chunk_offsets(epalloc::ObjType::kLeaf);
    const auto& geom = ep_->geom(epalloc::ObjType::kLeaf);
    std::vector<std::thread> pool;
    std::atomic<size_t> next{0};
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= chunks.size()) return;
          const auto* c = arena_.ptr<epalloc::MemChunk>(chunks[i]);
          uint64_t bm = epalloc::ChunkHdr::bitmap(c->header);
          while (bm != 0) {
            const auto idx = static_cast<uint32_t>(std::countr_zero(bm));
            bm &= bm - 1;
            insert_leaf(geom.object_off(chunks[i], idx));
          }
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  recovered.add(count_.load(std::memory_order_relaxed));

  sweep_orphaned_values();
  // Every repair above must be durable before recovery is declared done —
  // a crash right after recover() must not resurrect the repaired states.
  ep_->flush_metadata(root_->epoch);
}

// Reachability sweep over the leaf slots and value lists.
//
// Free leaf slots first. A free slot whose p_value names a committed value
// that no live leaf owns is the pending-reclamation state the stale-value
// probe reclaims lazily on slot reuse (Alg. 2 lines 12-16); legacy crash
// images rely on it, so it is kept. Any other non-zero p_value in a free
// slot is stale and is cleared: an insert that crashed after its leaf
// flush but before its value bit leaves p_value naming a value slot that
// recovery treats as free. Once that slot is re-allocated and committed
// to another key, reusing the leaf slot would make the probe reclaim the
// other key's live value.
//
// Then the values (batched-metadata crash repair): a crash can leave a
// committed value referenced by no leaf slot at all, e.g. a delete whose
// value-bit clear was deferred while the (eager) p_value clear persisted.
// Free those. On an eager-metadata image every committed value is
// referenced somewhere, so that part is a no-op.
void Hart::sweep_orphaned_values() {
  static obs::Counter& orphans_freed = obs::Registry::instance().counter(
      "hart_recover_orphan_values_total");
  static obs::Counter& stale_refs_cleared = obs::Registry::instance().counter(
      "hart_recover_stale_refs_cleared_total");
  std::unordered_set<uint64_t> referenced;
  std::vector<uint64_t> free_refs;  // free leaf slots with a p_value
  const auto& lg = ep_->geom(epalloc::ObjType::kLeaf);
  for (const uint64_t c_off :
       ep_->chunk_offsets(epalloc::ObjType::kLeaf)) {
    const uint64_t live = epalloc::ChunkHdr::bitmap(
        arena_.ptr<epalloc::MemChunk>(c_off)->header);
    for (uint32_t i = 0; i < epalloc::kObjectsPerChunk; ++i) {
      const uint64_t off = lg.object_off(c_off, i);
      const auto* leaf = arena_.ptr<HartLeaf>(off);
      if (leaf->p_value == 0) continue;
      if (((live >> i) & 1) != 0) {
        referenced.insert(leaf->p_value);
      } else {
        free_refs.push_back(off);
      }
    }
  }
  for (const uint64_t off : free_refs) {
    const auto* leaf = arena_.ptr<HartLeaf>(off);
    // The tail of a slot that never completed an insert may be torn, so
    // the class tag is range-checked before it is used.
    const bool pending =
        leaf->val_class + 1 < epalloc::kNumObjTypes &&
        !referenced.contains(leaf->p_value) &&
        ep_->bit_is_set(value_class_of(leaf), leaf->p_value);
    if (pending) {
      referenced.insert(leaf->p_value);
      continue;
    }
    stale_refs_cleared.inc();
    hart_leaf_clear(arena_, off);
  }
  for (int t = 1; t < epalloc::kNumObjTypes; ++t) {
    const auto cls = static_cast<epalloc::ObjType>(t);
    std::vector<uint64_t> orphans;
    ep_->for_each_live(cls, [&](uint64_t off) {
      if (!referenced.contains(off)) orphans.push_back(off);
    });
    for (const uint64_t off : orphans) {
      orphans_freed.inc();
      ep_->free_object(cls, off);
    }
  }
}

}  // namespace hart::core
