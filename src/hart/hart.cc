#include "hart/hart.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>
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
  // Refuse before anything reads the image (the allocator and recovery
  // would misread another format's leaves and root).
  if (root->magic == kHartMagic && root->format != kHartFormatVersion)
    throw FormatError(common::Status::kUnsupportedFormat, root->format);
  // Value offsets must fit the packed value word.
  if (arena.size() > ValueRef::kOffMask)
    throw std::invalid_argument("arena larger than 2^48 bytes");
  if (root->magic == kHartMagic) {
    // Reopening an existing HART: kh is a structural parameter recorded in
    // the root (the split of every persisted key depends on it).
    opts.hash_key_len = root->hash_key_len;
  }
  if (opts.hash_key_len > 8)
    throw std::invalid_argument("hash_key_len must be <= 8");
  return opts;
}

Hart::Hart(pmem::Arena& arena, Options opts)
    : arena_(arena),
      opts_(resolve_options(arena, opts)),
      root_(arena.root<HartRoot>()),
      ep_(arena, &root_->ep, sizeof(HartLeaf), opts_.alloc),
      dir_(HartLeafTraits{opts_.hash_key_len, &arena}, &dram_bytes_,
           opts_.rwlock_reads ? nullptr : &common::ebr::Domain::instance(),
           opts_.fingerprints) {
  if (root_->magic == kHartMagic) {
    try {
      recover();
    } catch (...) {
      // A corrupt image: the rebuilt trees die with this Hart, so the
      // nodes their rebuild retired must be freed first (see ~Hart).
      if (optimistic()) common::ebr::Domain::instance().drain();
      throw;
    }
  } else {
    *root_ = HartRoot{};
    root_->hash_key_len = opts_.hash_key_len;
    root_->format = kHartFormatVersion;
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
  static_cast<Hart*>(self)->ep_.release_retired(
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
  if (auto s = ep_.reserve(epalloc::ObjType::kLeaf, &leaf_off); !s.ok())
    return s;
  const epalloc::ObjType vcls = value_class_for(value.size());
  uint64_t val_off = 0;
  if (auto s = ep_.reserve(vcls, &val_off); !s.ok()) {
    ep_.release(epalloc::ObjType::kLeaf, leaf_off);
    return s;
  }

  // Line 12: value = V; persistent(value).
  char* vp = arena_.ptr<char>(val_off);
  std::memcpy(vp, value.data(), value.size());
  std::memset(vp + value.size(), 0, value_object_size(vcls) - value.size());
  arena_.trace_store(vp, value_object_size(vcls));
  arena_.persist(vp, value_object_size(vcls));

  // Lines 13 and 15-16, fused (DESIGN.md §1): the complete key, NUL-padded
  // (the slot was never zeroed, and the padding is what gives the key its
  // length), and the value word (p_value = &value with its length and
  // class) go into the leaf, then one persistent() covers the whole leaf,
  // one cache line. The leaf bit is still clear, so none of it means
  // anything yet.
  auto* leaf = arena_.ptr<HartLeaf>(leaf_off);
  std::memcpy(leaf->key, key.data(), key.size());
  std::memset(leaf->key + key.size(), 0, sizeof(leaf->key) - key.size());
  leaf->p_value = ValueRef::pack(val_off, value.size(), vcls);
  arena_.trace_store(leaf, sizeof(HartLeaf));
  arena_.persist(leaf, sizeof(HartLeaf));

  // Line 14, without its persist: the value has no persistent bit. It is
  // live once the leaf bit below is durable, and recovery derives that
  // from the leaf (DESIGN.md §1, correction 1); this marks the slot used
  // in the allocator's DRAM shadow.
  ep_.commit(vcls, val_off);

  // Line 17: Insert2Tree — DRAM only, no persistence needed (selective
  // consistency: internal nodes are reconstructable). The tree is keyed by
  // the caller's DRAM copy of the key: reading it back from the leaf would
  // be a charged PM read. The release store publishing the leaf into the
  // tree is what makes the plain stores above visible to lock-free readers.
  part->tree.insert(akey, leaf);

  // Line 18: set + persist the leaf bit — the commit point. The value and
  // the leaf that names it are both durable already.
  ep_.commit(epalloc::ObjType::kLeaf, leaf_off);
  count_.fetch_add(1, std::memory_order_relaxed);
  return common::Status::kInserted;
}

// Algorithm 3: Update(K, V, L) — out-of-place and log-free (DESIGN.md §1).
common::Status Hart::update_locked(HartLeaf* leaf, std::string_view value) {
  const uint64_t old_ref = leaf->p_value;
  const uint64_t old_off = ValueRef::off(old_ref);
  const epalloc::ObjType old_cls = ValueRef::cls(old_ref);
  const epalloc::ObjType new_cls = value_class_for(value.size());

  // Lines 4-5: write the new value into freshly allocated space. On
  // exhaustion nothing was written and the old value is untouched, so
  // returning is a clean abort.
  uint64_t new_off = 0;
  if (auto s = ep_.reserve(new_cls, &new_off); !s.ok()) return s;
  char* vp = arena_.ptr<char>(new_off);
  std::memcpy(vp, value.data(), value.size());
  std::memset(vp + value.size(), 0, value_object_size(new_cls) - value.size());
  arena_.trace_store(vp, value_object_size(new_cls));
  arena_.persist(vp, value_object_size(new_cls));

  // Line 7, in DRAM only: the new value has no persistent bit, so a crash
  // before the swing below leaves its slot free. Lines 2-3, 6 and 11 (the
  // update log) are omitted: nothing is left for recovery to repair.
  ep_.commit(new_cls, new_off);

  // Line 8, the commit point: one release store swings the value word
  // (offset, length and class together), and one 8-byte persist makes it
  // durable. The release pairs with lock-free readers' acquire load and
  // publishes the new value's bytes.
  std::atomic_ref<uint64_t>(leaf->p_value)
      .store(ValueRef::pack(new_off, value.size(), new_cls),
             std::memory_order_release);
  arena_.trace_store(&leaf->p_value, sizeof(leaf->p_value));
  arena_.persist(&leaf->p_value, sizeof(leaf->p_value));

  // Lines 9-10: release the old value, recycle its chunk if empty. No
  // persist: the durable swing above already unreferenced it, so its slot
  // may be reused at once. With lock-free readers the reuse (and the chunk
  // recycle) waits out the grace period instead.
  if (optimistic()) {
    ep_.free_object_retired(old_cls, old_off);
    retire_slot(old_cls, old_off);
  } else if (ep_.free_object(old_cls, old_off)) {
    ep_.recycle_chunk_of(old_cls, old_off);
  }
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

void Hart::copy_value(const HartLeaf* leaf, std::string* out) const {
  const uint64_t w = load_value_ref(leaf);
  const char* vp = arena_.ptr<char>(ValueRef::off(w));
  arena_.pm_read(vp, value_object_size(ValueRef::cls(w)));
  if (out != nullptr) out->assign(vp, ValueRef::len(w));
}

// Algorithm 4: Search(K, HT) — lock-free by default: OLC descent through
// the DRAM nodes, then one acquire load of the leaf's value word and a
// value read from PM. Persistent churn (descent retries exhausted) falls
// back to the paper's shared-lock read.
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
      if (!ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(r.leaf)))
        return common::Status::kNotFound;
      copy_value(r.leaf, out);
      return common::Status::kOk;
    }
    read_fallback_counter().inc();
  }
  common::ReaderLock lk(part->mu);
  const HartLeaf* leaf = part->tree.search(akey);
  if (leaf == nullptr) return common::Status::kNotFound;
  // Line 9: validate the leaf bit in the chunk bitmap.
  if (!ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
    return common::Status::kNotFound;
  copy_value(leaf, out);
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
  const uint64_t val_off = ValueRef::off(leaf->p_value);
  const epalloc::ObjType vcls = ValueRef::cls(leaf->p_value);

  // Line 11: reset the leaf bit. Its persist is the delete's only one and
  // its commit point, eager in both metadata schedules. Line 12 (reset the
  // value bit) then only updates the allocator's DRAM shadow: the value
  // has no persistent bit, and once the leaf bit's clear is durable no
  // live leaf names it, so its slot is reusable at once. The leaf keeps
  // its value word; a free slot's word is never read (DESIGN.md §1,
  // correction 1).
  //
  // Lock-free readers may still hold either slot, so in optimistic mode
  // both frees are retired: reuse and the chunk recycles wait out the
  // grace period (release_retired runs them).
  if (optimistic()) {
    ep_.free_object_retired(epalloc::ObjType::kLeaf, leaf_off);
    ep_.free_object_retired(vcls, val_off);
    retire_slot(vcls, val_off);
    retire_slot(epalloc::ObjType::kLeaf, leaf_off);
  } else {
    // Lines 13-14: recycle the chunks that became empty.
    if (ep_.free_object(epalloc::ObjType::kLeaf, leaf_off))
      ep_.recycle_chunk_of(epalloc::ObjType::kLeaf, leaf_off);
    if (ep_.free_object(vcls, val_off)) ep_.recycle_chunk_of(vcls, val_off);
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
    if (!ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
      return true;
    std::string val;
    copy_value(leaf, &val);
    out->emplace_back(leaf_key(leaf), std::move(val));
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
      auto emit = [&](HartLeaf* leaf) {
        if (!ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
          return true;
        std::string val;
        copy_value(leaf, &val);
        staging.emplace_back(leaf_key(leaf), std::move(val));
        return out->size() + staging.size() < limit;
      };
      part->hkey == hlo ? part->tree.for_each_from(art_key(lo), emit)
                        : part->tree.for_each(emit);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (part->mod_version.load(std::memory_order_relaxed) != v0) continue;
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
            !ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(r.leaf)))
          continue;
        copy_value(r.leaf, &(*out)[i]);
        (*found)[i] = true;
        ++hits;
        continue;
      }
      read_fallback_counter().inc();
      common::ReaderLock lk(part->mu);
      const HartLeaf* leaf = part->tree.search(akey);
      if (leaf == nullptr ||
          !ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
        continue;
      copy_value(leaf, &(*out)[i]);
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
          !ep_.bit_probe(epalloc::ObjType::kLeaf, arena_.off(leaf)))
        continue;
      copy_value(leaf, &(*out)[i]);
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
  // Batched allocator metadata rides this fence: every deferred leaf-bit
  // persist must be durable before the epoch stamp that declares the
  // batch committed (no-op for eager allocators).
  ep_.flush_metadata(e);
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
  ep_.flush_metadata(epoch_.load(std::memory_order_relaxed));
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
  ep_.recover_structure();

  const HartLeafTraits traits{opts_.hash_key_len, &arena_};
  auto insert_leaf = [&](uint64_t leaf_off) {
    // Rebuild inserts can replace (and thus retire) freshly built nodes in
    // optimistic mode, so each recovery worker pins like any other writer.
    common::ebr::Guard ebr_pin(common::ebr::Domain::instance());
    auto* leaf = arena_.ptr<HartLeaf>(leaf_off);
    // The value a live leaf names is live, and no other is: value objects
    // have no persistent bit (DESIGN.md §1, correction 1). Every live leaf
    // names a durable value in either metadata schedule, because the leaf
    // bit is set only after the value and the leaf persisted.
    const uint64_t w = leaf->p_value;
    if (ValueRef::class_tag(w) + 1 >= epalloc::kNumObjTypes)
      throw std::runtime_error("HART recovery: leaf " +
                               std::to_string(leaf_off) +
                               " has a bad value class");
    ep_.mark_live(ValueRef::cls(w), ValueRef::off(w));
    // The DRAM fingerprint tag is derived from the key bytes by tree.insert
    // below; PM holds no copy, so recovery writes nothing to the leaf.
    const uint64_t hkey = pack_hash_key(leaf_key(leaf), opts_.hash_key_len);
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
    ep_.for_each_live(insert_leaf);
  } else {
    // Parallel recovery (extension): shard the leaf chunks across workers.
    const std::vector<uint64_t> chunks = ep_.chunk_offsets();
    std::vector<std::thread> pool;
    std::atomic<size_t> next{0};
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= chunks.size()) return;
          ep_.for_each_live_in(chunks[i], insert_leaf);
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  recovered.add(count_.load(std::memory_order_relaxed));
}

}  // namespace hart::core
