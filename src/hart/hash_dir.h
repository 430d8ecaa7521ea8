// HART's DRAM hash table (paper Fig. 1): maps the first kh bytes of a key
// (the "hash key") to the ART indexing the remaining bytes. One
// reader/writer lock per ART gives HART its concurrency (Section III.A.3):
// writes on different ARTs proceed in parallel, reads share.
//
// Implementation notes:
//  * The table is an open-addressing array of Partition pointers sized to
//    its contents: a power-of-two capacity (16 slots when empty), linear
//    probing from a murmur3-finalized home slot, doubled whenever the
//    partitions would fill more than half of it. 100k Dictionary keys
//    make 206 partitions and a 512-slot (4 KiB) table.
//  * find() takes no lock: one acquire load of the live table, then
//    acquire loads along the probe sequence until the hash key or an empty
//    slot. Creation (rare: one per distinct prefix) takes the directory
//    mutex, re-probes, and publishes the partition with a release store
//    into the live table. Growth builds the doubled table off to the side
//    and publishes it with one release store; a reader still probing a
//    superseded table sees every partition created before the swap, so a
//    miss there is a find that ordered before the newer creation. Slots
//    are written only while empty, so a probe never skips a key.
//  * Nothing is reclaimed while readers may run: partitions are never
//    deallocated (when an ART becomes empty, Alg. 5 frees its nodes but
//    the partition shell is reused), and superseded tables are kept until
//    clear() or destruction (no EBR is needed, which the rwlock read mode
//    does not have; together they are smaller than the live table).
//  * Hash keys are packed big-endian into a uint64 (kh <= 8), so numeric
//    order == lexicographic prefix order; an ordered map of prefixes,
//    updated under the same mutex on creation, supports HART's ordered
//    range scan and owns the partitions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "art/art_tree.h"
#include "common/annotations.h"
#include "hart/hart_leaf.h"
#include "obs/counters.h"

namespace hart::core {

/// ART leaf traits: the ART key is the part of the leaf's full key after
/// the hash prefix. Reading a leaf's key touches PM, so it charges the PM
/// read latency (the paper's stall-cycle accounting applied on-line).
struct HartLeafTraits {
  using Leaf = HartLeaf;
  uint32_t kh = 2;
  const pmem::Arena* arena = nullptr;

  art::Key key(const Leaf* l) const {
    // Charge only the immutable key bytes (one line: a leaf never
    // straddles two). The value word is concurrently stored by in-place
    // updates and is read separately with one acquire load; including it
    // here would race PmCheck's plain-byte shadow compare.
    if (arena != nullptr) arena->pm_read(l, sizeof(l->key));
    const std::string_view k = leaf_key(l);
    const size_t h = kh < k.size() ? kh : k.size();
    return {reinterpret_cast<const uint8_t*>(k.data()) + h, k.size() - h};
  }
};

using HartArt = art::Tree<HartLeafTraits>;

/// Pack the first min(kh, len) key bytes big-endian into a uint64.
/// Keys contain no NUL bytes, so zero-padding cannot collide with a real
/// prefix and numeric order equals lexicographic order.
inline uint64_t pack_hash_key(std::string_view key, uint32_t kh) {
  uint64_t v = 0;
  const size_t n = kh < key.size() ? kh : key.size();
  for (size_t i = 0; i < n; ++i)
    v |= static_cast<uint64_t>(static_cast<uint8_t>(key[i])) << (56 - 8 * i);
  return v;
}

class HashDir {
 public:
  struct Partition {
    Partition(uint64_t hk, HartLeafTraits traits,
              std::atomic<uint64_t>* dram_bytes,
              common::ebr::Domain* ebr = nullptr, bool fp_guard = false)
        : hkey(hk), tree(traits, dram_bytes, ebr, fp_guard) {}
    const uint64_t hkey;
    mutable common::SharedMutex mu;  // the per-ART writer (and fallback) lock
    // Deliberately not GUARDED_BY(mu): optimistic readers traverse the tree
    // with no lock at all, relying on OLC node versions + EBR instead; that
    // protocol is checked by tools/hartlint (HL003/HL004), not by TSA.
    HartArt tree;
    /// Partition-level seqlock for optimistic multi-leaf reads (range):
    /// mutators make it odd for the duration of their critical section; an
    /// optimistic walk snapshots it before and validates after, retrying
    /// (then falling back to the shared lock) on a change.
    std::atomic<uint64_t> mod_version{0};
  };

  /// Slots of an empty directory's table.
  static constexpr size_t kInitialCapacity = 16;

  /// `fp_guard` is forwarded to every partition ART (fingerprint-tagged
  /// leaf pointers; see art::Tree).
  HashDir(HartLeafTraits traits, std::atomic<uint64_t>* dram_bytes,
          common::ebr::Domain* ebr = nullptr, bool fp_guard = false)
      : traits_(traits),
        dram_bytes_(dram_bytes),
        ebr_(ebr),
        fp_guard_(fp_guard) {
    common::WriterLock lk(mu_);
    publish_table(kInitialCapacity);
  }

  ~HashDir() {
    common::WriterLock lk(mu_);
    release_all();
  }
  HashDir(const HashDir&) = delete;
  HashDir& operator=(const HashDir&) = delete;

  /// HashFind: nullptr when no partition exists for this hash key.
  [[nodiscard]] Partition* find(uint64_t hkey) const {
    const Table* t = table_.load(std::memory_order_acquire);
    for (size_t i = home_slot(hkey, t->mask);; i = (i + 1) & t->mask) {
      Partition* p = t->slots[i].load(std::memory_order_acquire);
      if (p == nullptr || p->hkey == hkey) return p;
    }
  }

  /// HashInsert (find-or-create): lock-free when the partition exists.
  Partition* find_or_create(uint64_t hkey) {
    if (Partition* p = find(hkey); p != nullptr) return p;
    common::WriterLock lk(mu_);
    if (Partition* p = find(hkey); p != nullptr) return p;  // lost the race
    if (2 * (sorted_.size() + 1) > capacity_locked())
      publish_table(2 * capacity_locked());
    auto owned = std::make_unique<Partition>(hkey, traits_, dram_bytes_,
                                             ebr_, fp_guard_);
    Partition* fresh = owned.get();
    sorted_.emplace(hkey, std::move(owned));
    account(static_cast<int64_t>(sizeof(Partition) + kMapNodeBytes));
    place(table_.load(std::memory_order_relaxed), fresh);
    // HARTscope: one new hash-dir partition (ART) came into existence.
    static obs::Counter& created =
        obs::Registry::instance().counter("hart_partition_create_total");
    created.inc();
    return fresh;
  }

  /// Ordered enumeration of partitions with hkey >= lo (for range scans).
  /// `f(Partition*)` returns false to stop.
  template <class F>
  void for_each_partition_from(uint64_t lo, F&& f) const {
    common::ReaderLock lk(mu_);
    for (auto it = sorted_.lower_bound(lo); it != sorted_.end(); ++it)
      if (!f(it->second.get())) return;
  }

  template <class F>
  void for_each_partition(F&& f) const {
    for_each_partition_from(0, std::forward<F>(f));
  }

  [[nodiscard]] size_t partition_count() const {
    common::ReaderLock lk(mu_);
    return sorted_.size();
  }

  /// Slots in the live table (a power of two, at most 4x the partition
  /// count once the directory has grown).
  [[nodiscard]] size_t capacity() const {
    common::ReaderLock lk(mu_);
    return capacity_locked();
  }

  /// Longest probe sequence (slots read) a find() of a present key takes.
  [[nodiscard]] size_t max_probe() const {
    common::ReaderLock lk(mu_);
    const Table* t = tables_.back().get();
    size_t longest = 0;
    for (size_t i = 0; i <= t->mask; ++i) {
      const Partition* p = t->slots[i].load(std::memory_order_relaxed);
      if (p == nullptr) continue;
      const size_t len = ((i - home_slot(p->hkey, t->mask)) & t->mask) + 1;
      longest = len > longest ? len : longest;
    }
    return longest;
  }

  /// Drop every partition and shrink back to the initial table (recovery
  /// rebuilds from scratch). Callers must have exclusive access: no
  /// reader may be probing the tables freed here.
  void clear() {
    common::WriterLock lk(mu_);
    release_all();
    publish_table(kInitialCapacity);
  }

 private:
  struct Table {
    explicit Table(size_t capacity) : mask(capacity - 1), slots(capacity) {}
    [[nodiscard]] size_t bytes() const {
      return sizeof(Table) + slots.size() * sizeof(slots[0]);
    }
    const size_t mask;
    std::vector<std::atomic<Partition*>> slots;  // nullptr = empty
  };
  /// One ordered-map node: libstdc++'s red-black links (color word plus
  /// parent, left and right pointers) ahead of the key and owner.
  static constexpr size_t kMapNodeBytes =
      4 * sizeof(void*) + sizeof(uint64_t) + sizeof(std::unique_ptr<Partition>);

  [[nodiscard]] static size_t home_slot(uint64_t hkey, size_t mask) {
    // murmur3 finalizer: the packed prefix's entropy sits in the *top*
    // bytes, so a plain multiply-shift would discard it entirely.
    uint64_t x = hkey;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<size_t>(x) & mask;
  }

  /// Store `p` in the first empty slot of its probe sequence. The release
  /// store publishes the fully constructed partition to find().
  static void place(Table* t, Partition* p) {
    size_t i = home_slot(p->hkey, t->mask);
    while (t->slots[i].load(std::memory_order_relaxed) != nullptr)
      i = (i + 1) & t->mask;
    t->slots[i].store(p, std::memory_order_release);
  }

  [[nodiscard]] size_t capacity_locked() const REQUIRES_SHARED(mu_) {
    return tables_.back()->mask + 1;
  }

  /// Build a table of `capacity` slots holding every partition, then make
  /// it the live one. The superseded table stays allocated: a lock-free
  /// reader may still be probing it.
  void publish_table(size_t capacity) REQUIRES(mu_) {
    auto t = std::make_unique<Table>(capacity);
    for (const auto& [hk, p] : sorted_) place(t.get(), p.get());
    account(static_cast<int64_t>(t->bytes()));
    table_.store(t.get(), std::memory_order_release);
    tables_.push_back(std::move(t));
  }

  /// Free every partition and table, returning their bytes.
  void release_all() REQUIRES(mu_) {
    account(-static_cast<int64_t>(sorted_.size() *
                                  (sizeof(Partition) + kMapNodeBytes)));
    sorted_.clear();
    for (const auto& t : tables_) account(-static_cast<int64_t>(t->bytes()));
    tables_.clear();
    table_.store(nullptr, std::memory_order_relaxed);
  }

  void account(int64_t delta) {
    if (dram_bytes_ != nullptr)
      dram_bytes_->fetch_add(static_cast<uint64_t>(delta),
                             std::memory_order_relaxed);
  }

  HartLeafTraits traits_;
  std::atomic<uint64_t>* dram_bytes_;
  common::ebr::Domain* ebr_;
  const bool fp_guard_;
  /// The live table (tables_.back()), read by find() without the mutex.
  std::atomic<Table*> table_{nullptr};
  /// Serializes creation and growth; shared by ordered enumeration.
  mutable common::SharedMutex mu_;
  /// Every table ever published, oldest first; the last one is live.
  std::vector<std::unique_ptr<Table>> tables_ GUARDED_BY(mu_);
  std::map<uint64_t, std::unique_ptr<Partition>> sorted_ GUARDED_BY(mu_);
};

}  // namespace hart::core
