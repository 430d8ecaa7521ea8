// HART's DRAM hash table (paper Fig. 1): maps the first kh bytes of a key
// (the "hash key") to the ART indexing the remaining bytes. One
// reader/writer lock per ART gives HART its concurrency (Section III.A.3):
// writes on different ARTs proceed in parallel, reads share.
//
// Implementation notes:
//  * The bucket array is fixed at construction; chains grow by lock-free
//    CAS pushes. Partitions are never deallocated (when an ART becomes
//    empty, Alg. 5 frees the ART's nodes but the partition shell is
//    reused), so readers never race with reclamation.
//  * Hash keys are packed big-endian into a uint64 (kh <= 8), so numeric
//    order == lexicographic prefix order; a sorted directory of prefixes is
//    maintained on the side (partition creation is rare) to support
//    HART's ordered range scan.
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
    std::atomic<Partition*> next{nullptr};
  };

  /// `fp_guard` is forwarded to every partition ART (fingerprint-tagged
  /// leaf pointers; see art::Tree).
  HashDir(size_t bucket_count_pow2, HartLeafTraits traits,
          std::atomic<uint64_t>* dram_bytes,
          common::ebr::Domain* ebr = nullptr, bool fp_guard = false)
      : traits_(traits),
        dram_bytes_(dram_bytes),
        ebr_(ebr),
        fp_guard_(fp_guard),
        mask_(bucket_count_pow2 - 1),
        buckets_(bucket_count_pow2) {
    if (dram_bytes_ != nullptr)
      dram_bytes_->fetch_add(bucket_count_pow2 * sizeof(buckets_[0]),
                             std::memory_order_relaxed);
  }

  ~HashDir() {
    if (dram_bytes_ != nullptr)
      dram_bytes_->fetch_sub(buckets_.size() * sizeof(buckets_[0]),
                             std::memory_order_relaxed);
    clear();
  }
  HashDir(const HashDir&) = delete;
  HashDir& operator=(const HashDir&) = delete;

  /// HashFind: nullptr when no partition exists for this hash key.
  [[nodiscard]] Partition* find(uint64_t hkey) const {
    Partition* p =
        buckets_[bucket_of(hkey)].load(std::memory_order_acquire);
    while (p != nullptr && p->hkey != hkey)
      p = p->next.load(std::memory_order_acquire);
    return p;
  }

  /// HashInsert (find-or-create, lock-free CAS push on the chain).
  Partition* find_or_create(uint64_t hkey) {
    auto& head = buckets_[bucket_of(hkey)];
    Partition* p = head.load(std::memory_order_acquire);
    for (Partition* q = p; q != nullptr;
         q = q->next.load(std::memory_order_acquire))
      if (q->hkey == hkey) return q;

    auto owned =
        std::make_unique<Partition>(hkey, traits_, dram_bytes_, ebr_,
                                    fp_guard_);
    Partition* fresh = owned.get();
    for (;;) {
      fresh->next.store(p, std::memory_order_relaxed);
      if (head.compare_exchange_weak(p, fresh, std::memory_order_release,
                                     std::memory_order_acquire)) {
        if (dram_bytes_ != nullptr)
          dram_bytes_->fetch_add(sizeof(Partition),
                                 std::memory_order_relaxed);
        // HARTscope: one new hash-dir partition (ART) came into existence.
        static obs::Counter& created =
            obs::Registry::instance().counter("hart_partition_create_total");
        created.inc();
        owned.release();
        {
          common::WriterLock lk(sorted_mu_);
          sorted_.emplace(hkey, fresh);
        }
        return fresh;
      }
      // Lost the race: someone else pushed; re-scan for our key.
      for (Partition* q = p; q != nullptr;
           q = q->next.load(std::memory_order_acquire))
        if (q->hkey == hkey) return q;
    }
  }

  /// Ordered enumeration of partitions with hkey >= lo (for range scans).
  /// `f(Partition*)` returns false to stop.
  template <class F>
  void for_each_partition_from(uint64_t lo, F&& f) const {
    common::ReaderLock lk(sorted_mu_);
    for (auto it = sorted_.lower_bound(lo); it != sorted_.end(); ++it)
      if (!f(it->second)) return;
  }

  template <class F>
  void for_each_partition(F&& f) const {
    for_each_partition_from(0, std::forward<F>(f));
  }

  [[nodiscard]] size_t partition_count() const {
    common::ReaderLock lk(sorted_mu_);
    return sorted_.size();
  }

  /// Drop every partition (recovery rebuilds from scratch). Not
  /// thread-safe; callers must have exclusive access.
  void clear() {
    for (auto& head : buckets_) {
      Partition* p = head.exchange(nullptr, std::memory_order_acq_rel);
      while (p != nullptr) {
        Partition* next = p->next.load(std::memory_order_relaxed);
        if (dram_bytes_ != nullptr)
          dram_bytes_->fetch_sub(sizeof(Partition),
                                 std::memory_order_relaxed);
        delete p;
        p = next;
      }
    }
    common::WriterLock lk(sorted_mu_);
    sorted_.clear();
  }

 private:
  [[nodiscard]] size_t bucket_of(uint64_t hkey) const {
    // murmur3 finalizer: the packed prefix's entropy sits in the *top*
    // bytes, so a plain multiply-shift would discard it entirely.
    uint64_t x = hkey;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<size_t>(x) & mask_;
  }

  HartLeafTraits traits_;
  std::atomic<uint64_t>* dram_bytes_;
  common::ebr::Domain* ebr_;
  const bool fp_guard_;
  const size_t mask_;
  std::vector<std::atomic<Partition*>> buckets_;
  mutable common::SharedMutex sorted_mu_;
  std::map<uint64_t, Partition*> sorted_ GUARDED_BY(sorted_mu_);
};

}  // namespace hart::core
