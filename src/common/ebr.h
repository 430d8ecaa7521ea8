// Epoch-based reclamation (EBR) for HART's lock-free read paths.
//
// Optimistic readers traverse DRAM ART nodes (and PM leaf/value slots)
// without holding any lock, so a writer that replaces a node or frees a
// slot must not reuse the memory while a reader may still dereference it.
// The classic three-epoch scheme (Fraser 2004; used by RECIPE-style OLC
// indexes) provides that guarantee cheaply:
//
//   * every reader pins the current epoch for the duration of one
//     operation (Guard: one uncontended store on its own cache line);
//   * a writer retires memory into the current epoch's limbo list instead
//     of freeing it;
//   * the epoch advances only when every pinned reader has observed the
//     current epoch, and a limbo list is freed once it is two epochs old —
//     by then no reader can still hold a pointer into it.
//
// One process-wide domain (Domain::instance()) serves every Hart: the
// grace period is then "all readers of any Hart", slightly coarser than a
// per-tree domain but with a single thread-slot registry and no domain
// lifetime headaches. Retired callbacks reference their owning structure,
// so owners must drain() before destruction (Hart's destructor and
// recover() do).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "obs/counters.h"

namespace hart::common::ebr {

inline constexpr size_t kMaxSlots = 512;
/// Amortization: try to advance the epoch every N retires.
inline constexpr size_t kAdvanceEvery = 64;

class Domain {
 public:
  /// Deferred destruction: `fn(ptr, ctx)` runs once no reader pinned at or
  /// before the current epoch can still hold `ptr`.
  using FreeFn = void (*)(void* ptr, void* ctx);

  Domain() = default;
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;
  ~Domain() { drain(); }

  /// The process-wide domain used by every Hart instance.
  static Domain& instance() {
    static Domain d;
    return d;
  }

  /// RAII epoch pin for one read-side operation. Nestable (re-entrant per
  /// thread); only the outermost guard pins/unpins.
  class Guard {
   public:
    explicit Guard(Domain& d) : d_(d), slot_(d.pin()) {}
    ~Guard() { d_.unpin(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Domain& d_;
    size_t slot_;
  };

  /// Defer `fn(ptr, ctx)` until the grace period has elapsed.
  ///
  /// Contract: the calling thread must hold a live Guard (be pinned on this
  /// domain). Pinning freezes the retiring thread's view of the epoch, so
  /// the retired pointer provably lands in a bucket that no reader admitted
  /// *after* the unlink can reach — without it, a retire could race an
  /// epoch advance and be bucketed one epoch early. Enforced by a debug
  /// assert here and statically by hartlint rule HL003 (unpinned-retire).
  ///
  /// Happens-before chain that makes reclamation safe (the ordering audit
  /// for this path — no extra std::atomic_thread_fence is needed):
  ///
  ///   1. retire() pushes under limbo_mu_; try_advance() swaps a limbo
  ///      bucket under the same mutex. The mutex release/acquire orders
  ///      every push before the swap that hands it to the free callbacks.
  ///   2. The epoch snapshot inside retire() is taken *under* limbo_mu_,
  ///      and epoch_.store(ep+1) in try_advance() is also under limbo_mu_:
  ///      a retire therefore lands in the bucket of a stable epoch — it can
  ///      never straddle an advance.
  ///   3. pin() publishes the slot's (epoch, pinned) word with a seq_cst
  ///      store and then re-reads epoch_ seq_cst; try_advance() scans the
  ///      slots with seq_cst loads before its seq_cst epoch_ store. The
  ///      single total order over these seq_cst accesses means either the
  ///      advance sees the pin (and refuses to advance past it) or the
  ///      reader sees the new epoch (and re-pins at it) — a pin can never
  ///      be overlooked.
  ///   4. A bucket is freed only once it is two epochs old (three-bucket
  ///      rotation), so by (3) every reader that could have observed the
  ///      retired pointer has unpinned; the unpin release-store is observed
  ///      by the advance's slot scan (seq_cst), giving the final
  ///      happens-before edge from last-use to fn(ptr, ctx).
  void retire(void* ptr, FreeFn fn, void* ctx) REQUIRES_EBR_PIN {
    assert(pinned_by_me() &&
           "ebr::Domain::retire requires a live Guard on this thread");
    deferred_free_counter().inc();
    {
      MutexLock lk(limbo_mu_);
      const uint64_t epoch_snapshot = epoch_.load(std::memory_order_relaxed);
      limbo_[epoch_snapshot % 3].push_back(Retired{ptr, fn, ctx});
      if (++retires_since_advance_ < kAdvanceEvery) return;
      retires_since_advance_ = 0;
    }
    try_advance();
  }

  /// True iff the calling thread currently holds a Guard on this domain.
  /// Pure query: unlike pin(), it never claims a slot for the thread.
  [[nodiscard]] bool pinned_by_me() const {
    const ThreadSlots& ts = thread_slots();
    for (const auto& e : ts.entries)
      if (e.domain == this && e.depth > 0) return true;
    return false;
  }

  /// Block until everything retired before this call has been freed: spin
  /// advancing the epoch (waiting out straggler guards) until all three
  /// limbo lists are empty and no free callback is still running on
  /// another thread. Callers must not hold a Guard.
  void drain() {
    assert(!pinned_by_me() &&
           "ebr::Domain::drain under a Guard would deadlock the advance");
    for (;;) {
      {
        MutexLock lk(limbo_mu_);
        if (limbo_[0].empty() && limbo_[1].empty() && limbo_[2].empty() &&
            in_flight_.load(std::memory_order_acquire) == 0)
          return;
      }
      if (!try_advance()) std::this_thread::yield();
    }
  }

  /// Pending (retired, not yet freed) item count — for tests/stats.
  [[nodiscard]] size_t pending() const {
    MutexLock lk(limbo_mu_);
    return limbo_[0].size() + limbo_[1].size() + limbo_[2].size();
  }

  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  // HARTscope counters (process-wide; stable references).
  static obs::Counter& deferred_free_counter() {
    static obs::Counter& c =
        obs::Registry::instance().counter("ebr_deferred_free_total");
    return c;
  }
  static obs::Counter& advance_counter() {
    static obs::Counter& c =
        obs::Registry::instance().counter("ebr_epoch_advance_total");
    return c;
  }

 private:
  struct Retired {
    void* ptr;
    FreeFn fn;
    void* ctx;
  };
  /// One cache line per slot: bit 0 = pinned, bits 1.. = pinned epoch.
  struct alignas(64) Slot {
    std::atomic<uint64_t> ctl{0};
    std::atomic<bool> claimed{false};
  };

  /// Per-thread slot registration. A thread claims one slot per domain the
  /// first time it pins and releases it at thread exit; guards nest via
  /// `depth`. The cache covers the handful of domains a thread touches
  /// (in practice one: Domain::instance()).
  struct ThreadSlots {
    struct Entry {
      Domain* domain = nullptr;
      size_t slot = 0;
      uint32_t depth = 0;
    };
    static constexpr size_t kEntries = 4;
    Entry entries[kEntries];
    ~ThreadSlots() {
      for (auto& e : entries)
        if (e.domain != nullptr)
          e.domain->slots_[e.slot].claimed.store(
              false, std::memory_order_release);
    }
  };

  static ThreadSlots& thread_slots() {
    static thread_local ThreadSlots ts;
    return ts;
  }

  ThreadSlots::Entry& thread_entry() {
    ThreadSlots& ts = thread_slots();
    ThreadSlots::Entry* open = nullptr;
    for (auto& e : ts.entries) {
      if (e.domain == this) return e;
      if (open == nullptr && (e.domain == nullptr || e.depth == 0))
        open = &e;
    }
    // All entries pinned on other domains cannot happen with nesting
    // bounded by kEntries domains; evict an unpinned entry, releasing its
    // claimed slot back to its domain.
    if (open->domain != nullptr)
      open->domain->slots_[open->slot].claimed.store(
          false, std::memory_order_release);
    open->domain = this;
    open->slot = claim_slot();
    open->depth = 0;
    return *open;
  }

  size_t claim_slot() {
    for (;;) {
      for (size_t i = 0; i < kMaxSlots; ++i) {
        bool expect = false;
        if (!slots_[i].claimed.load(std::memory_order_relaxed) &&
            slots_[i].claimed.compare_exchange_strong(
                expect, true, std::memory_order_acq_rel))
          return i;
      }
      std::this_thread::yield();  // > kMaxSlots live threads: wait one out
    }
  }

  size_t pin() {
    ThreadSlots::Entry& e = thread_entry();
    if (e.depth++ > 0) return e.slot;
    Slot& s = slots_[e.slot];
    for (;;) {
      const uint64_t ep = epoch_.load(std::memory_order_acquire);
      // seq_cst store/load pair: the store must be visible to a concurrent
      // try_advance() scan before we re-read the epoch, else an advance
      // could overlook this pin.
      s.ctl.store((ep << 1) | 1, std::memory_order_seq_cst);
      if (epoch_.load(std::memory_order_seq_cst) == ep) return e.slot;
    }
  }

  void unpin(size_t slot) {
    ThreadSlots::Entry& e = thread_entry();
    if (--e.depth > 0) return;
    slots_[slot].ctl.store(0, std::memory_order_release);
  }

  /// Advance the epoch if every pinned reader is at the current one, then
  /// free the limbo list that is now two epochs old. Returns true if it
  /// advanced.
  bool try_advance() {
    std::vector<Retired> to_free;
    {
      MutexLock lk(limbo_mu_);
      const uint64_t ep = epoch_.load(std::memory_order_relaxed);
      for (const Slot& s : slots_) {
        const uint64_t ctl = s.ctl.load(std::memory_order_seq_cst);
        if ((ctl & 1) != 0 && (ctl >> 1) != ep) return false;
      }
      epoch_.store(ep + 1, std::memory_order_seq_cst);
      advance_counter().inc();
      // Bucket (ep+1) % 3 held items retired two epochs ago; it is also
      // where retires at the new epoch land, so empty it now. in_flight_
      // keeps drain() honest while the callbacks run outside the lock.
      to_free.swap(limbo_[(ep + 1) % 3]);
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
    }
    // A callback may throw: the crash tests' simulated power failure
    // (pmem::CrashPoint) unwinds out of a free that persists. The entries
    // it did not reach go back to limbo, so a later drain() still frees
    // them, and in_flight_ is released, or every later drain() would spin.
    size_t next = 0;
    try {
      for (; next < to_free.size(); ++next)
        to_free[next].fn(to_free[next].ptr, to_free[next].ctx);
    } catch (...) {
      {
        MutexLock lk(limbo_mu_);
        auto& bucket = limbo_[epoch_.load(std::memory_order_relaxed) % 3];
        bucket.insert(bucket.end(), to_free.begin() + next + 1,
                      to_free.end());
      }
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  std::atomic<uint64_t> epoch_{2};
  Slot slots_[kMaxSlots];
  // limbo_mu_ orders retires against bucket swaps (see retire() doc chain,
  // steps 1-2); the epoch word itself is only ever advanced under it.
  mutable Mutex limbo_mu_;
  std::vector<Retired> limbo_[3] GUARDED_BY(limbo_mu_);
  size_t retires_since_advance_ GUARDED_BY(limbo_mu_) = 0;
  std::atomic<size_t> in_flight_{0};
};

using Guard = Domain::Guard;

}  // namespace hart::common::ebr
