// Multithreaded stress tests for EPallocator: concurrent two-phase
// allocation never double-issues a slot, commits/frees/recycles from many
// threads keep the chunk lists and bitmaps consistent, and the update-log
// slot pool never hands the same slot to two threads. The allocator runs
// with four stripes, so threads with different home stripes allocate side
// by side and steal from each other's stripes once their own runs dry.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "epalloc/allocator.h"
#include "obs/counters.h"
#include "pmem/arena.h"

namespace hart::epalloc {
namespace {

struct FakeLeaf {
  uint64_t p_value;
  uint8_t val_class;
  uint8_t pad[31];
};

LeafValueRef probe(const pmem::Arena& a, uint64_t off) {
  const auto* l = a.ptr<FakeLeaf>(off);
  return {l->p_value,
          l->val_class == 0 ? ObjType::kValue8 : ObjType::kValue16};
}
void clear(pmem::Arena& a, uint64_t off) {
  a.ptr<FakeLeaf>(off)->p_value = 0;
  a.persist(a.ptr<FakeLeaf>(off), 8);
}

struct R {
  EPRoot ep;
};

constexpr AllocOptions kFourStripes{.stripes = 4, .batched_meta = false};

uint64_t reserve(Allocator& ep, ObjType t) {
  uint64_t off = 0;
  EXPECT_EQ(ep.reserve(t, &off), common::Status::kOk);
  return off;
}

TEST(EPAllocConcurrent, NoSlotIssuedTwice) {
  pmem::Arena::Options o;
  o.size = 128 << 20;
  pmem::Arena arena(o);
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf), &probe, &clear,
               kFourStripes);

  auto& steals =
      obs::Registry::instance().counter("epalloc_stripe_steals_total");
  const uint64_t steals0 = steals.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t off = reserve(ep, ObjType::kLeaf);
        ep.commit(ObjType::kLeaf, off);
        got[t].push_back(off);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> all;
  for (const auto& v : got)
    for (const uint64_t off : v)
      EXPECT_TRUE(all.insert(off).second) << "slot issued twice: " << off;
  EXPECT_EQ(ep.live_objects(ObjType::kLeaf),
            static_cast<uint64_t>(kThreads * kPerThread));
  // A new chunk's stripe follows its offset, not the thread that spawned
  // it, so threads fill chunks outside their home stripe: the steal path
  // ran, and it handed out no slot twice.
  EXPECT_GT(steals.value(), steals0);
}

TEST(EPAllocConcurrent, ChurnWithRecyclesStaysConsistent) {
  pmem::Arena::Options o;
  o.size = 128 << 20;
  pmem::Arena arena(o);
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf), &probe, &clear,
               kFourStripes);

  constexpr int kThreads = 8;
  std::atomic<int64_t> net{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(t + 1);
      std::vector<uint64_t> mine;
      for (int step = 0; step < 8000; ++step) {
        if (mine.empty() || rng.next_below(3) != 0) {
          const uint64_t off = reserve(ep, ObjType::kValue8);
          ep.commit(ObjType::kValue8, off);
          mine.push_back(off);
          net.fetch_add(1, std::memory_order_relaxed);
        } else {
          const size_t pick = rng.next_below(mine.size());
          const uint64_t off = mine[pick];
          mine[pick] = mine.back();
          mine.pop_back();
          ep.free_object(ObjType::kValue8, off);
          ep.recycle_chunk_of(ObjType::kValue8, off);
          net.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      for (const uint64_t off : mine) {
        ep.free_object(ObjType::kValue8, off);
        ep.recycle_chunk_of(ObjType::kValue8, off);
        net.fetch_sub(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(net.load(), 0);
  EXPECT_EQ(ep.live_objects(ObjType::kValue8), 0u);
  EXPECT_EQ(ep.chunk_count(ObjType::kValue8), 0u)
      << "all empty chunks must have been recycled";
  EXPECT_EQ(arena.stats().pm_live_bytes.load(), 0u);
}

TEST(EPAllocConcurrent, UlogSlotsAreExclusive) {
  pmem::Arena::Options o;
  o.size = 16 << 20;
  pmem::Arena arena(o);
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf), &probe, &clear,
               kFourStripes);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        UpdateLog* log = ep.acquire_ulog();
        // Exclusive ownership: nobody else writes this slot while held.
        log->pleaf = static_cast<uint64_t>(t + 1);
        log->poldv = static_cast<uint64_t>(i);
        if (log->pleaf != static_cast<uint64_t>(t + 1))
          failed.store(true, std::memory_order_relaxed);
        ep.reclaim_ulog(log);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  for (const auto& slot : arena.root<R>()->ep.ulogs)
    EXPECT_EQ(slot.pleaf, 0u) << "all slots reclaimed";
}

TEST(EPAllocConcurrent, MixedTypesAndStaleProbes) {
  // Leaf allocations racing with value frees exercise the nested
  // LEAF->VALUE lock ordering of the stale-value probe path.
  pmem::Arena::Options o;
  o.size = 128 << 20;
  pmem::Arena arena(o);
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf), &probe, &clear,
               kFourStripes);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(t * 31 + 7);
      for (int step = 0; step < 4000; ++step) {
        const uint64_t leaf = reserve(ep, ObjType::kLeaf);
        const ObjType vcls =
            rng.next_below(2) ? ObjType::kValue8 : ObjType::kValue16;
        const uint64_t val = reserve(ep, vcls);
        auto* l = arena.ptr<FakeLeaf>(leaf);
        l->p_value = val;
        l->val_class = vcls == ObjType::kValue8 ? 0 : 1;
        arena.persist(l, sizeof(*l));
        ep.commit(vcls, val);
        ep.commit(ObjType::kLeaf, leaf);
        if (rng.next_below(2)) {
          // Delete via the combined leaf+value release.
          ep.free_leaf_with_value(leaf, vcls, val);
          ep.recycle_chunk_of(vcls, val);
          ep.recycle_chunk_of(ObjType::kLeaf, leaf);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Whatever remains must be internally consistent: every live leaf's
  // value bit is set.
  ep.for_each_live(ObjType::kLeaf, [&](uint64_t off) {
    const auto* l = arena.ptr<FakeLeaf>(off);
    const ObjType vcls =
        l->val_class == 0 ? ObjType::kValue8 : ObjType::kValue16;
    EXPECT_TRUE(ep.bit_is_set(vcls, l->p_value)) << off;
  });
}

}  // namespace
}  // namespace hart::epalloc
