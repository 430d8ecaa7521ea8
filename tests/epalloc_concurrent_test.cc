// Multithreaded stress tests for EPallocator: concurrent two-phase
// allocation never double-issues a slot, and commits/frees/recycles from
// many threads keep the leaf chunk list, the predecessor links, the dense
// chunk tables and the bitmaps consistent. The allocator runs with four
// stripes, so threads with different home stripes allocate side by side
// and steal from each other's stripes once their own runs dry.
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

// A stand-in for HART's leaf: the value it names, and that value's class.
struct FakeLeaf {
  uint64_t p_value;
  uint8_t val_class;
  uint8_t pad[31];
};

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
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf),
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
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf),
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

// Four threads churn all five object types at once, growing and then
// draining their working sets so chunks empty and get recycled (leaf
// chunks) or returned to the arena (value chunks) while the other threads
// open new chunks of the same types. Frees go through the eager path
// (recycle only when the free reports an empty chunk) and the retired path
// (reuse and recycle deferred to release_retired). Afterwards the leaf
// list must be intact and agree with the dense tables, the arena must hold
// exactly the chunks the tables hold, and the live counts must match what
// the threads hold.
TEST(EPAllocConcurrent, MixedTypeChurnRecyclesKeepListsIntact) {
  pmem::Arena::Options o;
  o.size = 64 << 20;
  pmem::Arena arena(o);
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf),
               kFourStripes);
  auto& recycles =
      obs::Registry::instance().counter("ep_chunk_recycle_total");
  const uint64_t recycles0 = recycles.value();

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::vector<std::vector<uint64_t>> held(kThreads * kNumObjTypes);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(t * 977 + 5);
      auto mine = [&](int type) -> std::vector<uint64_t>& {
        return held[t * kNumObjTypes + type];
      };
      auto free_one = [&](ObjType type, uint64_t off) {
        if (rng.next_below(4) == 0) {
          ep.free_object_retired(type, off);
          ep.release_retired(type, off);
        } else if (ep.free_object(type, off)) {
          ep.recycle_chunk_of(type, off);
        }
      };
      for (int round = 0; round < kRounds; ++round) {
        const int target = 100 + static_cast<int>(rng.next_below(300));
        for (int i = 0; i < target * kNumObjTypes; ++i) {
          const int type = static_cast<int>(rng.next_below(kNumObjTypes));
          const auto ot = static_cast<ObjType>(type);
          const uint64_t off = reserve(ep, ot);
          ep.commit(ot, off);
          mine(type).push_back(off);
        }
        // Drain all but a few objects, in random order.
        for (int type = 0; type < kNumObjTypes; ++type) {
          auto& v = mine(type);
          const size_t keep = round + 1 == kRounds ? 7 : 0;
          while (v.size() > keep) {
            const size_t pick = rng.next_below(v.size());
            const uint64_t off = v[pick];
            v[pick] = v.back();
            v.pop_back();
            free_one(static_cast<ObjType>(type), off);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(recycles.value(), recycles0)
      << "the churn must recycle leaf chunks";

  uint64_t chunk_bytes = 0;
  for (int type = 0; type < kNumObjTypes; ++type) {
    const auto ot = static_cast<ObjType>(type);
    uint64_t want = 0;
    for (int t = 0; t < kThreads; ++t) {
      for (const uint64_t off : held[t * kNumObjTypes + type])
        EXPECT_TRUE(ep.bit_is_set(ot, off)) << off;
      want += held[t * kNumObjTypes + type].size();
    }
    EXPECT_EQ(ep.live_objects(ot), want) << "type " << type;
    chunk_bytes += ep.chunk_count(ot) * ep.geom(ot).chunk_bytes;
  }
  // The leaf list holds each chunk once, and exactly the chunks the table
  // holds; leaf headers mirror the shadows.
  const std::vector<uint64_t> list = ep.chunk_offsets();
  EXPECT_EQ(std::set<uint64_t>(list.begin(), list.end()).size(),
            list.size());
  EXPECT_EQ(list.size(), ep.chunk_count(ObjType::kLeaf));
  uint64_t listed_live = 0;
  ep.for_each_live([&](uint64_t) { ++listed_live; });
  EXPECT_EQ(listed_live, ep.live_objects(ObjType::kLeaf));
  EXPECT_EQ(arena.stats().pm_live_bytes.load(), chunk_bytes) << "PM leak";
}

TEST(EPAllocConcurrent, DeletesFreeLeafThenValueAcrossStripes) {
  // HART's delete order from many threads: the leaf's persistent bit
  // clears first, then its value's DRAM-only slot, each free recycling the
  // chunk it empties, while other threads commit leaf + value pairs into
  // the same chunks.
  pmem::Arena::Options o;
  o.size = 128 << 20;
  pmem::Arena arena(o);
  Allocator ep(arena, &arena.root<R>()->ep, sizeof(FakeLeaf),
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
          if (ep.free_object(ObjType::kLeaf, leaf))
            ep.recycle_chunk_of(ObjType::kLeaf, leaf);
          if (ep.free_object(vcls, val)) ep.recycle_chunk_of(vcls, val);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Whatever remains is exactly the live leaves and the values they name.
  uint64_t leaves = 0;
  ep.for_each_live([&](uint64_t off) {
    ++leaves;
    const auto* l = arena.ptr<FakeLeaf>(off);
    const ObjType vcls =
        l->val_class == 0 ? ObjType::kValue8 : ObjType::kValue16;
    EXPECT_TRUE(ep.bit_is_set(vcls, l->p_value)) << off;
  });
  EXPECT_EQ(leaves, ep.live_objects(ObjType::kLeaf));
  EXPECT_EQ(ep.live_objects(ObjType::kValue8) +
                ep.live_objects(ObjType::kValue16),
            leaves);
}

}  // namespace
}  // namespace hart::epalloc
