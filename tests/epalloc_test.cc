// Unit tests for EPallocator: chunk header encoding, two-phase allocation,
// chunk growth, leaf-chunk recycling with the recycle log, the split
// between persistent leaf bits and DRAM-only value occupancy (value chunks
// are on no persistent list), and structural recovery. The allocator runs with one stripe and eager header persists —
// the paper's single-instance EPallocator — so chunk fill order and the
// recycle persist sequence are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "epalloc/allocator.h"
#include "pmem/arena.h"

namespace hart::epalloc {
namespace {

// A stand-in for HART's 32-byte leaf.
constexpr uint32_t kLeafSize = 32;

struct Root {
  uint64_t magic;
  EPRoot ep;
};

constexpr AllocOptions kPaperAlloc{.stripes = 1, .batched_meta = false};

/// Reserve one object; every arena here is large enough to succeed.
uint64_t reserve(Allocator& ep, ObjType t) {
  uint64_t off = 0;
  EXPECT_EQ(ep.reserve(t, &off), common::Status::kOk);
  return off;
}

class EPAllocTest : public ::testing::Test {
 protected:
  EPAllocTest() {
    pmem::Arena::Options o;
    o.size = 32 << 20;
    o.shadow = true;
    arena_ = std::make_unique<pmem::Arena>(o);
    make_alloc();
  }
  void make_alloc() {
    ep_ = std::make_unique<Allocator>(*arena_, &arena_->root<Root>()->ep,
                                      kLeafSize, kPaperAlloc);
  }
  std::unique_ptr<pmem::Arena> arena_;
  std::unique_ptr<Allocator> ep_;
};

TEST(ChunkHdr, RoundTripsFields) {
  const uint64_t w = ChunkHdr::make(0x00FF00FF00FFULL, 13, kIndAvailable);
  EXPECT_EQ(ChunkHdr::bitmap(w), 0x00FF00FF00FFULL);
  EXPECT_EQ(ChunkHdr::next_free(w), 13u);
  EXPECT_EQ(ChunkHdr::indicator(w), kIndAvailable);
}

TEST(ChunkHdr, WithBitSetsFullIndicatorAtCapacity) {
  uint64_t w = ChunkHdr::make(0, 0, kIndAvailable);
  for (uint32_t i = 0; i < kObjectsPerChunk; ++i) {
    EXPECT_FALSE(ChunkHdr::full(w));
    EXPECT_EQ(ChunkHdr::next_free(w), i);
    w = ChunkHdr::with_bit(w, i, true);
  }
  EXPECT_TRUE(ChunkHdr::full(w));
  EXPECT_EQ(ChunkHdr::bitmap(w), kBitmapMask);
  w = ChunkHdr::with_bit(w, 20, false);
  EXPECT_FALSE(ChunkHdr::full(w));
  EXPECT_EQ(ChunkHdr::next_free(w), 20u);
}

TEST(TypeGeometry, StridesArePowerOfTwoAndContainChunk) {
  for (uint32_t sz : {8u, 16u, 32u, 40u, 48u, 64u}) {
    const auto g = TypeGeometry::for_obj_size(sz);
    // The first line holds only the header and PNext.
    EXPECT_EQ(g.chunk_bytes, 64 + uint64_t{sz} * 56);
    EXPECT_EQ(g.object_off(0, 0), 64u);
    EXPECT_GE(g.stride, g.chunk_bytes);
    EXPECT_EQ(g.stride & (g.stride - 1), 0u);
  }
}

TEST(TypeGeometry, ChunkOfAndIndexOfInvertObjectOff) {
  const auto g = TypeGeometry::for_obj_size(kLeafSize);
  const uint64_t chunk = 13 * g.stride;
  for (uint32_t i = 0; i < kObjectsPerChunk; ++i) {
    const uint64_t obj = g.object_off(chunk, i);
    EXPECT_EQ(g.chunk_of(obj), chunk);
    EXPECT_EQ(g.index_of(obj), i);
  }
}

TEST_F(EPAllocTest, EveryObjectSlotSitsInOneCacheLine) {
  // Objects start on a line boundary and every size divides 64, so one
  // persist of an object flushes one line and one read touches one.
  for (int ti = 0; ti < kNumObjTypes; ++ti) {
    const auto t = static_cast<ObjType>(ti);
    const uint32_t sz = ep_->geom(t).obj_size;
    std::set<uint64_t> slots;
    for (uint32_t i = 0; i < kObjectsPerChunk; ++i) {
      const uint64_t o = reserve(*ep_, t);
      slots.insert(o);
      EXPECT_EQ(o / pmem::kCacheLine, (o + sz - 1) / pmem::kCacheLine)
          << "type " << ti << " slot " << i << " at " << o;
    }
    EXPECT_EQ(slots.size(), kObjectsPerChunk);
    EXPECT_EQ(ep_->chunk_count(t), 1u) << "type " << ti;
  }
}

TEST_F(EPAllocTest, FirstMallocCreatesOneChunk) {
  EXPECT_EQ(ep_->chunk_count(ObjType::kLeaf), 0u);
  const uint64_t o = reserve(*ep_, ObjType::kLeaf);
  EXPECT_NE(o, 0u);
  EXPECT_EQ(ep_->chunk_count(ObjType::kLeaf), 1u);
  // Reserved, not yet committed:
  EXPECT_FALSE(ep_->bit_is_set(ObjType::kLeaf, o));
  ep_->commit(ObjType::kLeaf, o);
  EXPECT_TRUE(ep_->bit_is_set(ObjType::kLeaf, o));
  EXPECT_TRUE(ep_->bit_probe(ObjType::kLeaf, o));
}

TEST_F(EPAllocTest, FiftySevenThMallocOpensSecondChunk) {
  std::set<uint64_t> offs;
  for (uint32_t i = 0; i < kObjectsPerChunk; ++i) {
    const uint64_t o = reserve(*ep_, ObjType::kValue8);
    ep_->commit(ObjType::kValue8, o);
    EXPECT_TRUE(offs.insert(o).second);
  }
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue8), 1u);
  const uint64_t o = reserve(*ep_, ObjType::kValue8);
  EXPECT_TRUE(offs.insert(o).second);
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue8), 2u);
}

TEST_F(EPAllocTest, ReservationsPreventDoubleHandout) {
  const uint64_t a = reserve(*ep_, ObjType::kLeaf);
  const uint64_t b = reserve(*ep_, ObjType::kLeaf);
  EXPECT_NE(a, b) << "uncommitted reservation must not be re-issued";
  ep_->release(ObjType::kLeaf, a);
  const uint64_t c = reserve(*ep_, ObjType::kLeaf);
  EXPECT_EQ(c, a) << "released slot is the first free again";
}

TEST_F(EPAllocTest, FreeObjectMakesSlotAvailable) {
  const uint64_t o = reserve(*ep_, ObjType::kValue16);
  ep_->commit(ObjType::kValue16, o);
  // Occupy a second slot so the chunk is not recycled by emptiness checks.
  const uint64_t keep = reserve(*ep_, ObjType::kValue16);
  ep_->commit(ObjType::kValue16, keep);
  ep_->free_object(ObjType::kValue16, o);
  EXPECT_FALSE(ep_->bit_is_set(ObjType::kValue16, o));
  EXPECT_EQ(reserve(*ep_, ObjType::kValue16), o);
}

TEST_F(EPAllocTest, RecycleFreesEmptyChunkAndKeepsListConsistent) {
  // Fill two leaf chunks.
  std::vector<uint64_t> offs;
  for (uint32_t i = 0; i < kObjectsPerChunk * 2; ++i) {
    const uint64_t o = reserve(*ep_, ObjType::kLeaf);
    ep_->commit(ObjType::kLeaf, o);
    offs.push_back(o);
  }
  EXPECT_EQ(ep_->chunk_count(ObjType::kLeaf), 2u);
  const auto& g = ep_->geom(ObjType::kLeaf);
  // Empty the *first allocated* chunk (it is the list tail after the head
  // push of chunk 2).
  const uint64_t tail_chunk = g.chunk_of(offs.front());
  const uint64_t head_chunk = g.chunk_of(offs.back());
  for (const uint64_t o : offs) {
    if (g.chunk_of(o) == tail_chunk) {
      ep_->free_object(ObjType::kLeaf, o);
    }
  }
  ep_->recycle_chunk_of(ObjType::kLeaf, offs.front());
  EXPECT_EQ(ep_->chunk_count(ObjType::kLeaf), 1u);
  EXPECT_FALSE(arena_->is_allocated(tail_chunk, g.chunk_bytes));
  EXPECT_EQ(ep_->chunk_offsets(), std::vector<uint64_t>{head_chunk});
  // Remaining objects still intact.
  for (const uint64_t o : offs) {
    if (g.chunk_of(o) != tail_chunk) {
      EXPECT_TRUE(ep_->bit_is_set(ObjType::kLeaf, o));
    }
  }
}

TEST_F(EPAllocTest, RecycleHeadChunkUpdatesHead) {
  // Two leaf chunks; head is the most recently created one.
  std::vector<uint64_t> offs;
  for (uint32_t i = 0; i < kObjectsPerChunk + 1; ++i) {
    const uint64_t o = reserve(*ep_, ObjType::kLeaf);
    ep_->commit(ObjType::kLeaf, o);
    offs.push_back(o);
  }
  const auto& g = ep_->geom(ObjType::kLeaf);
  const uint64_t head_chunk = arena_->root<Root>()->ep.leaf_head;
  const uint64_t head_obj = offs.back();
  ASSERT_EQ(g.chunk_of(head_obj), head_chunk);
  ep_->free_object(ObjType::kLeaf, head_obj);
  ep_->recycle_chunk_of(ObjType::kLeaf, head_obj);
  EXPECT_EQ(ep_->chunk_count(ObjType::kLeaf), 1u);
  EXPECT_EQ(arena_->root<Root>()->ep.leaf_head, g.chunk_of(offs.front()));
}

TEST_F(EPAllocTest, RecycleRefusesNonEmptyChunk) {
  const uint64_t o = reserve(*ep_, ObjType::kValue8);
  ep_->commit(ObjType::kValue8, o);
  ep_->recycle_chunk_of(ObjType::kValue8, o);
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue8), 1u);
  EXPECT_TRUE(ep_->bit_is_set(ObjType::kValue8, o));
}

TEST_F(EPAllocTest, ValueCommitsAndFreesPersistNothing) {
  // A value chunk's whole life persists nothing: it is created as a bare
  // arena span on no list, its values have no persistent bit (commit and
  // free change only the DRAM shadow), and once empty it goes back to the
  // arena without an unlink or a recycle log.
  const auto& g = ep_->geom(ObjType::kValue8);
  const uint64_t head = arena_->root<Root>()->ep.leaf_head;
  const uint64_t before = arena_->persist_count();
  std::vector<uint64_t> vals;
  for (uint32_t i = 0; i < kObjectsPerChunk; ++i) {
    vals.push_back(reserve(*ep_, ObjType::kValue8));
    ep_->commit(ObjType::kValue8, vals.back());
  }
  const uint64_t c_off = g.chunk_of(vals.front());
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue8), 1u);
  EXPECT_TRUE(arena_->is_allocated(c_off, g.chunk_bytes));
  EXPECT_EQ(ep_->live_objects(ObjType::kValue8), kObjectsPerChunk);
  EXPECT_FALSE(ep_->free_object(ObjType::kValue8, vals[0]));
  EXPECT_FALSE(ep_->bit_is_set(ObjType::kValue8, vals[0]));
  EXPECT_EQ(reserve(*ep_, ObjType::kValue8), vals[0]) << "reusable at once";
  ep_->commit(ObjType::kValue8, vals[0]);
  bool emptied = false;
  for (const uint64_t v : vals) emptied = ep_->free_object(ObjType::kValue8, v);
  EXPECT_TRUE(emptied) << "the last free must report an empty chunk";
  ep_->recycle_chunk_of(ObjType::kValue8, vals.front());
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue8), 0u);
  EXPECT_FALSE(arena_->is_allocated(c_off, g.chunk_bytes));
  EXPECT_EQ(arena_->persist_count(), before);
  EXPECT_EQ(arena_->root<Root>()->ep.leaf_head, head) << "no chunk list moved";
  EXPECT_EQ(arena_->root<Root>()->ep.rlog.pcurrent, 0u);
}

TEST_F(EPAllocTest, LeafBitsPersistOnCommitAndFree) {
  const uint64_t l = reserve(*ep_, ObjType::kLeaf);
  const auto* c =
      arena_->ptr<MemChunk>(ep_->geom(ObjType::kLeaf).chunk_of(l));
  uint64_t before = arena_->stats().persist_calls.load();
  ep_->commit(ObjType::kLeaf, l);
  EXPECT_EQ(arena_->stats().persist_calls.load(), before + 1);
  EXPECT_NE(ChunkHdr::bitmap(c->header), 0u);
  before = arena_->stats().persist_calls.load();
  ep_->free_object(ObjType::kLeaf, l);
  EXPECT_EQ(arena_->stats().persist_calls.load(), before + 1);
  EXPECT_EQ(ChunkHdr::bitmap(c->header), 0u);
}

TEST(EPAllocBatched, LeafFreePersistsEagerlyAndCoversDeferredCommits) {
  // Batched metadata defers a leaf commit's header persist to the fence,
  // but a leaf free persists at once: the slot and the value its leaf
  // named are reusable as soon as the free returns. The same persist makes
  // the chunk's deferred commits durable, so the fence skips the chunk.
  pmem::Arena::Options o;
  o.size = 8 << 20;
  o.shadow = true;
  pmem::Arena arena(o);
  struct R {
    EPRoot ep;
  };
  Allocator ep(arena, &arena.root<R>()->ep, kLeafSize,
               {.stripes = 1, .batched_meta = true});
  const uint64_t a = reserve(ep, ObjType::kLeaf);
  const uint64_t b = reserve(ep, ObjType::kLeaf);
  uint64_t before = arena.stats().persist_calls.load();
  ep.commit(ObjType::kLeaf, a);
  ep.commit(ObjType::kLeaf, b);
  EXPECT_EQ(arena.stats().persist_calls.load(), before) << "deferred";
  ep.free_object(ObjType::kLeaf, a);
  EXPECT_EQ(arena.stats().persist_calls.load(), before + 1) << "eager";
  before = arena.stats().persist_calls.load();
  ep.flush_metadata(1);
  EXPECT_EQ(arena.stats().persist_calls.load(), before)
      << "the free's persist already covered b's commit";
  arena.crash();
  Allocator ep2(arena, &arena.root<R>()->ep, kLeafSize,
                {.stripes = 1, .batched_meta = true});
  ep2.recover_structure();
  EXPECT_FALSE(ep2.bit_is_set(ObjType::kLeaf, a));
  EXPECT_TRUE(ep2.bit_is_set(ObjType::kLeaf, b));
}

TEST_F(EPAllocTest, RecoveryRederivesValueOccupancyFromMarkLive) {
  std::vector<uint64_t> vals;
  for (uint32_t i = 0; i < kObjectsPerChunk + 5; ++i) {
    const uint64_t v = reserve(*ep_, ObjType::kValue16);
    ep_->commit(ObjType::kValue16, v);
    vals.push_back(v);
  }
  arena_->crash();
  make_alloc();
  ep_->recover_structure();
  // Value chunks are on no persistent list: they come back only as the
  // owner's leaf walk names their values.
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue16), 0u);
  EXPECT_EQ(ep_->live_objects(ObjType::kValue16), 0u);
  for (size_t i = 0; i < vals.size(); i += 2)
    ep_->mark_live(ObjType::kValue16, vals[i]);
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue16), 2u);
  EXPECT_EQ(ep_->live_objects(ObjType::kValue16), (vals.size() + 1) / 2);
  EXPECT_THROW(ep_->mark_live(ObjType::kValue16, vals[0]),
               std::runtime_error)
      << "a value named twice";
  EXPECT_THROW(ep_->mark_live(ObjType::kValue16, vals[0] + 4),
               std::runtime_error)
      << "not an object boundary";
  EXPECT_THROW(ep_->mark_live(ObjType::kValue16, 64), std::runtime_error)
      << "a chunk inside the arena header";
  EXPECT_THROW(ep_->mark_live(ObjType::kValue8, vals[1]),
               std::runtime_error)
      << "a chunk overlapping another class's chunk";
  // Filling both chunks hands out every unmarked slot, no marked one.
  std::set<uint64_t> again;
  const uint64_t free_slots =
      2 * kObjectsPerChunk - ep_->live_objects(ObjType::kValue16);
  for (uint64_t i = 0; i < free_slots; ++i)
    again.insert(reserve(*ep_, ObjType::kValue16));
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue16), 2u);
  for (size_t i = 0; i < vals.size(); ++i)
    EXPECT_EQ(again.count(vals[i]), i % 2 == 0 ? 0u : 1u) << i;
}

TEST_F(EPAllocTest, RecoveryFreesValueChunkNoLeafNames) {
  // Crash with two leaf chunks and two value chunks, one of whose values
  // are all dead (no live leaf names them). Recovery claims only the
  // chunks it can reach: the dead value chunk's span is free again.
  std::vector<uint64_t> vals;
  for (uint32_t i = 0; i < kObjectsPerChunk * 2; ++i) {
    ep_->commit(ObjType::kLeaf, reserve(*ep_, ObjType::kLeaf));
    vals.push_back(reserve(*ep_, ObjType::kValue32));
    ep_->commit(ObjType::kValue32, vals.back());
  }
  const TypeGeometry g = ep_->geom(ObjType::kValue32);  // ep_ is replaced
  const uint64_t live_chunk = g.chunk_of(vals.front());
  const uint64_t dead_chunk = g.chunk_of(vals.back());
  ASSERT_NE(live_chunk, dead_chunk);
  arena_->crash();
  make_alloc();
  ep_->recover_structure();
  for (const uint64_t v : vals)
    if (g.chunk_of(v) == live_chunk) ep_->mark_live(ObjType::kValue32, v);
  EXPECT_EQ(ep_->chunk_count(ObjType::kValue32), 1u);
  EXPECT_TRUE(arena_->is_allocated(live_chunk, g.chunk_bytes));
  EXPECT_FALSE(arena_->is_allocated(dead_chunk, g.chunk_bytes));
  EXPECT_EQ(arena_->stats().pm_live_bytes.load(),
            2 * ep_->geom(ObjType::kLeaf).chunk_bytes + g.chunk_bytes);
}

TEST_F(EPAllocTest, LiveObjectCountsTrackCommits) {
  std::vector<uint64_t> offs;
  for (int i = 0; i < 10; ++i) {
    const uint64_t o = reserve(*ep_, ObjType::kLeaf);
    ep_->commit(ObjType::kLeaf, o);
    offs.push_back(o);
  }
  EXPECT_EQ(ep_->live_objects(ObjType::kLeaf), 10u);
  ep_->free_object(ObjType::kLeaf, offs[3]);
  EXPECT_EQ(ep_->live_objects(ObjType::kLeaf), 9u);
}

TEST_F(EPAllocTest, ForEachLiveVisitsExactlySetObjects) {
  std::set<uint64_t> live;
  for (int i = 0; i < 130; ++i) {
    const uint64_t o = reserve(*ep_, ObjType::kLeaf);
    ep_->commit(ObjType::kLeaf, o);
    live.insert(o);
  }
  // Free every third object.
  int k = 0;
  for (auto it = live.begin(); it != live.end();) {
    if (++k % 3 == 0) {
      ep_->free_object(ObjType::kLeaf, *it);
      it = live.erase(it);
    } else {
      ++it;
    }
  }
  std::set<uint64_t> seen;
  ep_->for_each_live([&](uint64_t o) { seen.insert(o); });
  EXPECT_EQ(seen, live);
}

TEST_F(EPAllocTest, RecoverStructureRebuildsReachability) {
  std::vector<uint64_t> committed;
  for (int i = 0; i < 70; ++i) {
    const uint64_t o = reserve(*ep_, ObjType::kLeaf);
    ep_->commit(ObjType::kLeaf, o);
    committed.push_back(o);
  }
  // A reserved-but-uncommitted object, lost at the crash:
  const uint64_t reserved = reserve(*ep_, ObjType::kLeaf);
  (void)reserved;

  arena_->crash();
  make_alloc();
  ep_->recover_structure();

  EXPECT_EQ(ep_->live_objects(ObjType::kLeaf), committed.size());
  // The reserved slot must be allocatable again.
  std::set<uint64_t> again;
  for (size_t i = 0; i < 2; ++i) again.insert(reserve(*ep_, ObjType::kLeaf));
  EXPECT_TRUE(again.count(reserved) == 1);
}

TEST_F(EPAllocTest, RecoveryIsLeakFreeByConstruction) {
  // Allocate chunks of three types, then crash with some reservations in
  // flight; after recovery, physical usage equals exactly the reachable
  // chunks: the leaf list, and no value chunk, since no value here is
  // named by a leaf.
  for (int i = 0; i < 60; ++i) {
    ep_->commit(ObjType::kLeaf, reserve(*ep_, ObjType::kLeaf));
    ep_->commit(ObjType::kValue8, reserve(*ep_, ObjType::kValue8));
  }
  reserve(*ep_, ObjType::kValue16);  // reserved only
  arena_->crash();
  make_alloc();
  ep_->recover_structure();

  EXPECT_EQ(ep_->chunk_count(ObjType::kLeaf), 2u);
  EXPECT_EQ(arena_->stats().pm_live_bytes.load(),
            2 * ep_->geom(ObjType::kLeaf).chunk_bytes);
  for (ObjType t : {ObjType::kValue8, ObjType::kValue16, ObjType::kValue32,
                    ObjType::kValue64}) {
    EXPECT_EQ(ep_->chunk_count(t), 0u);
    EXPECT_EQ(ep_->live_objects(t), 0u);
  }
}

TEST_F(EPAllocTest, CrashDuringRecycleIsRepairedOnRecovery) {
  // Build two chunks, empty the tail chunk, then crash at each persist
  // point inside recycle and verify recovery leaves a consistent list.
  // Leaves, whose bits are persistent, so the survivors must come back.
  for (uint64_t crash_at = 1; crash_at <= 4; ++crash_at) {
    pmem::Arena::Options o;
    o.size = 32 << 20;
    o.shadow = true;
    pmem::Arena arena(o);
    struct R {
      EPRoot ep;
    };
    auto mk = [&] {
      return std::make_unique<Allocator>(arena, &arena.root<R>()->ep,
                                         kLeafSize, kPaperAlloc);
    };
    auto ep = mk();
    std::vector<uint64_t> offs;
    for (uint32_t i = 0; i < kObjectsPerChunk * 2; ++i) {
      const uint64_t obj = reserve(*ep, ObjType::kLeaf);
      ep->commit(ObjType::kLeaf, obj);
      offs.push_back(obj);
    }
    const auto& g = ep->geom(ObjType::kLeaf);
    const uint64_t victim_chunk = g.chunk_of(offs.front());
    uint64_t survivors = 0;
    for (const uint64_t obj : offs)
      if (g.chunk_of(obj) == victim_chunk)
        ep->free_object(ObjType::kLeaf, obj);
      else
        ++survivors;

    arena.arm_crash_after(crash_at);
    try {
      ep->recycle_chunk_of(ObjType::kLeaf, offs.front());
      arena.disarm_crash();
    } catch (const pmem::CrashPoint&) {
      arena.crash();
    }
    ep = mk();
    ep->recover_structure();
    EXPECT_EQ(ep->live_objects(ObjType::kLeaf), survivors)
        << "crash_at=" << crash_at;
    // List must be walkable and the recycle log empty.
    EXPECT_EQ(arena.root<R>()->ep.rlog.pcurrent, 0u);
    // Allocation still works afterwards.
    const uint64_t obj = reserve(*ep, ObjType::kLeaf);
    ep->commit(ObjType::kLeaf, obj);
    EXPECT_TRUE(ep->bit_is_set(ObjType::kLeaf, obj));
  }
}

// Recycles chunks at the head, in the middle and at the tail of a list, in
// a seeded random order, and checks the persistent list against a model
// after each one. The unlink finds the predecessor through the volatile
// links, so the recycles that follow a crash also check that recovery
// rebuilt those links. crash_at = 0 runs without a crash; otherwise every
// recycle crashes at its crash_at-th persist (if it has that many), the
// arena loses its unflushed lines, and recovery completes or rolls back
// the unlink from the recycle log before the model is compared. The
// chunks hold leaves, whose bits survive a crash.
TEST(EPAllocRecycle, AnyChunkUnlinksInOrderAcrossCrashes) {
  for (uint64_t crash_at = 0; crash_at <= 5; ++crash_at) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    pmem::Arena::Options o;
    o.size = 8 << 20;
    o.shadow = true;
    pmem::Arena arena(o);
    struct R {
      EPRoot ep;
    };
    auto mk = [&] {
      auto ep = std::make_unique<Allocator>(arena, &arena.root<R>()->ep,
                                            kLeafSize, kPaperAlloc);
      ep->recover_structure();
      return ep;
    };
    auto ep = mk();
    constexpr int kChunks = 9;
    const TypeGeometry g = ep->geom(ObjType::kLeaf);  // ep is replaced
    for (uint32_t i = 0; i < kObjectsPerChunk * kChunks; ++i)
      ep->commit(ObjType::kLeaf, reserve(*ep, ObjType::kLeaf));
    std::vector<uint64_t> model = ep->chunk_offsets();
    ASSERT_EQ(model.size(), static_cast<size_t>(kChunks));

    // Middle, head, tail first, then the rest in a seeded random order.
    std::vector<uint64_t> order = {model[kChunks / 2], model.front(),
                                   model.back()};
    std::vector<uint64_t> rest;
    for (const uint64_t c : model)
      if (std::find(order.begin(), order.end(), c) == order.end())
        rest.push_back(c);
    common::Rng rng(crash_at + 17);
    while (!rest.empty()) {
      const size_t pick = rng.next_below(rest.size());
      order.push_back(rest[pick]);
      rest[pick] = rest.back();
      rest.pop_back();
    }

    for (const uint64_t victim : order) {
      bool emptied = false;
      for (uint32_t i = 0; i < kObjectsPerChunk; ++i)
        emptied = ep->free_object(ObjType::kLeaf, g.object_off(victim, i));
      EXPECT_TRUE(emptied) << "the last free must report an empty chunk";
      if (crash_at != 0) arena.arm_crash_after(crash_at);
      try {
        ep->recycle_chunk_of(ObjType::kLeaf, victim);
        arena.disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena.crash();
        ep = mk();
        // A crash before the recycle log was durable leaves the (empty)
        // chunk linked; recycling it again must unlink it.
        ep->recycle_chunk_of(ObjType::kLeaf, victim);
      }
      model.erase(std::find(model.begin(), model.end(), victim));
      ASSERT_EQ(ep->chunk_offsets(), model)
          << "after recycling chunk " << victim;
      EXPECT_EQ(ep->chunk_count(ObjType::kLeaf), model.size());
      EXPECT_EQ(ep->live_objects(ObjType::kLeaf),
                model.size() * kObjectsPerChunk);
      EXPECT_EQ(arena.root<R>()->ep.rlog.pcurrent, 0u);
    }
    EXPECT_EQ(arena.stats().pm_live_bytes.load(), 0u);
  }
}

}  // namespace
}  // namespace hart::epalloc
