// Tests for the PM-image verifier: clean images verify OK (including after
// churn and crashes), and seeded corruptions are detected.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <memory>
#include <set>

#include "epalloc/chunk.h"
#include "hart/hart.h"
#include "hart/verify.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena() {
  pmem::Arena::Options o;
  o.size = 64 << 20;
  o.shadow = true;
  return testutil::make_checked_arena(o);
}

TEST(Verify, FreshEmptyHartIsClean) {
  auto arena = make_arena();
  Hart h(*arena);
  const auto report = verify_hart_image(*arena);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.live_leaves, 0u);
}

TEST(Verify, PopulatedHartIsClean) {
  auto arena = make_arena();
  Hart h(*arena);
  const auto keys = workload::make_random(3000, 9, 4, 12);
  for (size_t i = 0; i < keys.size(); ++i)
    h.insert(keys[i], "value-" + std::to_string(i % 100));
  for (size_t i = 0; i < keys.size(); i += 3) h.remove(keys[i]);
  for (size_t i = 1; i < keys.size(); i += 3)
    h.update(keys[i], std::string(30, 'u'));  // exercises the 32 B class

  const auto report = verify_hart_image(*arena);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.live_leaves, h.size());
  EXPECT_EQ(report.live_values, h.size());
}

TEST(Verify, NonHartArenaReportsMagicMismatch) {
  auto arena = make_arena();
  const auto report = verify_hart_image(*arena);
  EXPECT_FALSE(report.ok());
}

TEST(Verify, CrashStatesVerifyCleanAfterCrash) {
  // Right after a crash (before recovery) the image must verify too: a
  // value is live exactly when a live leaf names it, so a crash leaves no
  // half-committed value. An in-flight recycle log is a warning only.
  const auto keys = workload::make_random(150, 3, 4, 10);
  for (uint64_t crash_at = 3; crash_at <= 300; crash_at += 17) {
    auto arena = make_arena();
    {
      Hart h(*arena);
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          h.insert(k, "v");
          h.update(k, "u");
          h.remove(k);
          h.insert(k, "w");
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    const auto before = verify_hart_image(*arena);
    EXPECT_TRUE(before.ok())
        << "crash_at=" << crash_at << ": " << before.summary();
    // After recovery the image must be spotless: no in-flight logs.
    Hart recovered(*arena);
    const auto after = verify_hart_image(*arena);
    EXPECT_TRUE(after.ok()) << after.summary();
    for (const auto& issue : after.issues)
      EXPECT_NE(issue.what.find("in flight"), 0u);
  }
}

class VerifyCorruption : public ::testing::Test {
 protected:
  VerifyCorruption() : arena_(make_arena()) {
    Hart h(*arena_);
    for (int i = 0; i < 500; ++i)
      h.insert("key" + std::to_string(i), "value");
    root_ = arena_->root<HartRoot>();
  }
  uint64_t leaf_chunk() const { return root_->ep.leaf_head; }
  /// The first live leaf recovery walks (in the head leaf chunk), and the
  /// last (in the tail chunk).
  HartLeaf* first_leaf() const { return leaf_at(leaf_chunk(), false); }
  HartLeaf* last_leaf() const {
    uint64_t c = leaf_chunk();
    while (arena_->ptr<epalloc::MemChunk>(c)->pnext != 0)
      c = arena_->ptr<epalloc::MemChunk>(c)->pnext;
    return leaf_at(c, true);
  }
  HartLeaf* leaf_at(uint64_t chunk, bool last) const {
    const auto g = epalloc::TypeGeometry::for_obj_size(sizeof(HartLeaf));
    const uint64_t bm = epalloc::ChunkHdr::bitmap(
        arena_->ptr<epalloc::MemChunk>(chunk)->header);
    return arena_->ptr<HartLeaf>(g.object_off(
        chunk, static_cast<uint32_t>(last ? 63 - std::countl_zero(bm)
                                          : std::countr_zero(bm))));
  }
  /// The verifier reports an error whose text contains `what`.
  void expect_reported(const std::string& what) const {
    const auto report = verify_hart_image(*arena_);
    EXPECT_FALSE(report.ok());
    bool named = false;
    for (const auto& issue : report.issues)
      named = named || issue.what.find(what) != std::string::npos;
    EXPECT_TRUE(named) << report.summary();
  }
  /// Recovery must refuse the image too: mark_live throws, after the
  /// rebuild has retired nodes of trees the failed open destroys.
  void expect_recovery_throws() {
    EXPECT_THROW(Hart h(*arena_), std::runtime_error);
    common::ebr::Domain::instance().drain();
  }
  testutil::CheckedArena arena_;
  HartRoot* root_ = nullptr;
};

TEST_F(VerifyCorruption, DetectsChunkListCycle) {
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  auto* c2 = arena_->ptr<epalloc::MemChunk>(c->pnext);
  c2->pnext = leaf_chunk();  // cycle
  const auto report = verify_hart_image(*arena_);
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifyCorruption, DetectsOutOfBoundsChunk) {
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  c->pnext = arena_->size() + 4096;
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
}

TEST_F(VerifyCorruption, DetectsInconsistentFullIndicator) {
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  // Claim full while the bitmap is not.
  c->header = epalloc::ChunkHdr::make(
      epalloc::ChunkHdr::bitmap(c->header) & ~uint64_t{1}, 0,
      epalloc::kIndFull);
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
}

TEST_F(VerifyCorruption, DetectsBadLeafKey) {
  // Find a live leaf in the head chunk and put a byte into its NUL
  // padding, after the key's terminating NUL.
  const auto g =
      epalloc::TypeGeometry::for_obj_size(sizeof(HartLeaf));
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  const auto idx = static_cast<uint32_t>(
      std::countr_zero(epalloc::ChunkHdr::bitmap(c->header)));
  auto* leaf = arena_->ptr<HartLeaf>(g.object_off(leaf_chunk(), idx));
  const size_t len = leaf_key(leaf).size();
  ASSERT_LT(len + 1, sizeof(leaf->key)) << "the key leaves padding";
  leaf->key[len + 1] = 'x';
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
  leaf->key[len + 1] = 0;
  EXPECT_TRUE(verify_hart_image(*arena_).ok());
  leaf->key[0] = 0;  // an empty key
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
}

TEST_F(VerifyCorruption, DetectsDoubleReferencedValue) {
  const auto g =
      epalloc::TypeGeometry::for_obj_size(sizeof(HartLeaf));
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  const uint64_t bm = epalloc::ChunkHdr::bitmap(c->header);
  const auto i1 = static_cast<uint32_t>(std::countr_zero(bm));
  const auto i2 =
      static_cast<uint32_t>(std::countr_zero(bm & (bm - 1)));
  auto* l1 = arena_->ptr<HartLeaf>(g.object_off(leaf_chunk(), i1));
  auto* l2 = arena_->ptr<HartLeaf>(g.object_off(leaf_chunk(), i2));
  l2->p_value = l1->p_value;
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
}

TEST_F(VerifyCorruption, DetectsDanglingValueReference) {
  const auto g =
      epalloc::TypeGeometry::for_obj_size(sizeof(HartLeaf));
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  const auto idx = static_cast<uint32_t>(
      std::countr_zero(epalloc::ChunkHdr::bitmap(c->header)));
  auto* leaf = arena_->ptr<HartLeaf>(g.object_off(leaf_chunk(), idx));
  leaf->p_value = 8;  // inside the arena header: never a value object
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
}

TEST_F(VerifyCorruption, DetectsDuplicateKey) {
  // Two live leaves carrying one key: the state a delete whose leaf-bit
  // clear was not durable before a re-insert of the key would leave.
  // Plant it by copying a live leaf, with its own value, into a free slot
  // of the same chunk and setting that slot's bit.
  const auto g = epalloc::TypeGeometry::for_obj_size(sizeof(HartLeaf));
  auto* c = arena_->ptr<epalloc::MemChunk>(leaf_chunk());
  const uint64_t bm = epalloc::ChunkHdr::bitmap(c->header);
  ASSERT_NE(bm, epalloc::kBitmapMask) << "head chunk has a free slot";
  const auto live = static_cast<uint32_t>(std::countr_zero(bm));
  const auto free = static_cast<uint32_t>(std::countr_one(bm));
  const auto* src = arena_->ptr<HartLeaf>(g.object_off(leaf_chunk(), live));
  auto* dup = arena_->ptr<HartLeaf>(g.object_off(leaf_chunk(), free));
  *dup = *src;
  ASSERT_TRUE(verify_hart_image(*arena_).ok()) << "free slots are ignored";
  // A value of its own, so only the key is shared: a slot of the value
  // class's head chunk that no live leaf names.
  const uint64_t vw = src->p_value;
  const auto vcls = ValueRef::cls(vw);
  const auto vg =
      epalloc::TypeGeometry::for_obj_size(epalloc::value_class_size(vcls));
  std::set<uint64_t> used;
  for (uint64_t lc = leaf_chunk(); lc != 0;
       lc = arena_->ptr<epalloc::MemChunk>(lc)->pnext) {
    const uint64_t lbm = epalloc::ChunkHdr::bitmap(
        arena_->ptr<epalloc::MemChunk>(lc)->header);
    for (uint32_t i = 0; i < epalloc::kObjectsPerChunk; ++i)
      if (((lbm >> i) & 1) != 0)
        used.insert(ValueRef::off(
            arena_->ptr<HartLeaf>(g.object_off(lc, i))->p_value));
  }
  // Value chunks are on no list: look for the spare slot in the chunks
  // the live leaves name.
  uint64_t spare = 0;
  for (auto it = used.begin(); it != used.end() && spare == 0; ++it)
    for (uint32_t i = 0; i < epalloc::kObjectsPerChunk && spare == 0; ++i)
      if (const uint64_t o = vg.object_off(vg.chunk_of(*it), i);
          !used.contains(o))
        spare = o;
  ASSERT_NE(spare, 0u);
  dup->p_value = ValueRef::pack(spare, ValueRef::len(vw), ValueRef::cls(vw));
  c->header = epalloc::ChunkHdr::with_bit(c->header, free, true);
  expect_reported("carried by two live leaves");
}

TEST_F(VerifyCorruption, DetectsValueInsideLeafChunk) {
  // A value word naming an 8-byte slot inside a leaf chunk's span: the
  // slot is a valid object of its class, but the chunk it derives
  // overlaps the leaf chunk.
  const auto vg = epalloc::TypeGeometry::for_obj_size(8);
  const uint64_t voff = vg.object_off(leaf_chunk(), 0);
  ASSERT_EQ(vg.chunk_of(voff), leaf_chunk());
  last_leaf()->p_value = ValueRef::pack(voff, 1, epalloc::ObjType::kValue8);
  expect_reported("overlaps");
  expect_recovery_throws();
}

TEST_F(VerifyCorruption, DetectsOverlappingValueClasses) {
  // Every value here is 8-byte class. Point the last leaf recovery walks
  // at a 16-byte slot of the 16-byte chunk that contains the first leaf's
  // 8-byte chunk: each chunk is sound alone, but their spans overlap.
  const uint64_t v8 = ValueRef::off(first_leaf()->p_value);
  const auto g8 = epalloc::TypeGeometry::for_obj_size(8);
  const auto g16 = epalloc::TypeGeometry::for_obj_size(16);
  const uint64_t c16 = g16.chunk_of(g8.chunk_of(v8));
  last_leaf()->p_value =
      ValueRef::pack(g16.object_off(c16, 0), 1, epalloc::ObjType::kValue16);
  expect_reported("overlaps");
  expect_recovery_throws();
}

TEST_F(VerifyCorruption, DetectsPartiallyClearedLogs) {
  root_->ep.rlog.pprev = 0xdead;  // pcurrent stays 0
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
  root_->ep.rlog.pprev = leaf_chunk();  // a real chunk, pcurrent still 0
  EXPECT_FALSE(verify_hart_image(*arena_).ok());
  root_->ep.rlog.pprev = 0;
  EXPECT_TRUE(verify_hart_image(*arena_).ok());
}

}  // namespace
}  // namespace hart::core
