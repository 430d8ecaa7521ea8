// FPTree tests: fingerprint probing, unsorted-leaf semantics, splits and
// the split micro-log (crash sweeps), leaf-list ordering, recovery
// (inner-node rebuild) and the no-coalescing policy.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "fptree/fptree.h"
#include "pmem/arena.h"

namespace hart::fptree {
namespace {

testutil::CheckedArena make_arena(size_t mb = 64) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.shadow = true;
  return testutil::make_checked_arena(o);
}

std::string random_key(common::Rng& rng, uint32_t max_len = 12) {
  std::string s;
  const size_t len = 1 + rng.next_below(max_len);
  for (size_t j = 0; j < len; ++j)
    s.push_back(static_cast<char>('a' + rng.next_below(8)));
  return s;
}

TEST(FpTree, BasicCrud) {
  auto arena = make_arena();
  FpTree t(*arena);
  EXPECT_EQ(t.insert("hello", "world"), common::Status::kInserted);
  EXPECT_EQ(t.insert("hello", "again"), common::Status::kUpdated) << "duplicate insert updates";
  std::string v;
  EXPECT_EQ(t.search("hello", &v), common::Status::kOk);
  EXPECT_EQ(v, "again");
  EXPECT_EQ(t.update("hello", "third"), common::Status::kOk);
  EXPECT_EQ(t.search("hello", &v), common::Status::kOk);
  EXPECT_EQ(v, "third");
  EXPECT_EQ(t.update("nothere", "x"), common::Status::kNotFound);
  EXPECT_EQ(t.remove("hello"), common::Status::kOk);
  EXPECT_EQ(t.search("hello", &v), common::Status::kNotFound);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FpTree, SplitsKeepEverythingFindable) {
  auto arena = make_arena();
  FpTree t(*arena);
  // Well past several leaf splits (48 slots per leaf).
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(t.insert("key" + std::to_string(i), "v" + std::to_string(i)), common::Status::kInserted);
  EXPECT_EQ(t.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    std::string v;
    EXPECT_EQ(t.search("key" + std::to_string(i), &v), common::Status::kOk) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
}

TEST(FpTree, FingerprintCollisionsAreDisambiguated) {
  // Many keys in one leaf; some will share a fingerprint byte. The key
  // comparison after the fp match must disambiguate.
  auto arena = make_arena();
  FpTree t(*arena);
  for (int i = 0; i < 40; ++i)
    t.insert("c" + std::to_string(i), "v" + std::to_string(i));
  for (int i = 0; i < 40; ++i) {
    std::string v;
    ASSERT_EQ(t.search("c" + std::to_string(i), &v), common::Status::kOk);
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  EXPECT_EQ(t.search("c40", nullptr), common::Status::kNotFound);
}

TEST(FpTree, RangeWalksTheLeafList) {
  auto arena = make_arena();
  FpTree t(*arena);
  std::map<std::string, std::string> ref;
  common::Rng rng(8);
  while (ref.size() < 500) {
    const std::string k = random_key(rng);
    ref[k] = "v" + k;
    t.insert(k, "v" + k);
  }
  std::vector<std::pair<std::string, std::string>> out;
  const std::string lo = std::next(ref.begin(), 100)->first;
  t.range(lo, 50, &out);
  ASSERT_EQ(out.size(), 50u);
  auto it = ref.lower_bound(lo);
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(FpTree, DifferentialFuzzAgainstMap) {
  auto arena = make_arena(128);
  FpTree t(*arena);
  std::map<std::string, std::string> ref;
  common::Rng rng(1001);
  for (int step = 0; step < 6000; ++step) {
    const std::string key = random_key(rng);
    const std::string val = "v" + std::to_string(step % 83);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        EXPECT_EQ(t.insert(key, val) == common::Status::kInserted,
                  ref.find(key) == ref.end()) << key;
        ref[key] = val;
        break;
      }
      case 2: {
        std::string v;
        const bool found = t.search(key, &v).ok();
        const auto it = ref.find(key);
        EXPECT_EQ(found, it != ref.end()) << key;
        if (found) {
          EXPECT_EQ(v, it->second);
        }
        break;
      }
      default:
        EXPECT_EQ(t.remove(key).ok(), ref.erase(key) == 1) << key;
        break;
    }
  }
  EXPECT_EQ(t.size(), ref.size());
}

TEST(FpTree, RecoveryRebuildsInnerNodes) {
  auto arena = make_arena();
  std::map<std::string, std::string> ref;
  {
    FpTree t(*arena);
    common::Rng rng(66);
    while (ref.size() < 3000) {
      const std::string k = random_key(rng);
      ref[k] = "v" + k;
      t.insert(k, "v" + k);
    }
  }
  FpTree t2(*arena);  // constructor runs recover()
  EXPECT_EQ(t2.size(), ref.size());
  for (const auto& [k, v] : ref) {
    std::string got;
    ASSERT_EQ(t2.search(k, &got), common::Status::kOk) << k;
    EXPECT_EQ(got, v);
  }
  // Ordered scan still works after rebuild.
  std::vector<std::pair<std::string, std::string>> out;
  t2.range(ref.begin()->first, 100, &out);
  ASSERT_EQ(out.size(), 100u);
  auto it = ref.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    ++it;
  }
}

TEST(FpTree, NoCoalescingKeepsLeavesAllocated) {
  auto arena = make_arena();
  FpTree t(*arena);
  for (int i = 0; i < 500; ++i) t.insert("k" + std::to_string(i), "v");
  const uint64_t pm_full = arena->stats().pm_live_bytes.load();
  for (int i = 0; i < 500; ++i) EXPECT_EQ(t.remove("k" + std::to_string(i)), common::Status::kOk);
  EXPECT_EQ(t.size(), 0u);
  // The out-of-leaf values are freed, but FPTree never coalesces or frees
  // leaves (paper Section IV.E): leaf bytes stay allocated.
  const uint64_t pm_after = arena->stats().pm_live_bytes.load();
  EXPECT_LT(pm_after, pm_full);
  EXPECT_GE(pm_after, sizeof(FpLeaf));
  EXPECT_EQ(pm_after % sizeof(FpLeaf), 0u) << "only whole leaves remain";
}

TEST(FpTree, CrashSweepDuringInsertsAndSplits) {
  std::vector<std::string> keys;
  {
    common::Rng rng(2024);
    std::map<std::string, int> uniq;
    while (uniq.size() < 400) uniq[random_key(rng, 10)] = 1;
    for (auto& [k, unused] : uniq) keys.push_back(k);
    common::Rng sh(12);
    for (size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[sh.next_below(i)]);
  }
  for (uint64_t crash_at = 1; crash_at <= 600; crash_at += 23) {
    auto arena = make_arena();
    size_t committed = 0;
    {
      FpTree t(*arena);
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          t.insert(k, "val");
          ++committed;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    FpTree t2(*arena);  // finishes the split log + rebuilds inner nodes
    EXPECT_EQ(arena->root<uint64_t>()[2], 0u) << "split log must be clear";
    for (size_t i = 0; i < committed; ++i) {
      std::string v;
      EXPECT_EQ(t2.search(keys[i], &v), common::Status::kOk)
          << "crash_at=" << crash_at << " key=" << keys[i];
      EXPECT_EQ(v, "val");
    }
    // No duplicates after an interrupted split: count live entries.
    size_t live = t2.size();
    EXPECT_GE(live, committed);
    EXPECT_LE(live, committed + 1);  // +1 for a mid-operation commit
    for (const auto& k : keys) t2.insert(k, "v2");
    EXPECT_EQ(t2.size(), keys.size());
    for (const auto& k : keys) {
      std::string v;
      ASSERT_EQ(t2.search(k, &v), common::Status::kOk) << k;
      EXPECT_EQ(v, "v2");
    }
  }
}

}  // namespace
}  // namespace hart::fptree
