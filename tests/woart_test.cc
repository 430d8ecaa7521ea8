// WOART tests: CRUD semantics, differential fuzz against std::map,
// node-type transitions, crash-point sweeps over the failure-atomic commit
// protocol, and reachability-based recovery.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "pmem/arena.h"
#include "woart/woart.h"

namespace hart::pmart {
namespace {

testutil::CheckedArena make_arena(size_t mb = 64) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.shadow = true;
  return testutil::make_checked_arena(o);
}

std::string random_key(common::Rng& rng, uint32_t max_len = 12,
                       uint32_t alphabet = 6) {
  std::string s;
  const size_t len = 1 + rng.next_below(max_len);
  for (size_t j = 0; j < len; ++j)
    s.push_back(static_cast<char>('a' + rng.next_below(alphabet)));
  return s;
}

TEST(Woart, InsertSearchUpdateRemove) {
  auto arena = make_arena();
  Woart t(*arena);
  EXPECT_EQ(t.insert("alpha", "1"), common::Status::kInserted);
  EXPECT_EQ(t.insert("beta", "2"), common::Status::kInserted);
  EXPECT_EQ(t.insert("alpha", "1b"), common::Status::kUpdated) << "duplicate insert updates";
  std::string v;
  EXPECT_EQ(t.search("alpha", &v), common::Status::kOk);
  EXPECT_EQ(v, "1b");
  EXPECT_EQ(t.update("beta", "2b"), common::Status::kOk);
  EXPECT_EQ(t.search("beta", &v), common::Status::kOk);
  EXPECT_EQ(v, "2b");
  EXPECT_EQ(t.update("gamma", "x"), common::Status::kNotFound);
  EXPECT_EQ(t.remove("alpha"), common::Status::kOk);
  EXPECT_EQ(t.search("alpha", &v), common::Status::kNotFound);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Woart, PrefixKeysAndDeepSplits) {
  auto arena = make_arena();
  Woart t(*arena);
  const std::string base(20, 'q');
  for (const std::string& s :
       {std::string("q"), base, base + "a", base + "b",
        std::string(15, 'q') + "Z"})
    EXPECT_EQ(t.insert(s, "v"), common::Status::kInserted);
  for (const std::string& s :
       {std::string("q"), base, base + "a", base + "b",
        std::string(15, 'q') + "Z"}) {
    std::string v;
    EXPECT_EQ(t.search(s, &v), common::Status::kOk) << s;
  }
}

TEST(Woart, GrowsThroughAllNodeTypes) {
  auto arena = make_arena();
  Woart t(*arena);
  for (int b = 1; b < 256; ++b) {
    std::string s(1, static_cast<char>(b));
    s += "tail";
    EXPECT_EQ(t.insert(s, "v"), common::Status::kInserted);
  }
  EXPECT_EQ(t.size(), 255u);
  for (int b = 1; b < 256; ++b) {
    std::string s(1, static_cast<char>(b));
    s += "tail";
    std::string v;
    EXPECT_EQ(t.search(s, &v), common::Status::kOk) << b;
  }
  // And shrink back down.
  for (int b = 1; b < 250; ++b) {
    std::string s(1, static_cast<char>(b));
    s += "tail";
    EXPECT_EQ(t.remove(s), common::Status::kOk) << b;
  }
  for (int b = 250; b < 256; ++b) {
    std::string s(1, static_cast<char>(b));
    s += "tail";
    std::string v;
    EXPECT_EQ(t.search(s, &v), common::Status::kOk) << b;
  }
}

TEST(Woart, RangeIsSortedAndInclusive) {
  auto arena = make_arena();
  Woart t(*arena);
  for (const char* s : {"fig", "apple", "date", "banana", "cherry"})
    t.insert(s, s);
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(t.range("banana", 10, &out), 4u);
  EXPECT_EQ(out[0].first, "banana");
  EXPECT_EQ(out[3].first, "fig");
  EXPECT_EQ(t.range("bananaa", 10, &out), 3u);
  EXPECT_EQ(out[0].first, "cherry");
}

TEST(Woart, DifferentialFuzzAgainstMap) {
  auto arena = make_arena(128);
  Woart t(*arena);
  std::map<std::string, std::string> ref;
  common::Rng rng(77);
  for (int step = 0; step < 6000; ++step) {
    const std::string key = random_key(rng);
    const std::string val = "v" + std::to_string(step % 997);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const bool fresh = t.insert(key, val) == common::Status::kInserted;
        EXPECT_EQ(fresh, ref.find(key) == ref.end()) << key;
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
      default: {
        const bool removed = t.remove(key).ok();
        EXPECT_EQ(removed, ref.erase(key) == 1) << key;
        break;
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  // Final in-order agreement via range.
  std::vector<std::pair<std::string, std::string>> out;
  t.range("a", ref.size() + 10, &out);
  ASSERT_EQ(out.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(Woart, PmLiveBytesReturnToZeroAfterDeletingAll) {
  auto arena = make_arena();
  {
    Woart t(*arena);
    common::Rng rng(5);
    std::map<std::string, int> keys;
    for (int i = 0; i < 800; ++i) keys[random_key(rng)] = 1;
    for (const auto& [k, unused] : keys) t.insert(k, "v");
    for (const auto& [k, unused] : keys) EXPECT_EQ(t.remove(k), common::Status::kOk) << k;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(arena->stats().pm_live_bytes.load(), 0u);
  }
}

// Crash-point sweep: for each k, crash at the k-th persist while inserting;
// after recovery every previously committed key must be present and the
// tree fully functional. This exercises all of WOART's ordered-store
// commit protocols (NODE4 pointer, NODE16 bitmap, NODE48 child_index,
// NODE256 pointer, CoW grow swings, and the depth-repair path).
TEST(Woart, CrashSweepDuringInserts) {
  common::Rng keyrng(321);
  std::vector<std::string> keys;
  {
    std::map<std::string, int> uniq;
    while (uniq.size() < 300) uniq[random_key(keyrng, 10, 4)] = 1;
    for (auto& [k, unused] : uniq) keys.push_back(k);
  }
  // Shuffle deterministically so node types evolve mid-sweep.
  common::Rng sh(9);
  for (size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[sh.next_below(i)]);

  for (uint64_t crash_at = 1; crash_at <= 400; crash_at += 13) {
    auto arena = make_arena();
    size_t committed = 0;
    {
      Woart t(*arena);
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
    Woart t2(*arena);  // constructor recovers
    for (size_t i = 0; i < committed; ++i) {
      std::string v;
      EXPECT_EQ(t2.search(keys[i], &v), common::Status::kOk)
          << "crash_at=" << crash_at << " key=" << keys[i];
      EXPECT_EQ(v, "val");
    }
    // The tree remains fully usable: finish the inserts.
    for (const auto& k : keys) t2.insert(k, "val2");
    for (const auto& k : keys) {
      std::string v;
      EXPECT_EQ(t2.search(k, &v), common::Status::kOk);
      EXPECT_EQ(v, "val2");
    }
    EXPECT_EQ(t2.size(), keys.size());
  }
}

TEST(Woart, CrashSweepDuringRemoves) {
  common::Rng keyrng(4242);
  std::map<std::string, int> uniq;
  while (uniq.size() < 200) uniq[random_key(keyrng, 8, 4)] = 1;
  std::vector<std::string> keys;
  for (auto& [k, unused] : uniq) keys.push_back(k);

  for (uint64_t crash_at = 1; crash_at <= 120; crash_at += 7) {
    auto arena = make_arena();
    size_t removed = 0;
    {
      Woart t(*arena);
      for (const auto& k : keys) t.insert(k, "val");
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          t.remove(k);
          ++removed;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    Woart t2(*arena);
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string v;
      const bool found = t2.search(keys[i], &v).ok();
      if (i < removed) {
        EXPECT_FALSE(found) << "crash_at=" << crash_at << " " << keys[i];
      } else if (i > removed) {
        // Key i was never touched; it must still be there. (Key i ==
        // removed may be in either state: the crash hit mid-operation.)
        EXPECT_TRUE(found) << "crash_at=" << crash_at << " " << keys[i];
      }  // (braces keep gtest's internal if/else unambiguous)
    }
  }
}

TEST(Woart, RecoverRebuildsAllocationMapExactly) {
  auto arena = make_arena();
  common::Rng rng(31);
  std::map<std::string, int> keys;
  while (keys.size() < 500) keys[random_key(rng)] = 1;
  uint64_t live_before = 0;
  {
    Woart t(*arena);
    for (auto& [k, unused] : keys) t.insert(k, "v");
    live_before = arena->stats().pm_live_bytes.load();
  }
  Woart t2(*arena);
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), live_before)
      << "reachability marking must account for exactly the same bytes";
  EXPECT_EQ(t2.size(), keys.size());
}

}  // namespace
}  // namespace hart::pmart
