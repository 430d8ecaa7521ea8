// ART+CoW tests: CRUD, differential fuzz, copy-on-write crash atomicity
// (crash-point sweeps), and recovery by reachability.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <string>

#include "artcow/artcow.h"
#include "common/rng.h"
#include "pmem/arena.h"

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

TEST(ArtCow, BasicCrud) {
  auto arena = make_arena();
  ArtCow t(*arena);
  EXPECT_EQ(t.insert("one", "1"), common::Status::kInserted);
  EXPECT_EQ(t.insert("two", "2"), common::Status::kInserted);
  EXPECT_EQ(t.insert("three", "3"), common::Status::kInserted);
  std::string v;
  EXPECT_EQ(t.search("two", &v), common::Status::kOk);
  EXPECT_EQ(v, "2");
  EXPECT_EQ(t.update("two", "2x"), common::Status::kOk);
  EXPECT_EQ(t.search("two", &v), common::Status::kOk);
  EXPECT_EQ(v, "2x");
  EXPECT_EQ(t.remove("one"), common::Status::kOk);
  EXPECT_EQ(t.search("one", &v), common::Status::kNotFound);
  EXPECT_EQ(t.size(), 2u);
}

TEST(ArtCow, CowReplacesNodesOnGrowth) {
  auto arena = make_arena();
  ArtCow t(*arena);
  const uint64_t allocs_before = arena->stats().alloc_calls.load();
  for (int b = 1; b <= 5; ++b)  // forces a 4 -> 16 CoW grow
    t.insert(std::string(1, static_cast<char>(b)) + "x", "v");
  // CoW allocates a fresh node on every child addition (not only growth).
  EXPECT_GT(arena->stats().alloc_calls.load(), allocs_before + 10);
  for (int b = 1; b <= 5; ++b) {
    std::string v;
    EXPECT_EQ(t.search(std::string(1, static_cast<char>(b)) + "x", &v), common::Status::kOk);
  }
}

TEST(ArtCow, DifferentialFuzzAgainstMap) {
  auto arena = make_arena(256);
  ArtCow t(*arena);
  std::map<std::string, std::string> ref;
  common::Rng rng(321);
  for (int step = 0; step < 5000; ++step) {
    const std::string key = random_key(rng);
    const std::string val = "v" + std::to_string(step % 991);
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
        EXPECT_EQ(t.remove(key).ok(), ref.erase(key) == 1) << key;
        break;
      }
    }
  }
  EXPECT_EQ(t.size(), ref.size());
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

TEST(ArtCow, CrashSweepDuringInserts) {
  common::Rng keyrng(654);
  std::vector<std::string> keys;
  {
    std::map<std::string, int> uniq;
    while (uniq.size() < 250) uniq[random_key(keyrng, 10, 4)] = 1;
    for (auto& [k, unused] : uniq) keys.push_back(k);
  }
  common::Rng sh(3);
  for (size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[sh.next_below(i)]);

  for (uint64_t crash_at = 1; crash_at <= 300; crash_at += 17) {
    auto arena = make_arena();
    size_t committed = 0;
    {
      ArtCow t(*arena);
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
    ArtCow t2(*arena);
    for (size_t i = 0; i < committed; ++i) {
      std::string v;
      EXPECT_EQ(t2.search(keys[i], &v), common::Status::kOk)
          << "crash_at=" << crash_at << " key=" << keys[i];
    }
    for (const auto& k : keys) t2.insert(k, "v2");
    EXPECT_EQ(t2.size(), keys.size());
  }
}

TEST(ArtCow, CrashSweepDuringRemoves) {
  common::Rng keyrng(777);
  std::map<std::string, int> uniq;
  while (uniq.size() < 150) uniq[random_key(keyrng, 8, 4)] = 1;
  std::vector<std::string> keys;
  for (auto& [k, unused] : uniq) keys.push_back(k);

  for (uint64_t crash_at = 1; crash_at <= 100; crash_at += 9) {
    auto arena = make_arena();
    size_t removed = 0;
    {
      ArtCow t(*arena);
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
    ArtCow t2(*arena);
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string v;
      const bool found = t2.search(keys[i], &v).ok();
      if (i < removed) {
        EXPECT_FALSE(found) << "crash_at=" << crash_at << " " << keys[i];
      } else if (i > removed) {
        EXPECT_TRUE(found) << "crash_at=" << crash_at << " " << keys[i];
      }
    }
  }
}

TEST(ArtCow, PmBytesBalanceAfterChurn) {
  auto arena = make_arena();
  ArtCow t(*arena);
  common::Rng rng(15);
  std::map<std::string, int> keys;
  while (keys.size() < 400) keys[random_key(rng)] = 1;
  for (auto& [k, unused] : keys) t.insert(k, "v");
  for (auto& [k, unused] : keys) EXPECT_EQ(t.remove(k), common::Status::kOk);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), 0u);
}

}  // namespace
}  // namespace hart::pmart
