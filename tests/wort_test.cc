// WORT tests: nibble-radix behaviour, differential fuzz, depth-repair
// after splits and collapses, and crash sweeps over the single-pointer
// commit protocol.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "pmem/arena.h"
#include "woart/wort.h"
#include "workload/keygen.h"

namespace hart::pmart {
namespace {

testutil::CheckedArena make_arena(size_t mb = 128) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.shadow = true;
  return testutil::make_checked_arena(o);
}

TEST(WortPWordCodec, RoundTripsNibbles) {
  const uint8_t nibs[] = {0xf, 0x1, 0xa, 0x0, 0x7, 0x3,
                          0xe, 0x2, 0x9, 0x5, 0x8, 0x4};
  const uint64_t w = WortPWord::make(9, 12, nibs, 12);
  EXPECT_EQ(WortPWord::depth(w), 9);
  EXPECT_EQ(WortPWord::prefix_len(w), 12);
  for (uint32_t i = 0; i < 12; ++i)
    EXPECT_EQ(WortPWord::nibble(w, i), nibs[i]) << i;
}

TEST(Wort, BasicCrud) {
  auto arena = make_arena();
  Wort t(*arena);
  EXPECT_EQ(t.insert("hello", "world"), common::Status::kInserted);
  EXPECT_EQ(t.insert("hello", "again"), common::Status::kUpdated);
  std::string v;
  EXPECT_EQ(t.search("hello", &v), common::Status::kOk);
  EXPECT_EQ(v, "again");
  EXPECT_EQ(t.update("hello", "x"), common::Status::kOk);
  EXPECT_EQ(t.update("missing", "x"), common::Status::kNotFound);
  EXPECT_EQ(t.remove("hello"), common::Status::kOk);
  EXPECT_EQ(t.search("hello", nullptr), common::Status::kNotFound);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), 0u);
}

TEST(Wort, PrefixKeysCoexist) {
  auto arena = make_arena();
  Wort t(*arena);
  for (const char* k : {"a", "ab", "abc", "abcd"})
    EXPECT_EQ(t.insert(k, k), common::Status::kInserted);
  for (const char* k : {"a", "ab", "abc", "abcd"}) {
    std::string v;
    EXPECT_EQ(t.search(k, &v), common::Status::kOk) << k;
    EXPECT_EQ(v, k);
  }
  EXPECT_EQ(t.remove("ab"), common::Status::kOk);
  EXPECT_EQ(t.search("abc", nullptr), common::Status::kOk);
  EXPECT_EQ(t.search("a", nullptr), common::Status::kOk);
}

TEST(Wort, LongSharedPrefixBeyondStoredNibbles) {
  // Common prefixes longer than the 12 stored nibbles force the min-leaf
  // fallback in prefix comparison and the split-repair path.
  auto arena = make_arena();
  Wort t(*arena);
  const std::string base(10, 'w');  // 20 nibbles shared
  EXPECT_EQ(t.insert(base + "aaa", "1"), common::Status::kInserted);
  EXPECT_EQ(t.insert(base + "aab", "2"), common::Status::kInserted);
  EXPECT_EQ(t.insert(base + "zzz", "3"), common::Status::kInserted);
  EXPECT_EQ(t.insert(std::string(4, 'w') + "Q", "4"), common::Status::kInserted);
  for (const auto& [k, v] : std::map<std::string, std::string>{
           {base + "aaa", "1"},
           {base + "aab", "2"},
           {base + "zzz", "3"},
           {std::string(4, 'w') + "Q", "4"}}) {
    std::string got;
    ASSERT_EQ(t.search(k, &got), common::Status::kOk) << k;
    EXPECT_EQ(got, v);
  }
}

TEST(Wort, DifferentialFuzzAgainstMap) {
  auto arena = make_arena(256);
  Wort t(*arena);
  std::map<std::string, std::string> ref;
  common::Rng rng(55);
  for (int step = 0; step < 6000; ++step) {
    std::string key;
    const size_t len = 1 + rng.next_below(10);
    for (size_t j = 0; j < len; ++j)
      key.push_back(static_cast<char>('a' + rng.next_below(6)));
    const std::string val = "v" + std::to_string(step % 89);
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
        EXPECT_EQ(found, ref.count(key) == 1) << key;
        if (found) {
          EXPECT_EQ(v, ref[key]);
        }
        break;
      }
      default:
        EXPECT_EQ(t.remove(key).ok(), ref.erase(key) == 1) << key;
        break;
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  // In-order agreement via range.
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

TEST(Wort, CrashSweepDuringInserts) {
  std::vector<std::string> keys;
  {
    common::Rng rng(77);
    std::map<std::string, int> uniq;
    while (uniq.size() < 250) {
      std::string k;
      const size_t len = 1 + rng.next_below(10);
      for (size_t j = 0; j < len; ++j)
        k.push_back(static_cast<char>('a' + rng.next_below(4)));
      uniq[k] = 1;
    }
    for (auto& [k, unused] : uniq) keys.push_back(k);
    common::Rng sh(8);
    for (size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[sh.next_below(i)]);
  }
  for (uint64_t crash_at = 1; crash_at <= 300; crash_at += 13) {
    auto arena = make_arena();
    size_t committed = 0;
    {
      Wort t(*arena);
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
    Wort t2(*arena);
    for (size_t i = 0; i < committed; ++i) {
      std::string v;
      ASSERT_EQ(t2.search(keys[i], &v), common::Status::kOk)
          << "crash_at=" << crash_at << " " << keys[i];
      EXPECT_EQ(v, "val");
    }
    for (const auto& k : keys) t2.insert(k, "v2");
    EXPECT_EQ(t2.size(), keys.size());
  }
}

TEST(Wort, RecoverRebuildsAllocationMap) {
  auto arena = make_arena();
  const auto keys = workload::make_random(2000, 3, 4, 12);
  uint64_t live = 0;
  {
    Wort t(*arena);
    for (const auto& k : keys) t.insert(k, "v");
    live = arena->stats().pm_live_bytes.load();
  }
  Wort t2(*arena);
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), live);
  EXPECT_EQ(t2.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 37)
    EXPECT_EQ(t2.search(keys[i], nullptr), common::Status::kOk) << keys[i];
}

}  // namespace
}  // namespace hart::pmart
