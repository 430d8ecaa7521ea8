// Tests for HartCursor (ordered stateful scans) and parallel recovery.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "hart/hart.h"
#include "hart/verify.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(size_t mb = 128) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  return testutil::make_checked_arena(o);
}

TEST(HartCursor, IteratesAllInOrder) {
  auto arena = make_arena();
  Hart h(*arena);
  std::map<std::string, std::string> ref;
  common::Rng rng(3);
  while (ref.size() < 2000) {
    std::string k;
    const size_t len = 2 + rng.next_below(12);
    for (size_t j = 0; j < len; ++j)
      k.push_back(static_cast<char>('A' + rng.next_below(40)));
    ref[k] = "v" + k.substr(0, 5);
    h.insert(k, ref[k]);
  }
  // Small batch size forces many refills across batch boundaries.
  HartCursor cur(h, ref.begin()->first, 7);
  auto it = ref.begin();
  size_t n = 0;
  for (; cur.valid(); cur.next(), ++it, ++n) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(cur.key(), it->first);
    EXPECT_EQ(cur.value(), it->second);
  }
  EXPECT_EQ(n, ref.size());
}

TEST(HartCursor, StartsAtLowerBoundInclusive) {
  auto arena = make_arena();
  Hart h(*arena);
  for (const char* k : {"alpha", "beta", "gamma", "delta"}) h.insert(k, k);
  HartCursor at(h, "beta", 2);
  ASSERT_TRUE(at.valid());
  EXPECT_EQ(at.key(), "beta");
  HartCursor between(h, "bx", 2);
  ASSERT_TRUE(between.valid());
  EXPECT_EQ(between.key(), "delta");
}

TEST(HartCursor, EmptyAndExhausted) {
  auto arena = make_arena();
  Hart h(*arena);
  HartCursor none(h, "anything");
  EXPECT_FALSE(none.valid());
  h.insert("only", "1");
  HartCursor one(h, "a", 4);
  ASSERT_TRUE(one.valid());
  EXPECT_EQ(one.key(), "only");
  one.next();
  EXPECT_FALSE(one.valid());
  one.next();  // idempotent past the end
  EXPECT_FALSE(one.valid());
}

TEST(HartCursor, SurvivesConcurrentWriters) {
  auto arena = make_arena();
  Hart h(*arena);
  const auto keys = workload::make_sequential(20000);
  for (size_t i = 0; i < keys.size(); i += 2) h.insert(keys[i], "stable");

  std::thread writer([&] {
    for (size_t i = 1; i < keys.size(); i += 2) h.insert(keys[i], "fresh");
  });
  // Scan while the writer interleaves: every *preloaded* key must appear,
  // in order; interleaved fresh keys may or may not.
  HartCursor cur(h, keys.front(), 64);
  std::string prev;
  size_t stable_seen = 0;
  for (; cur.valid(); cur.next()) {
    EXPECT_LT(prev, cur.key()) << "cursor must stay strictly ordered";
    prev = cur.key();
    if (cur.value() == "stable") ++stable_seen;
  }
  writer.join();
  EXPECT_EQ(stable_seen, keys.size() / 2);
}

TEST(HartRecovery, ParallelMatchesSequential) {
  auto arena = make_arena();
  std::map<std::string, std::string> ref;
  {
    Hart h(*arena);
    const auto keys = workload::make_random(20000, 17);
    for (size_t i = 0; i < keys.size(); ++i) {
      h.insert(keys[i], "v" + std::to_string(i % 97));
      ref[keys[i]] = "v" + std::to_string(i % 97);
    }
    for (size_t i = 0; i < keys.size(); i += 5) {
      h.remove(keys[i]);
      ref.erase(keys[i]);
    }
  }
  Hart h2(*arena);  // sequential recovery in the constructor
  for (const unsigned threads : {2u, 4u, 8u}) {
    h2.recover(threads);
    EXPECT_EQ(h2.size(), ref.size()) << threads;
    size_t probe = 0;
    for (const auto& [k, v] : ref) {
      if (++probe % 7 != 0) continue;  // sample
      std::string got;
      ASSERT_EQ(h2.search(k, &got), common::Status::kOk) << k << " threads=" << threads;
      EXPECT_EQ(got, v);
    }
    // Ordered iteration intact after the parallel rebuild.
    std::vector<std::pair<std::string, std::string>> out;
    h2.range(ref.begin()->first, ref.size() + 1, &out);
    EXPECT_EQ(out.size(), ref.size());
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_TRUE(verify_hart_image(*arena).ok());
  }
}

}  // namespace
}  // namespace hart::core
