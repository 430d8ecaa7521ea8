// Unit tests for HART's hash directory: prefix packing, lexicographic
// ordering of packed prefixes, probe lengths and table sizing, concurrent
// find_or_create races, and ordered partition enumeration.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "hart/hart.h"
#include "hart/hash_dir.h"

namespace hart::core {
namespace {

pmem::Arena::Options tiny() {
  pmem::Arena::Options o;
  o.size = 4 << 20;
  return o;
}

TEST(PackHashKey, PacksBigEndianPrefix) {
  EXPECT_EQ(pack_hash_key("AB", 2), uint64_t{0x41} << 56 | uint64_t{0x42} << 48);
  EXPECT_EQ(pack_hash_key("ABCD", 2), pack_hash_key("ABzz", 2))
      << "only the first kh bytes participate";
  EXPECT_EQ(pack_hash_key("A", 2), uint64_t{0x41} << 56)
      << "short keys zero-pad";
  EXPECT_EQ(pack_hash_key("anything", 0), 0u);
}

TEST(PackHashKey, NumericOrderIsLexicographicPrefixOrder) {
  // Because keys contain no NUL bytes, zero-padded short prefixes sort
  // before their extensions — matching std::string order.
  const std::vector<std::string> keys = {"A",  "AB", "Az", "B",
                                         "B0", "a",  "ab", "zz"};
  for (size_t i = 1; i < keys.size(); ++i)
    EXPECT_LT(pack_hash_key(keys[i - 1], 2), pack_hash_key(keys[i], 2))
        << keys[i - 1] << " vs " << keys[i];
}

TEST(PackHashKey, LongerKhUsesMoreBytes) {
  EXPECT_NE(pack_hash_key("ABC", 3), pack_hash_key("ABD", 3));
  EXPECT_EQ(pack_hash_key("ABC", 2), pack_hash_key("ABD", 2));
}

class HashDirTest : public ::testing::Test {
 protected:
  HashDirTest()
      : arena_(tiny()),
        dir_(HartLeafTraits{2, &arena_}, &dram_) {}
  pmem::Arena arena_;
  std::atomic<uint64_t> dram_{0};
  HashDir dir_;
};

TEST_F(HashDirTest, FindMissesOnEmpty) {
  EXPECT_EQ(dir_.find(pack_hash_key("AA", 2)), nullptr);
  EXPECT_EQ(dir_.partition_count(), 0u);
}

TEST_F(HashDirTest, FindOrCreateIsIdempotent) {
  auto* p1 = dir_.find_or_create(pack_hash_key("AA", 2));
  auto* p2 = dir_.find_or_create(pack_hash_key("AA", 2));
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(dir_.find(pack_hash_key("AA", 2)), p1);
  EXPECT_EQ(dir_.partition_count(), 1u);
}

TEST_F(HashDirTest, DistinctPrefixesDistinctPartitions) {
  std::set<HashDir::Partition*> parts;
  for (char a = 'A'; a <= 'Z'; ++a)
    for (char b = 'a'; b <= 'z'; ++b) {
      const std::string k{a, b};
      parts.insert(dir_.find_or_create(pack_hash_key(k, 2)));
    }
  EXPECT_EQ(parts.size(), 26u * 26u);
  EXPECT_EQ(dir_.partition_count(), 26u * 26u);
}

TEST_F(HashDirTest, OrderedEnumerationFromLowerBound) {
  for (const char* k : {"zz", "aa", "mm", "ab", "ba"})
    dir_.find_or_create(pack_hash_key(k, 2));
  std::vector<uint64_t> seen;
  dir_.for_each_partition_from(pack_hash_key("ab", 2),
                               [&](HashDir::Partition* p) {
                                 seen.push_back(p->hkey);
                                 return true;
                               });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), pack_hash_key("ab", 2));
  // Early stop.
  int n = 0;
  dir_.for_each_partition_from(0, [&](HashDir::Partition*) {
    return ++n < 2;
  });
  EXPECT_EQ(n, 2);
}

TEST_F(HashDirTest, DramAccountingGrowsWithPartitions) {
  const uint64_t base = dram_.load();
  for (int i = 0; i < 100; ++i)
    dir_.find_or_create(static_cast<uint64_t>(i) << 40);
  EXPECT_GE(dram_.load(), base + 100 * sizeof(HashDir::Partition));
}

TEST_F(HashDirTest, ConcurrentFindOrCreateYieldsOnePartitionPerKey) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 500;
  std::vector<std::vector<HashDir::Partition*>> got(
      kThreads, std::vector<HashDir::Partition*>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; ++i)
        got[t][i] =
            dir_.find_or_create(static_cast<uint64_t>(i + 1) << 40);
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kKeys; ++i)
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(got[t][i], got[0][i]) << "key " << i;
  EXPECT_EQ(dir_.partition_count(), static_cast<size_t>(kKeys));
}

std::vector<uint64_t> two_letter_prefixes() {
  std::vector<uint64_t> hkeys;
  for (char a = 'a'; a <= 'z'; ++a)
    for (char b = 'a'; b <= 'z'; ++b)
      hkeys.push_back(pack_hash_key(std::string{a, b}, 2));
  return hkeys;
}

TEST_F(HashDirTest, ProbeSequencesStayShort) {
  // Regression for the packed-prefix hashing bug: prefixes live in the
  // *top* bytes, and the original multiply-shift hash sent all of them to
  // one slot. With the murmur finalizer and a table at most half full, the
  // longest linear-probe run over 676 alphabetic prefixes is 6 slots.
  const std::vector<uint64_t> hkeys = two_letter_prefixes();
  for (const uint64_t hk : hkeys) dir_.find_or_create(hk);
  for (const uint64_t hk : hkeys) ASSERT_NE(dir_.find(hk), nullptr);
  EXPECT_EQ(dir_.partition_count(), hkeys.size());
  EXPECT_LE(dir_.max_probe(), 12u);
}

TEST_F(HashDirTest, CapacityTracksPartitionCount) {
  EXPECT_EQ(dir_.capacity(), HashDir::kInitialCapacity);
  const std::vector<uint64_t> hkeys = two_letter_prefixes();
  for (const uint64_t hk : hkeys) dir_.find_or_create(hk);
  // Doubling past half full keeps the load in (1/4, 1/2].
  EXPECT_LE(dir_.capacity(), 4 * hkeys.size());
  EXPECT_GE(dir_.capacity(), 2 * hkeys.size());
  // Everything the directory holds is counted: shells, map nodes, and the
  // live table (the superseded ones add less than the live one).
  EXPECT_GE(dram_.load(), hkeys.size() * sizeof(HashDir::Partition) +
                              dir_.capacity() * sizeof(void*));
}

TEST(HashDirFootprint, FreshHartHoldsUnderFourKiB) {
  pmem::Arena arena(tiny());
  Hart h(arena);
  EXPECT_LT(h.memory_usage().dram_bytes, 4096u);
  EXPECT_EQ(h.directory_capacity(), HashDir::kInitialCapacity);
}

TEST(HashDirFootprint, DestroyAndClearReturnEveryByte) {
  pmem::Arena arena(tiny());
  std::atomic<uint64_t> dram{0};
  {
    HashDir dir(HartLeafTraits{2, &arena}, &dram);
    const uint64_t empty = dram.load();
    for (const uint64_t hk : two_letter_prefixes()) dir.find_or_create(hk);
    dir.clear();
    EXPECT_EQ(dram.load(), empty);
    EXPECT_EQ(dir.capacity(), HashDir::kInitialCapacity);
  }
  EXPECT_EQ(dram.load(), 0u);
}

TEST_F(HashDirTest, ClearRemovesEverything) {
  for (int i = 1; i <= 50; ++i)
    dir_.find_or_create(static_cast<uint64_t>(i) << 40);
  dir_.clear();
  EXPECT_EQ(dir_.partition_count(), 0u);
  EXPECT_EQ(dir_.find(uint64_t{5} << 40), nullptr);
}

}  // namespace
}  // namespace hart::core
