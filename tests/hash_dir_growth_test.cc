// Concurrent HashDir growth vs readers: partitions are only ever added
// (never reclaimed), the open-addressing table doubles under the directory
// mutex while find() probes without a lock, and the ordered map is what
// ordered iteration sees. These tests pin down the reader-visible
// guarantees while writers grow the directory:
//   * find_or_create is idempotent and race-safe (one partition per hkey);
//   * a lock-free find() never loses a published partition across table
//     doublings, and never returns another hash key's partition;
//   * an ordered iteration always sees a sorted, duplicate-free snapshot;
//   * iterations are monotone: once a completed pass saw a partition,
//     every later pass sees it too;
//   * at the Hart level, range() stays consistent while inserts create
//     new hash prefixes (= new partitions) underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hart/hart.h"
#include "hart/hash_dir.h"
#include "pmem/arena.h"

namespace hart::core {
namespace {

TEST(HashDirGrowthTest, FindOrCreateRaceYieldsOnePartitionPerKey) {
  HashDir dir(HartLeafTraits{}, nullptr);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 512;
  std::vector<HashDir::Partition*> first(kKeys, nullptr);
  std::vector<std::thread> pool;
  std::atomic<bool> go{false};
  std::vector<std::vector<HashDir::Partition*>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      seen[t].resize(kKeys);
      while (!go.load()) {
      }
      // Every thread creates every key: heavy same-key contention.
      for (uint64_t k = 0; k < kKeys; ++k)
        seen[t][k] = dir.find_or_create(k * 7919 + 1);
    });
  }
  go.store(true);
  for (auto& th : pool) th.join();
  for (uint64_t k = 0; k < kKeys; ++k)
    for (int t = 1; t < kThreads; ++t)
      ASSERT_EQ(seen[t][k], seen[0][k])
          << "two partitions materialized for the same hash key";
  EXPECT_EQ(dir.partition_count(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k)
    EXPECT_EQ(dir.find(k * 7919 + 1), seen[0][k]);
}

TEST(HashDirGrowthTest, LockFreeFindSurvivesDoublings) {
  // One writer creates all 3,844 base-62 two-byte prefixes: the table
  // doubles from 16 to 8,192 slots on the way. Each reader pass snapshots
  // how many prefixes were published, then finds every one of them.
  const std::string_view a =
      "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
  std::vector<uint64_t> hkeys;
  for (const char x : a)
    for (const char y : a) hkeys.push_back(pack_hash_key(std::string{x, y}, 2));
  HashDir dir(HartLeafTraits{}, nullptr);
  std::atomic<size_t> published{0};
  std::atomic<size_t> misses{0}, wrong{0}, passes{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (;;) {
        const size_t n = published.load(std::memory_order_acquire);
        for (size_t i = 0; i < n; ++i) {
          const HashDir::Partition* p = dir.find(hkeys[i]);
          if (p == nullptr) {
            misses.fetch_add(1, std::memory_order_relaxed);
          } else if (p->hkey != hkeys[i]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
        passes.fetch_add(1, std::memory_order_relaxed);
        if (n == hkeys.size()) return;
      }
    });
  }
  for (size_t i = 0; i < hkeys.size(); ++i) {
    dir.find_or_create(hkeys[i]);
    published.store(i + 1, std::memory_order_release);
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u) << "a published prefix went missing";
  EXPECT_EQ(wrong.load(), 0u) << "find() returned another prefix's partition";
  EXPECT_GE(passes.load(), 3u);
  EXPECT_EQ(dir.partition_count(), hkeys.size());
  EXPECT_EQ(dir.capacity(), size_t{8192});
}

TEST(HashDirGrowthTest, OrderedIterationStaysSortedAndMonotone) {
  HashDir dir(HartLeafTraits{}, nullptr);
  constexpr uint64_t kKeys = 4000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> created{0};

  std::thread writer([&] {
    for (uint64_t k = 1; k <= kKeys; ++k) {
      // Shuffled creation order so the sorted view is really doing work.
      dir.find_or_create((k * 48271) % 65537);
      created.store(k, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  size_t passes = 0;
  std::set<uint64_t> prev;
  while (!done.load(std::memory_order_acquire) || passes < 3) {
    const uint64_t floor_count = created.load(std::memory_order_acquire);
    std::set<uint64_t> pass;
    uint64_t last = 0;
    bool sorted = true;
    dir.for_each_partition([&](HashDir::Partition* p) {
      sorted = sorted && (pass.empty() || p->hkey > last);
      last = p->hkey;
      pass.insert(p->hkey);
      return true;
    });
    ASSERT_TRUE(sorted) << "iteration produced out-of-order hash keys";
    // Everything created before the pass started must be visible...
    ASSERT_GE(pass.size(), floor_count);
    // ...and growth is monotone across passes.
    for (const uint64_t k : prev)
      ASSERT_TRUE(pass.count(k) != 0)
          << "partition " << k << " vanished between iterations";
    prev = std::move(pass);
    ++passes;
  }
  writer.join();
  EXPECT_EQ(dir.partition_count(), kKeys);
  EXPECT_GE(passes, 3u);
}

TEST(HashDirGrowthTest, HartRangeConsistentDuringPrefixGrowth) {
  pmem::Arena::Options ao;
  ao.size = size_t{64} << 20;
  pmem::Arena arena(ao);
  Hart h(arena);

  // Writer: every key has a fresh 2-byte prefix, so each insert creates a
  // new partition (and the directory doubles seven times) while the reader
  // is mid-scan.
  constexpr int kKeys = 26 * 26;
  std::atomic<int> inserted{0};
  std::thread writer([&] {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key{static_cast<char>('a' + i / 26),
                            static_cast<char>('a' + i % 26), 'x'};
      ASSERT_EQ(h.insert(key, "v"), common::Status::kInserted);
      inserted.store(i + 1, std::memory_order_release);
    }
  });

  while (inserted.load(std::memory_order_acquire) < kKeys) {
    const int floor_count = inserted.load(std::memory_order_acquire);
    std::vector<std::pair<std::string, std::string>> out;
    h.range("a", kKeys + 10, &out);
    // Snapshot consistency: sorted, duplicate-free, values intact, and at
    // least everything inserted before the scan began.
    ASSERT_GE(out.size(), static_cast<size_t>(floor_count));
    for (size_t i = 0; i < out.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(out[i - 1].first, out[i].first);
      }
      ASSERT_EQ(out[i].second, "v");
    }
  }
  writer.join();
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(h.range("a", kKeys + 10, &out), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace hart::core
