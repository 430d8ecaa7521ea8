// Concurrency tests for HART's per-ART reader/writer locking (paper
// Section III.A.3 / IV.G): parallel writers on disjoint and overlapping
// prefixes, readers concurrent with writers, and full-churn stress with
// post-hoc validation against a reference.
#include <gtest/gtest.h>

#include "checked_arena.h"
#include "hart_options.h"

#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "hart/hart.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(size_t mb = 256) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  return testutil::make_checked_arena(o);
}

TEST(HartConcurrent, ParallelInsertsDisjointPrefixes) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> threads;
  std::barrier sync(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      // Distinct 2-byte prefix per thread => distinct ART per thread.
      const std::string prefix = std::string(1, 'A' + t) + "x";
      for (int i = 0; i < kPerThread; ++i)
        ASSERT_EQ(h.insert(prefix + std::to_string(i), "v"), common::Status::kInserted);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.size(), static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    const std::string prefix = std::string(1, 'A' + t) + "x";
    for (int i = 0; i < kPerThread; i += 97)
      EXPECT_EQ(h.search(prefix + std::to_string(i), nullptr), common::Status::kOk);
  }
}

TEST(HartConcurrent, ParallelUpsertsSamePrefixSerialize) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
  constexpr int kThreads = 8;
  constexpr int kKeys = 200;
  std::vector<std::thread> threads;
  std::barrier sync(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int round = 0; round < 50; ++round)
        for (int i = 0; i < kKeys; ++i)
          h.insert("shared" + std::to_string(i),
                   "t" + std::to_string(t));  // same ART: writers serialize
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_EQ(h.search("shared" + std::to_string(i), &v), common::Status::kOk);
    EXPECT_EQ(v[0], 't') << "value must be one thread's write, not torn";
  }
}

TEST(HartConcurrent, ReadersRunDuringWrites) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
  const auto keys = workload::make_random(20000, 9);
  for (size_t i = 0; i < keys.size() / 2; ++i) h.insert(keys[i], "stable");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0}, misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      common::Rng rng(t + 1);
      std::string v;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& k = keys[rng.next_below(keys.size())];
        if (h.search(k, &v).ok()) {
          EXPECT_TRUE(v == "stable" || v == "fresh") << v;
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = keys.size() / 2 + t; i < keys.size(); i += 2)
        h.insert(keys[i], "fresh");
    });
  }
  for (auto& w : writers) w.join();
  stop = true;
  for (auto& r : readers) r.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(h.size(), keys.size());
  for (const auto& k : keys) EXPECT_EQ(h.search(k, nullptr), common::Status::kOk) << k;
}

TEST(HartConcurrent, FullChurnStressThenValidate) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
  constexpr int kThreads = 8;
  const auto keys = workload::make_random(8000, 123);
  // Each thread owns a disjoint slice of keys (the index itself still
  // shares ARTs across threads since prefixes collide).
  std::vector<std::thread> threads;
  std::vector<std::map<std::string, std::string>> finals(kThreads);
  std::barrier sync(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      common::Rng rng(t * 7 + 1);
      auto& mine = finals[t];
      for (int step = 0; step < 6000; ++step) {
        const size_t idx =
            t + kThreads * rng.next_below(keys.size() / kThreads);
        const std::string& k = keys[idx];
        switch (rng.next_below(4)) {
          case 0:
          case 1: {
            const std::string v = "v" + std::to_string(step % 101);
            h.insert(k, v);
            mine[k] = v;
            break;
          }
          case 2: {
            if (h.update(k, "u" + std::to_string(step % 101)).ok())
              mine[k] = "u" + std::to_string(step % 101);
            break;
          }
          default:
            h.remove(k);
            mine.erase(k);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  size_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    total += finals[t].size();
    for (const auto& [k, v] : finals[t]) {
      std::string got;
      ASSERT_EQ(h.search(k, &got), common::Status::kOk) << k;
      EXPECT_EQ(got, v) << k;
    }
  }
  EXPECT_EQ(h.size(), total);

  // And the whole thing still recovers to the same state.
  Hart h2(*arena, testutil::hart_options());
  EXPECT_EQ(h2.size(), total);
  for (int t = 0; t < kThreads; ++t)
    for (const auto& [k, v] : finals[t]) {
      std::string got;
      ASSERT_EQ(h2.search(k, &got), common::Status::kOk) << k;
      EXPECT_EQ(got, v) << k;
    }
}

TEST(HartConcurrent, ConcurrentRangeScans) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
  const auto keys = workload::make_sequential(5000);
  for (const auto& k : keys) h.insert(k, "v");
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<std::string, std::string>> out;
      for (int round = 0; round < 20; ++round) {
        const size_t start = (t * 331 + round * 97) % (keys.size() - 200);
        ASSERT_EQ(h.range(keys[start], 100, &out), 100u);
        for (size_t i = 0; i < 100; ++i)
          EXPECT_EQ(out[i].first, keys[start + i]);
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace hart::core
