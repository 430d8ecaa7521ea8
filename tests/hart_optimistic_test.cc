// Stress tests for HART's optimistic lock-free read path (versioned ART
// nodes + epoch-based reclamation). Readers race writers that continuously
// grow, shrink and delete nodes in a SINGLE partition (shared 2-byte
// prefix), the worst case for the seqlock validation: every structural
// change and every value update bumps a version a reader may be
// validating against.
//
// Invariants checked:
//   * no torn reads — every returned value is internally consistent
//     (single repeated character, the writers only store such values);
//   * optimistic retries actually happen (art_optimistic_retry_total
//     moves) — the test is exercising contended validation, not an idle
//     fast path;
//   * frees are deferred through EBR (ebr_deferred_free_total moves) and
//     reclaimed on quiesce();
//   * multi_get and range agree with the same invariants under churn.
//
// Run under TSAN (HART_SANITIZE=thread) this doubles as the data-race
// proof for the whole read protocol; the CI tsan-stress job does exactly
// that.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "hart/hart.h"
#include "obs/counters.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(size_t mb = 256) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  return testutil::make_checked_arena(o);
}

uint64_t ctr(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Writers only ever store values that repeat one character; a read that
/// observes anything else is torn.
bool untorn(const std::string& v) {
  for (const char c : v)
    if (c != v.front()) return false;
  return !v.empty();
}

std::string churn_key(int i) { return "zz" + std::to_string(i); }

TEST(HartOptimistic, ReadersNeverSeeTornValuesUnderChurn) {
  auto arena = make_arena();
  Hart h(*arena);
  constexpr int kKeys = 512;
  for (int i = 0; i < kKeys; i += 2)
    ASSERT_EQ(h.insert(churn_key(i), std::string(8, 'a')), common::Status::kInserted);

  const uint64_t retries0 = ctr("art_optimistic_retry_total");
  const uint64_t deferred0 = ctr("ebr_deferred_free_total");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> hits{0};

  // Two writers churning one ART: inserts force NODE4->16->48 growth and
  // prefix splits, removes force shrink/collapse, updates swing value
  // pointers across size classes.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&h, &stop, w] {
      common::Rng rng(w * 31 + 7);
      int round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.next_below(kKeys));
        const std::string v(1 + (i + round) % 24,
                            static_cast<char>('a' + round % 26));
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            h.insert(churn_key(i), v);
            break;
          case 2:
            h.update(churn_key(i), v);
            break;
          default:
            h.remove(churn_key(i));
            break;
        }
        ++round;
      }
    });
  }

  // Six readers: point lookups, batched lookups, range scans.
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      common::Rng rng(t + 101);
      std::string v;
      std::vector<std::string> batch;
      std::vector<std::string> vals;
      std::vector<bool> found;
      std::vector<std::pair<std::string, std::string>> out;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.next_below(kKeys));
        if (h.search(churn_key(i), &v).ok()) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (!untorn(v)) torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (t % 3 == 0) {  // batched reads
          batch.clear();
          for (int j = 0; j < 16; ++j)
            batch.push_back(churn_key(static_cast<int>(
                rng.next_below(kKeys))));
          h.multi_get(batch, &vals, &found);
          for (size_t j = 0; j < batch.size(); ++j)
            if (found[j] && !untorn(vals[j]))
              torn.fetch_add(1, std::memory_order_relaxed);
        } else if (t % 3 == 1) {  // range scans must stay sorted + untorn
          h.range(churn_key(i), 32, &out);
          for (size_t j = 0; j < out.size(); ++j) {
            if (!untorn(out[j].second))
              torn.fetch_add(1, std::memory_order_relaxed);
            if (j > 0 && !(out[j - 1].first < out[j].first))
              torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Run until the contention counters prove the optimistic machinery was
  // exercised (typically milliseconds), hard cap 20s.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline &&
         (ctr("art_optimistic_retry_total") == retries0 ||
          ctr("ebr_deferred_free_total") == deferred0))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Let the race soak a little beyond the first retry.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0u) << "optimistic read returned a torn value";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(ctr("art_optimistic_retry_total"), retries0)
      << "no optimistic retry ever happened - the test exercised nothing";
  EXPECT_GT(ctr("ebr_deferred_free_total"), deferred0)
      << "no free was deferred through EBR";

  // Reclamation completes at quiesce: what is left live in the allocator
  // must match the surviving keys (no leak from the deferred frees).
  h.quiesce();
  size_t live = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string v;
    if (h.search(churn_key(i), &v).ok()) {
      ++live;
      EXPECT_TRUE(untorn(v));
    }
  }
  EXPECT_EQ(h.size(), live);

  // And recovery sees exactly the same state (EBR never touched PM
  // durability: retired slots were persistently freed eagerly).
  Hart h2(*arena);
  EXPECT_EQ(h2.size(), live);
}

TEST(HartOptimistic, EpochsAdvanceAndReclaimDram) {
  auto arena = make_arena(64);
  Hart h(*arena);
  const uint64_t advances0 = ctr("ebr_epoch_advance_total");
  // Enough churn to cycle several epochs (advance is attempted once a
  // retire batch fills).
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 2000; ++i)
      h.insert("ep" + std::to_string(i), std::string(8, 'x'));
    for (int i = 0; i < 2000; ++i) h.remove("ep" + std::to_string(i));
  }
  h.quiesce();
  EXPECT_GT(ctr("ebr_epoch_advance_total"), advances0);
  EXPECT_EQ(h.size(), 0u);
  // All retired PM slots were recycled by the drain.
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), 0u);
}

TEST(HartOptimistic, RwlockAblationServesSameContract) {
  auto arena = make_arena(64);
  Hart h(*arena, {.rwlock_reads = true});
  const uint64_t deferred0 = ctr("ebr_deferred_free_total");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread writer([&] {
    common::Rng rng(5);
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int i = static_cast<int>(rng.next_below(128));
      const std::string v(1 + i % 16, static_cast<char>('a' + round % 26));
      if (rng.next_below(3) == 0)
        h.remove(churn_key(i));
      else
        h.insert(churn_key(i), v);
      ++round;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      common::Rng rng(t + 40);
      std::string v;
      for (int n = 0; n < 20000; ++n)
        if (h.search(churn_key(static_cast<int>(rng.next_below(128))), &v).ok() &&
            !untorn(v))
          torn.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn.load(), 0u);
  // The ablation frees eagerly: nothing went through the EBR limbo.
  EXPECT_EQ(ctr("ebr_deferred_free_total"), deferred0);
}

}  // namespace
}  // namespace hart::core
