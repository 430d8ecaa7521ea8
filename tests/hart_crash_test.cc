// Crash-consistency property tests for HART (DESIGN.md Section 4): sweep a
// simulated crash across every persist point of insert / update / delete
// streams, recover (Algorithm 7 + the micro-log case analyses), and check:
//   1. committed keys are present with their committed values;
//   2. uncommitted keys are absent;
//   3. leak freedom: live PM bytes equal exactly the reachable chunks;
//   4. the index stays fully functional afterwards.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "hart/hart.h"
#include "hart/verify.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(double eviction_prob = 0.0,
                                        uint64_t seed = 1) {
  pmem::Arena::Options o;
  o.size = size_t{64} << 20;
  o.shadow = true;
  o.charge_alloc_persist = false;
  o.eviction_prob = eviction_prob;
  o.crash_seed = seed;
  return testutil::make_checked_arena(o);
}

/// Live PM bytes must equal the bytes of the chunks reachable from the
/// three chunk lists — i.e. nothing leaked, nothing double-freed.
void expect_leak_free(const Hart& h, const pmem::Arena& arena) {
  uint64_t expected = 0;
  for (auto t : {epalloc::ObjType::kLeaf, epalloc::ObjType::kValue8,
                 epalloc::ObjType::kValue16, epalloc::ObjType::kValue32,
                 epalloc::ObjType::kValue64}) {
    expected +=
        h.allocator().chunk_count(t) * h.allocator().geom(t).chunk_bytes;
  }
  EXPECT_EQ(arena.stats().pm_live_bytes.load(), expected);
}

TEST(HartCrash, InsertSweep) {
  const auto keys = workload::make_random(300, 77, 4, 12);
  for (uint64_t crash_at = 1; crash_at <= 350; crash_at += 11) {
    auto arena = make_arena();
    size_t committed = 0;
    {
      Hart h(*arena);
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          h.insert(k, "val-" + k.substr(0, 4));
          ++committed;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    Hart h2(*arena);  // recovery (Algorithm 7)
    EXPECT_GE(h2.size(), committed);
    EXPECT_LE(h2.size(), committed + 1);
    for (size_t i = 0; i < committed; ++i) {
      std::string v;
      ASSERT_EQ(h2.search(keys[i], &v), common::Status::kOk)
          << "crash_at=" << crash_at << " key=" << keys[i];
      EXPECT_EQ(v, "val-" + keys[i].substr(0, 4));
    }
    expect_leak_free(h2, *arena);
    // Still fully functional.
    for (const auto& k : keys) h2.insert(k, "after");
    EXPECT_EQ(h2.size(), keys.size());
    for (const auto& k : keys) {
      std::string v;
      ASSERT_EQ(h2.search(k, &v), common::Status::kOk);
      EXPECT_EQ(v, "after");
    }
  }
}

TEST(HartCrash, UpdateSweepHonorsLogCases) {
  const auto keys = workload::make_random(120, 5, 4, 10);
  for (uint64_t crash_at = 1; crash_at <= 200; crash_at += 7) {
    auto arena = make_arena();
    size_t updated = 0;
    {
      Hart h(*arena);
      for (const auto& k : keys) h.insert(k, "old");
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          h.update(k, "new-value-16byte");
          ++updated;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    Hart h2(*arena);
    EXPECT_EQ(h2.size(), keys.size()) << "updates never change the key set";
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string v;
      ASSERT_EQ(h2.search(keys[i], &v), common::Status::kOk)
          << "crash_at=" << crash_at << " " << keys[i];
      if (i < updated) {
        EXPECT_EQ(v, "new-value-16byte") << "committed update lost";
      } else if (i > updated) {
        EXPECT_EQ(v, "old") << "uncommitted update became visible";
      } else {
        // The mid-crash update may have landed either way (Alg. 3 recovery
        // redoes from line 7 when all three pointers were valid) — but it
        // must be one of the two values, never torn.
        EXPECT_TRUE(v == "old" || v == "new-value-16byte") << v;
      }
    }
    expect_leak_free(h2, *arena);
  }
}

TEST(HartCrash, DeleteSweep) {
  const auto keys = workload::make_random(150, 31, 4, 10);
  for (uint64_t crash_at = 1; crash_at <= 150; crash_at += 7) {
    auto arena = make_arena();
    size_t removed = 0;
    {
      Hart h(*arena);
      for (const auto& k : keys) h.insert(k, "v");
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          h.remove(k);
          ++removed;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    Hart h2(*arena);
    for (size_t i = 0; i < keys.size(); ++i) {
      const bool found = h2.search(keys[i], nullptr).ok();
      if (i < removed) {
        EXPECT_FALSE(found) << "crash_at=" << crash_at << " " << keys[i];
      } else if (i > removed) {
        EXPECT_TRUE(found) << "crash_at=" << crash_at << " " << keys[i];
      }
    }
    expect_leak_free(h2, *arena);
    // Reinsert everything; dangling values from the crashed delete are
    // reclaimed lazily by EPMalloc's stale-value check.
    for (const auto& k : keys) h2.insert(k, "again");
    EXPECT_EQ(h2.size(), keys.size());
    expect_leak_free(h2, *arena);
  }
}

TEST(HartCrash, MixedChurnSweepWithEviction) {
  // Random op mix with a cache-eviction-prone crash model (dirty lines may
  // survive): recovery must still satisfy the committed-state contract for
  // completed operations.
  const auto keys = workload::make_random(200, 13, 4, 10);
  for (uint64_t crash_at = 5; crash_at <= 400; crash_at += 31) {
    auto arena = make_arena(0.5, crash_at);
    std::map<std::string, std::string> committed;
    std::string pending_key;    // key targeted by the op in flight at crash
    std::string pending_value;  // its would-be value ("" for a delete)
    {
      Hart h(*arena);
      common::Rng rng(crash_at);
      arena->arm_crash_after(crash_at);
      try {
        for (int step = 0; step < 500; ++step) {
          const std::string& k = keys[rng.next_below(keys.size())];
          switch (rng.next_below(3)) {
            case 0: {
              const std::string v = "v" + std::to_string(step);
              pending_key = k;
              pending_value = v;
              h.insert(k, v);
              committed[k] = v;
              break;
            }
            case 1: {
              pending_key = k;
              pending_value = "u" + std::to_string(step);
              if (h.update(k, pending_value).ok()) committed[k] = pending_value;
              break;
            }
            default:
              pending_key = k;
              pending_value.clear();
              h.remove(k);
              committed.erase(k);
              break;
          }
          pending_key.clear();
        }
        arena->disarm_crash();
        pending_key.clear();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    Hart h2(*arena);
    // Every committed entry must be present with its exact value — except
    // the key of the one in-flight op, which may legitimately reflect
    // either the old committed state or the in-flight op's effect (and
    // nothing else: never a torn value).
    for (const auto& [k, v] : committed) {
      std::string got;
      const bool found = h2.search(k, &got).ok();
      if (k == pending_key) {
        if (pending_value.empty()) {  // in-flight delete
          EXPECT_TRUE(!found || got == v) << k;
        } else {
          ASSERT_TRUE(found) << k;
          EXPECT_TRUE(got == v || got == pending_value)
              << k << " got " << got;
        }
      } else {
        ASSERT_TRUE(found) << "crash_at=" << crash_at << " " << k;
        EXPECT_EQ(got, v) << k;
      }
    }
    expect_leak_free(h2, *arena);
  }
}

TEST(HartCrash, StaleLeafRefNeverReclaimsALiveValue) {
  // An insert that crashes after its leaf flush but before its value bit
  // leaves a free leaf slot whose p_value names a value slot recovery
  // treats as free. If an update then re-allocates that value slot and an
  // insert re-allocates the leaf slot, the stale-value probe must not
  // reclaim the updated key's live value.
  for (uint64_t crash_at = 1; crash_at <= 4; ++crash_at) {
    auto arena = make_arena();
    {
      Hart h(*arena);
      h.insert("k3", "old");
      arena->arm_crash_after(crash_at);
      try {
        h.insert("k1", "v1");
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    Hart h2(*arena);
    ASSERT_EQ(h2.update("k3", "new"), common::Status::kOk);
    ASSERT_EQ(h2.insert("k4", "v4"), common::Status::kInserted);
    ASSERT_EQ(h2.insert("k5", "v5"), common::Status::kInserted);
    std::string v;
    ASSERT_EQ(h2.search("k3", &v), common::Status::kOk);
    EXPECT_EQ(v, "new") << "crash_at=" << crash_at;
    const VerifyReport rep = verify_hart_image(*arena);
    EXPECT_TRUE(rep.ok()) << "crash_at=" << crash_at << ": " << rep.summary();
    expect_leak_free(h2, *arena);
  }
}

TEST(HartCrash, RepeatedCrashesDuringRecovery) {
  // Crash during recovery itself (replaying the update log), then recover
  // again: recovery must be idempotent.
  const auto keys = workload::make_random(60, 3, 4, 10);
  auto arena = make_arena();
  {
    Hart h(*arena);
    for (const auto& k : keys) h.insert(k, "old");
    arena->arm_crash_after(40);
    try {
      for (const auto& k : keys) h.update(k, "new-value-16byte");
      arena->disarm_crash();
    } catch (const pmem::CrashPoint&) {
      arena->crash();
    }
  }
  // First recovery attempt crashes partway through.
  for (uint64_t k = 1; k <= 5; ++k) {
    arena->arm_crash_after(k);
    try {
      Hart h(*arena);
      arena->disarm_crash();
      break;  // recovery completed
    } catch (const pmem::CrashPoint&) {
      arena->crash();
    }
  }
  arena->disarm_crash();
  Hart h2(*arena);
  EXPECT_EQ(h2.size(), keys.size());
  for (const auto& k : keys) {
    std::string v;
    ASSERT_EQ(h2.search(k, &v), common::Status::kOk) << k;
    EXPECT_TRUE(v == "old" || v == "new-value-16byte");
  }
  expect_leak_free(h2, *arena);
}

}  // namespace
}  // namespace hart::core
