// Functional tests for the HART index: CRUD semantics, key splitting,
// range scans, recovery equivalence, and memory accounting.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hart/hart.h"
#include "hart/verify.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(size_t mb = 64) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.shadow = true;
  o.charge_alloc_persist = false;
  return testutil::make_checked_arena(o);
}

TEST(Hart, InsertSearchRoundTrip) {
  auto arena = make_arena();
  Hart h(*arena);
  EXPECT_EQ(h.insert("hello", "world"), common::Status::kInserted);
  std::string v;
  EXPECT_EQ(h.search("hello", &v), common::Status::kOk);
  EXPECT_EQ(v, "world");
  EXPECT_EQ(h.search("hell", &v), common::Status::kNotFound);
  EXPECT_EQ(h.search("hello!", &v), common::Status::kNotFound);
  EXPECT_EQ(h.size(), 1u);
}

TEST(Hart, InsertExistingKeyUpdates) {
  auto arena = make_arena();
  Hart h(*arena);
  EXPECT_EQ(h.insert("k", "v1"), common::Status::kInserted);
  EXPECT_EQ(h.insert("k", "v2"), common::Status::kUpdated) << "Alg.1 line 7-8: update, not insert";
  std::string v;
  EXPECT_EQ(h.search("k", &v), common::Status::kOk);
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(h.size(), 1u);
}

TEST(Hart, UpdateRequiresExistingKey) {
  auto arena = make_arena();
  Hart h(*arena);
  EXPECT_EQ(h.update("missing", "v"), common::Status::kNotFound);
  h.insert("present", "a");
  EXPECT_EQ(h.update("present", "b"), common::Status::kOk);
  std::string v;
  h.search("present", &v);
  EXPECT_EQ(v, "b");
}

TEST(Hart, UpdateAcrossValueSizeClasses) {
  auto arena = make_arena();
  Hart h(*arena);
  h.insert("k", "short");                  // 8-byte class
  EXPECT_EQ(h.update("k", "a-much-longer-v"), common::Status::kOk);  // 16-byte class
  std::string v;
  EXPECT_EQ(h.search("k", &v), common::Status::kOk);
  EXPECT_EQ(v, "a-much-longer-v");
  EXPECT_EQ(h.update("k", "x"), common::Status::kOk);  // back to the 8-byte class
  EXPECT_EQ(h.search("k", &v), common::Status::kOk);
  EXPECT_EQ(v, "x");
}

TEST(Hart, RemoveDeletesAndFreesPm) {
  auto arena = make_arena();
  Hart h(*arena);
  h.insert("a", "1");
  h.insert("b", "2");
  EXPECT_EQ(h.remove("a"), common::Status::kOk);
  EXPECT_EQ(h.remove("a"), common::Status::kNotFound);
  std::string v;
  EXPECT_EQ(h.search("a", &v), common::Status::kNotFound);
  EXPECT_EQ(h.search("b", &v), common::Status::kOk);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.remove("b"), common::Status::kOk);
  EXPECT_EQ(h.size(), 0u);
  // Freed slots are retired through EBR and recycled once a grace period
  // has passed; quiesce() drains the limbo lists deterministically.
  h.quiesce();
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), 0u);
}

TEST(Hart, KeysShorterThanHashPrefix) {
  auto arena = make_arena();
  Hart h(*arena, {.hash_key_len = 2});
  EXPECT_EQ(h.insert("a", "1"), common::Status::kInserted);
  EXPECT_EQ(h.insert("ab", "2"), common::Status::kInserted);
  EXPECT_EQ(h.insert("abc", "3"), common::Status::kInserted);
  std::string v;
  EXPECT_EQ(h.search("a", &v), common::Status::kOk);
  EXPECT_EQ(v, "1");
  EXPECT_EQ(h.search("ab", &v), common::Status::kOk);
  EXPECT_EQ(v, "2");
  EXPECT_EQ(h.search("abc", &v), common::Status::kOk);
  EXPECT_EQ(v, "3");
  EXPECT_EQ(h.remove("ab"), common::Status::kOk);
  EXPECT_EQ(h.search("a", &v), common::Status::kOk);
  EXPECT_EQ(h.search("abc", &v), common::Status::kOk);
}

TEST(Hart, DistinctPrefixesUseDistinctArts) {
  auto arena = make_arena();
  Hart h(*arena, {.hash_key_len = 2});
  h.insert("aa111", "1");
  h.insert("aa222", "2");
  h.insert("bb111", "3");
  h.insert("cc111", "4");
  EXPECT_EQ(h.partition_count(), 3u);
}

TEST(Hart, HashKeyLenZeroIsSingleArt) {
  auto arena = make_arena();
  Hart h(*arena, {.hash_key_len = 0});
  h.insert("alpha", "1");
  h.insert("beta", "2");
  h.insert("gamma", "3");
  EXPECT_EQ(h.partition_count(), 1u);
  std::string v;
  EXPECT_EQ(h.search("beta", &v), common::Status::kOk);
  EXPECT_EQ(v, "2");
}

TEST(Hart, RejectsInvalidKeysAndValues) {
  auto arena = make_arena();
  Hart h(*arena);
  const common::Status bad = common::Status::kInvalidArgument;
  EXPECT_EQ(h.insert("", "v"), bad);
  EXPECT_EQ(h.insert(std::string(25, 'x'), "v"), bad);
  EXPECT_EQ(h.insert(std::string("a\0b", 3), "v"), bad);
  EXPECT_EQ(h.insert("k", ""), bad);
  EXPECT_EQ(h.insert("k", std::string(65, 'v')), bad);
  // Rejection happens before any mutation.
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.search(std::string("a\0b", 3), nullptr), bad);
  EXPECT_EQ(h.update("", "v"), bad);
  EXPECT_EQ(h.remove(std::string(25, 'x')), bad);
  EXPECT_EQ(h.insert(std::string(24, 'x'), std::string(64, 'v')),
            common::Status::kInserted);
}

TEST(Hart, RangeScanIsOrderedAcrossPartitions) {
  auto arena = make_arena();
  Hart h(*arena, {.hash_key_len = 2});
  const std::vector<std::string> keys = {"aa1", "aa2", "ab1", "b",
                                         "ba9", "bb0", "zz9"};
  for (const auto& key : keys) h.insert(key, "v" + key);
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(h.range("ab", 100, &out), 5u);
  std::vector<std::string> got;
  for (auto& [key, value] : out) got.push_back(key);
  EXPECT_EQ(got,
            (std::vector<std::string>{"ab1", "b", "ba9", "bb0", "zz9"}));
  // Limit respected.
  EXPECT_EQ(h.range("aa1", 3, &out), 3u);
  EXPECT_EQ(out[0].first, "aa1");
  EXPECT_EQ(out[2].first, "ab1");
  // Values travel with keys.
  EXPECT_EQ(out[0].second, "vaa1");
}

TEST(Hart, RecoveryRebuildsIdenticalContents) {
  auto arena = make_arena();
  common::Rng rng(11);
  std::map<std::string, std::string> ref;
  {
    Hart h(*arena);
    for (int i = 0; i < 2000; ++i) {
      std::string key;
      const size_t len = 3 + rng.next_below(10);
      for (size_t j = 0; j < len; ++j)
        key.push_back(static_cast<char>('A' + rng.next_below(26)));
      std::string value = "v" + std::to_string(i);
      h.insert(key, value);
      ref[key] = value;
    }
    // Delete a quarter.
    int n = 0;
    for (auto it = ref.begin(); it != ref.end();) {
      if (++n % 4 == 0) {
        EXPECT_EQ(h.remove(it->first), common::Status::kOk);
        it = ref.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A second Hart on the same arena re-opens and recovers (Alg. 7).
  Hart h2(*arena);
  EXPECT_EQ(h2.size(), ref.size());
  for (const auto& [key, value] : ref) {
    std::string v;
    EXPECT_EQ(h2.search(key, &v), common::Status::kOk) << key;
    EXPECT_EQ(v, value) << key;
  }
  // Ordered scan equals the reference map order.
  std::vector<std::pair<std::string, std::string>> out;
  h2.range(ref.begin()->first, ref.size() + 10, &out);
  ASSERT_EQ(out.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [key, value] : out) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
}

TEST(Hart, MemoryUsageTracksBothTiers) {
  auto arena = make_arena();
  Hart h(*arena);
  const auto before = h.memory_usage();
  for (int i = 0; i < 1000; ++i)
    h.insert("key" + std::to_string(i), "value");
  const auto after = h.memory_usage();
  EXPECT_GT(after.dram_bytes, before.dram_bytes);
  EXPECT_GT(after.pm_bytes, before.pm_bytes);
}

TEST(Hart, PersistCallsPerInsertAreBounded) {
  // Selective persistence pins the write schedules exactly, never one
  // persist per touched internal node. On a warmed arena (no chunk is
  // created or recycled): insert = value, whole leaf, value bit, leaf bit;
  // update = new value, log record, new value bit, leaf tail, old value
  // bit, log reclaim; delete = leaf bit, value bit, p_value clear.
  auto arena = make_arena();
  Hart h(*arena);
  // Warm up: create the chunks, then free every other slot. No chunk can
  // empty below, and quiesce() makes the retired slots reusable.
  for (int i = 0; i < 400; ++i)
    h.insert("warm" + std::to_string(i), "v");
  for (int i = 0; i < 400; i += 2) h.remove("warm" + std::to_string(i));
  h.quiesce();
  auto persists_since = [&](uint64_t before) {
    return arena->stats().persist_calls.load() - before;
  };
  uint64_t before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; ++i)
    h.insert("probe" + std::to_string(i), "v");
  EXPECT_EQ(persists_since(before), 4u * 50);

  before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; ++i)
    h.update("probe" + std::to_string(i), "w");
  EXPECT_EQ(persists_since(before), 6u * 50);

  before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; i += 2)
    EXPECT_EQ(h.remove("probe" + std::to_string(i)), common::Status::kOk);
  EXPECT_EQ(persists_since(before), 3u * 25);

  // The inserted leaf is never read back from PM: an insert into an empty
  // partition has no other leaf to compare against, so it reads no line.
  const uint64_t lines = arena->stats().pm_read_lines.load();
  for (int i = 0; i < 26; ++i)
    h.insert(std::string{'Q', static_cast<char>('a' + i)} + "-fresh", "v");
  EXPECT_EQ(arena->stats().pm_read_lines.load() - lines, 0u);
}

TEST(Hart, UpdateLogSlotsNeverStraddleACacheLine) {
  // An update flushes its log record once, with PNewV stored last; that is
  // failure-atomic only if the 32-byte slot lies inside one cache line.
  for (const auto kind : {epalloc::AllocOptions::Kind::kStriped,
                          epalloc::AllocOptions::Kind::kLegacy}) {
    auto arena = make_arena();
    Hart::Options opts;
    opts.alloc.kind = kind;
    Hart h(*arena, opts);
    std::vector<epalloc::UpdateLog*> held;
    for (int i = 0; i < 16; ++i) {
      epalloc::UpdateLog* log = h.allocator().acquire_ulog();
      const uint64_t off = arena->off(log);
      EXPECT_EQ(off / pmem::kCacheLine,
                (off + sizeof(*log) - 1) / pmem::kCacheLine)
          << h.allocator().kind_name() << " slot at offset " << off;
      held.push_back(log);
    }
    for (auto* log : held) h.allocator().reclaim_ulog(log);
  }
}

TEST(Hart, RecoveryZeroesTornUpdateLogSlot) {
  // A torn LogReclaim can leave {pleaf = 0, pnewv = stale}. Recovery must
  // zero it: a surviving stale PNewV would complete the record of a later
  // update in this slot before that update's own flush.
  auto arena = make_arena();
  {
    Hart h(*arena);
    h.insert("key", "old");
    h.update("key", "new");
  }
  auto* root = arena->root<HartRoot>();
  epalloc::UpdateLog& slot = root->ep.ulogs[1];
  const uint64_t off = arena->off(&slot);
  ASSERT_NE(off / pmem::kCacheLine, (off + sizeof(slot) - 1) / pmem::kCacheLine)
      << "the crafted slot must be one that straddles a line";
  slot.poldv = 0x1000;
  slot.pnewv = 0x2000;
  slot.meta = epalloc::UpdateLog::pack_meta(3, epalloc::ObjType::kValue8,
                                            epalloc::ObjType::kValue8);
  arena->trace_store(&slot, sizeof(slot));
  arena->persist(&slot, sizeof(slot));

  Hart h(*arena);  // recovery
  EXPECT_EQ(slot.pleaf, 0u);
  EXPECT_EQ(slot.poldv, 0u);
  EXPECT_EQ(slot.pnewv, 0u);
  EXPECT_EQ(slot.meta, 0u);
  std::string v;
  EXPECT_EQ(h.search("key", &v), common::Status::kOk);
  EXPECT_EQ(v, "new");
  const auto report = verify_hart_image(*arena);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Hart, MultiGetGroupsByPartition) {
  auto arena = make_arena();
  Hart h(*arena);
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("mg" + std::to_string(i));
    h.insert(keys.back(), "v" + std::to_string(i));
  }
  // Interleave misses.
  std::vector<std::string> req;
  for (int i = 0; i < 500; i += 2) {
    req.push_back(keys[i]);
    req.push_back("absent" + std::to_string(i));
  }
  std::vector<std::string> vals;
  std::vector<bool> found;
  EXPECT_EQ(h.multi_get(req, &vals, &found), 250u);
  for (size_t i = 0; i < req.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(found[i]) << req[i];
      EXPECT_EQ(vals[i], "v" + req[i].substr(2));
    } else {
      EXPECT_FALSE(found[i]);
      EXPECT_TRUE(vals[i].empty());
    }
  }
}

TEST(Hart, MultiGetEmptyAndInvalid) {
  auto arena = make_arena();
  Hart h(*arena);
  std::vector<std::string> vals;
  std::vector<bool> found;
  EXPECT_EQ(h.multi_get({}, &vals, &found), 0u);
  // Invalid keys are plain misses in a batch — the valid entries still
  // come back (API v2: no exceptions from the read path).
  h.insert("ok", "v");
  EXPECT_EQ(h.multi_get({"", "ok", std::string(25, 'x')}, &vals, &found), 1u);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_FALSE(found[0]);
  EXPECT_TRUE(found[1]);
  EXPECT_EQ(vals[1], "v");
  EXPECT_FALSE(found[2]);
}

TEST(Hart, MultiGetAgreesWithSearch) {
  auto arena = make_arena();
  Hart h(*arena);
  common::Rng rng(21);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    std::string k;
    const size_t len = 2 + rng.next_below(10);
    for (size_t j = 0; j < len; ++j)
      k.push_back(static_cast<char>('a' + rng.next_below(20)));
    keys.push_back(k);
    h.insert(k, k.substr(0, 8));
  }
  std::vector<std::string> vals;
  std::vector<bool> found;
  h.multi_get(keys, &vals, &found);
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string v;
    const bool f = h.search(keys[i], &v).ok();
    EXPECT_EQ(f, static_cast<bool>(found[i])) << keys[i];
    if (f) {
      EXPECT_EQ(v, vals[i]);
    }
  }
}

}  // namespace
}  // namespace hart::core
