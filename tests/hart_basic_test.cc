// Functional tests for the HART index: CRUD semantics, key splitting,
// range scans, recovery equivalence, and memory accounting.
#include <gtest/gtest.h>

#include "checked_arena.h"
#include "hart_options.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
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
  return testutil::make_checked_arena(o);
}

TEST(Hart, InsertSearchRoundTrip) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options());
  EXPECT_EQ(h.insert("k", "v1"), common::Status::kInserted);
  EXPECT_EQ(h.insert("k", "v2"), common::Status::kUpdated) << "Alg.1 line 7-8: update, not insert";
  std::string v;
  EXPECT_EQ(h.search("k", &v), common::Status::kOk);
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(h.size(), 1u);
}

TEST(Hart, UpdateRequiresExistingKey) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
  EXPECT_EQ(h.update("missing", "v"), common::Status::kNotFound);
  h.insert("present", "a");
  EXPECT_EQ(h.update("present", "b"), common::Status::kOk);
  std::string v;
  h.search("present", &v);
  EXPECT_EQ(v, "b");
}

TEST(Hart, UpdateAcrossValueSizeClasses) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options({.hash_key_len = 2}));
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
  Hart h(*arena, testutil::hart_options({.hash_key_len = 2}));
  h.insert("aa111", "1");
  h.insert("aa222", "2");
  h.insert("bb111", "3");
  h.insert("cc111", "4");
  EXPECT_EQ(h.partition_count(), 3u);
}

TEST(Hart, HashKeyLenZeroIsSingleArt) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options({.hash_key_len = 0}));
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
  Hart h(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options({.hash_key_len = 2}));
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
    Hart h(*arena, testutil::hart_options());
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
  Hart h2(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options());
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
  // created or recycled): insert = value, whole leaf, leaf bit; update =
  // new value, value word (no log); delete = leaf bit. Value objects have
  // no persistent bit to set or clear.
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
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
  EXPECT_EQ(persists_since(before), 3u * 50);

  before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; ++i)
    h.update("probe" + std::to_string(i), "w");
  EXPECT_EQ(persists_since(before), 2u * 50);

  before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; i += 2)
    EXPECT_EQ(h.remove("probe" + std::to_string(i)), common::Status::kOk);
  EXPECT_EQ(persists_since(before), 1u * 25);

  // The inserted leaf is never read back from PM: an insert into an empty
  // partition has no other leaf to compare against, so it reads no line.
  const uint64_t lines = arena->stats().pm_read_lines.load();
  for (int i = 0; i < 26; ++i)
    h.insert(std::string{'Q', static_cast<char>('a' + i)} + "-fresh", "v");
  EXPECT_EQ(arena->stats().pm_read_lines.load() - lines, 0u);
}

TEST(Hart, FlushedLinesPerOpAreBounded) {
  // The PM write delta is charged per flushed line. Every PM object sits
  // in one cache line, so on a warmed arena an insert flushes exactly
  // three lines (value, leaf, leaf bit), an update two (new value, value
  // word) and a delete one (leaf bit). A deferred-latency arena banks each
  // line's write delta, so the owed time counts the lines; PM reads add
  // nothing (read latency equals DRAM's).
  pmem::Arena::Options o;
  o.size = 64 << 20;
  o.latency = pmem::LatencyConfig::c300_100();
  o.defer_latency = true;
  pmem::Arena arena(o);
  const uint64_t line_ns = o.latency.extra_write_ns();
  ASSERT_GT(line_ns, 0u);
  Hart h(arena, testutil::hart_options());
  // Warm up the leaf, 8-byte and 64-byte value chunks (64-byte values
  // used to straddle two lines), then free every other slot of each.
  const std::string v64(64, 'x');
  for (int i = 0; i < 400; ++i)
    h.insert("warm" + std::to_string(i), i % 4 < 2 ? "v" : v64);
  for (int i = 0; i < 400; i += 2) h.remove("warm" + std::to_string(i));
  h.quiesce();
  auto lines_since = [&](uint64_t start) {
    const uint64_t owed = arena.owed_latency_ns() - start;
    EXPECT_EQ(owed % line_ns, 0u);
    return owed / line_ns;
  };
  uint64_t owed = arena.owed_latency_ns();
  for (int i = 0; i < 50; ++i)
    h.insert("probe" + std::to_string(i), i % 2 == 0 ? "v" : v64);
  EXPECT_EQ(lines_since(owed), 3u * 50);

  owed = arena.owed_latency_ns();
  for (int i = 0; i < 50; ++i)
    h.update("probe" + std::to_string(i), i % 2 == 0 ? v64 : "w");
  EXPECT_EQ(lines_since(owed), 2u * 50);

  owed = arena.owed_latency_ns();
  for (int i = 0; i < 50; i += 2)
    EXPECT_EQ(h.remove("probe" + std::to_string(i)), common::Status::kOk);
  EXPECT_EQ(lines_since(owed), 1u * 25);
}

TEST(Hart, BatchedMetadataUpdateCostsTwoPersists) {
  // An update persists only its new value and its value word, in either
  // metadata schedule: no chunk header changes, so the next fence has no
  // deferred header to flush and persists only the epoch stamp.
  auto arena = make_arena();
  Hart::Options opts = testutil::hart_options();
  opts.alloc.batched_meta = true;
  Hart h(*arena, opts);
  // Warm up as above, so no update needs a fresh chunk.
  for (int i = 0; i < 400; ++i)
    h.insert("warm" + std::to_string(i), "v");
  for (int i = 0; i < 400; i += 2) h.remove("warm" + std::to_string(i));
  h.quiesce();
  for (int i = 0; i < 50; ++i) h.insert("probe" + std::to_string(i), "v");
  h.flush_epoch();
  const uint64_t before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(h.update("probe" + std::to_string(i), "w"), common::Status::kOk);
  EXPECT_EQ(arena->stats().persist_calls.load() - before, 2u * 50);
  const uint64_t fence = arena->stats().persist_calls.load();
  h.flush_epoch();
  EXPECT_EQ(arena->stats().persist_calls.load() - fence, 1u);
  std::string v;
  EXPECT_EQ(h.search("probe7", &v), common::Status::kOk);
  EXPECT_EQ(v, "w");
}

TEST(Hart, BatchedDeleteCostsOneEagerPersist) {
  // A delete's one persist, the leaf bit's clear, stays eager under
  // batched metadata: the freed value slot is reusable at once, and a
  // re-insert of the key must never recover beside the old leaf. Nothing
  // is left for the fence but the epoch stamp.
  auto arena = make_arena();
  Hart::Options opts = testutil::hart_options();
  opts.alloc.batched_meta = true;
  Hart h(*arena, opts);
  for (int i = 0; i < 400; ++i)
    h.insert("warm" + std::to_string(i), "v");
  for (int i = 0; i < 400; i += 2) h.remove("warm" + std::to_string(i));
  h.quiesce();
  for (int i = 0; i < 50; ++i) h.insert("probe" + std::to_string(i), "v");
  h.flush_epoch();
  const uint64_t before = arena->stats().persist_calls.load();
  for (int i = 0; i < 50; i += 2)
    ASSERT_EQ(h.remove("probe" + std::to_string(i)), common::Status::kOk);
  EXPECT_EQ(arena->stats().persist_calls.load() - before, 1u * 25);
  const uint64_t fence = arena->stats().persist_calls.load();
  h.flush_epoch();
  EXPECT_EQ(arena->stats().persist_calls.load() - fence, 1u);
  EXPECT_EQ(h.search("probe0", nullptr), common::Status::kNotFound);
  EXPECT_EQ(h.search("probe1", nullptr), common::Status::kOk);
}

TEST(Hart, MultiGetGroupsByPartition) {
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options());
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
  Hart h(*arena, testutil::hart_options());
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

TEST(Hart, ArenaExhaustionIsATypedRefusal) {
  // A 64 KiB arena fills after a few hundred keys. Exhaustion must come
  // back as kOutOfMemory with nothing mutated, and freed space must be
  // usable again.
  pmem::Arena::Options o;
  o.size = size_t{64} << 10;
  auto arena = testutil::make_checked_arena(o);
  Hart h(*arena, testutil::hart_options());
  auto key = [](int i) { return "oom-" + std::to_string(i); };
  auto live = [&h] {
    std::vector<uint64_t> n;
    for (int t = 0; t < epalloc::kNumObjTypes; ++t)
      n.push_back(
          h.allocator().live_objects(static_cast<epalloc::ObjType>(t)));
    return n;
  };

  // 8-byte values only, so no 64-byte value chunk exists yet.
  int stored = 0;
  common::Status s = common::Status::kInserted;
  for (; stored < 100000; ++stored) {
    const auto before = live();
    s = h.insert(key(stored), "v" + std::to_string(stored % 1000));
    if (s != common::Status::kInserted) {
      EXPECT_EQ(live(), before) << "a refused insert left a committed slot";
      break;
    }
  }
  ASSERT_EQ(s, common::Status::kOutOfMemory);
  ASSERT_GT(stored, 100);
  EXPECT_EQ(h.size(), static_cast<size_t>(stored));
  EXPECT_EQ(h.search(key(stored), nullptr), common::Status::kNotFound);
  for (int i = 0; i < stored; ++i) {
    std::string v;
    ASSERT_EQ(h.search(key(i), &v), common::Status::kOk) << key(i);
    EXPECT_EQ(v, "v" + std::to_string(i % 1000));
  }
  const auto full = live();
  EXPECT_EQ(full[0], static_cast<uint64_t>(stored));
  {
    const VerifyReport rep = verify_hart_image(*arena);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.live_leaves, static_cast<uint64_t>(stored));
  }

  // An update into the empty 64-byte class needs a new chunk: refused, and
  // the old value stays.
  EXPECT_EQ(h.update(key(3), std::string(64, 'x')),
            common::Status::kOutOfMemory);
  EXPECT_EQ(h.insert(key(3), std::string(64, 'x')),
            common::Status::kOutOfMemory);
  std::string v;
  ASSERT_EQ(h.search(key(3), &v), common::Status::kOk);
  EXPECT_EQ(v, "v3");
  EXPECT_EQ(live(), full);
  EXPECT_TRUE(verify_hart_image(*arena).ok());

  // Free a hundred keys; once their grace period is over the refused key
  // fits again.
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(h.remove(key(i)), common::Status::kOk);
  h.quiesce();
  EXPECT_EQ(h.insert(key(stored), "late"), common::Status::kInserted);
  ASSERT_EQ(h.search(key(stored), &v), common::Status::kOk);
  EXPECT_EQ(v, "late");
  EXPECT_EQ(h.size(), static_cast<size_t>(stored - 100 + 1));
  const VerifyReport rep = verify_hart_image(*arena);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.live_leaves, static_cast<uint64_t>(stored - 100 + 1));
}

TEST(Hart, TestOptionsSelectTheBuildsStripeCount) {
  // The one-stripe build must really run one stripe; otherwise its legs
  // silently repeat the default build's.
  auto arena = make_arena();
  Hart h(*arena, testutil::hart_options());
#ifdef HART_TEST_ONE_STRIPE
  EXPECT_EQ(h.allocator().stripe_count(), 1u);
#else
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(h.allocator().stripe_count(), hw == 0 ? 4u : std::min(hw, 8u));
#endif
}

}  // namespace
}  // namespace hart::core
