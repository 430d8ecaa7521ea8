// Fingerprint-guard tests (Hart::Options::fingerprints): the one-byte key
// fingerprint rides in the tagged leaf pointer (DRAM only; PM holds no
// copy). The guard must (a) never produce a false negative — a colliding
// fingerprint still resolves through the full key compare; (b) actually
// skip the PM key read on guarded misses; (c) survive a restart, with
// recovery deriving every tag from the leaf's key bytes and writing
// nothing to PM.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "art/art_tree.h"
#include "common/rng.h"
#include "hart/hart.h"
#include "hart/verify.h"
#include "obs/counters.h"

namespace hart::core {
namespace {

art::Key suffix_key(const std::string& key, uint32_t kh) {
  const size_t skip = kh < key.size() ? kh : key.size();
  return {reinterpret_cast<const uint8_t*>(key.data()) + skip,
          key.size() - skip};
}

/// Random NUL-free keys, 5..20 bytes, all distinct.
std::vector<std::string> random_keys(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::set<std::string> out;
  while (out.size() < n) {
    std::string key(5 + rng.next() % 16, '\0');
    for (auto& c : key) c = static_cast<char>('!' + rng.next() % 94);
    out.insert(std::move(key));
  }
  return {out.begin(), out.end()};
}

pmem::Arena::Options small_arena() {
  pmem::Arena::Options o;
  o.size = 32 << 20;
  return o;
}

TEST(HartFingerprint, FingerprintIsNeverZero) {
  // 0 is the "no fingerprint" sentinel in both the tagged pointer and the
  // persisted byte; the derivation must never collide with it.
  for (const auto& key : random_keys(5000, 17))
    EXPECT_NE(art::key_fingerprint(suffix_key(key, 0)), 0) << key;
  EXPECT_NE(art::key_fingerprint(art::Key{}), 0) << "empty suffix";
}

/// 200 keys of the "QQ" partition whose fingerprint differs from `live`'s:
/// searching them with the guard on must read no PM line when `live` is
/// the partition's only key.
std::vector<std::string> guarded_probes(const std::string& live) {
  std::vector<std::string> probes;
  const uint8_t live_fp = art::key_fingerprint(suffix_key(live, 2));
  for (uint64_t i = 0; probes.size() < 200; ++i) {
    std::string cand = "QQprobe-" + std::to_string(i);
    if (art::key_fingerprint(suffix_key(cand, 2)) != live_fp)
      probes.push_back(std::move(cand));
  }
  return probes;
}

/// PM lines read by searching every probe (each must miss).
uint64_t probe_read_lines(const Hart& h, const pmem::Arena& arena,
                          const std::vector<std::string>& probes) {
  const uint64_t before =
      arena.stats().pm_read_lines.load(std::memory_order_relaxed);
  std::string v;
  for (const auto& p : probes)
    EXPECT_EQ(h.search(p, &v).code(), common::Status::kNotFound) << p;
  return arena.stats().pm_read_lines.load(std::memory_order_relaxed) -
         before;
}

TEST(HartFingerprint, RecoveryDerivesTagsFromKeyBytesAndPersistsNothing) {
  // PM holds no fingerprint: recovery re-tags every leaf from its key
  // bytes and writes nothing. A wrong tag would turn a hit into a miss, an
  // unset one would make guarded misses read PM.
  pmem::Arena arena(small_arena());
  Hart h(arena);
  const std::string live = "QQresident-key";
  auto keys = random_keys(500, 3);
  keys.push_back(live);
  for (const auto& key : keys) ASSERT_TRUE(h.insert(key, "v").ok());
  const auto probes = guarded_probes(live);
  for (const unsigned threads : {1u, 4u}) {
    const uint64_t persists = arena.persist_count();
    h.recover(threads);
    EXPECT_EQ(arena.persist_count(), persists) << threads << " threads";
    std::string v;
    for (const auto& key : keys) EXPECT_TRUE(h.search(key, &v).ok()) << key;
    EXPECT_EQ(probe_read_lines(h, arena, probes), 0u) << threads;
  }
  EXPECT_TRUE(verify_hart_image(arena).ok());
}

TEST(HartFingerprint, CollidingFingerprintResolvesViaFullCompare) {
  pmem::Arena arena(small_arena());
  Hart h(arena);
  // Brute-force a pair of distinct keys in the same partition (same first
  // kh bytes) whose ART-suffix fingerprints collide: the guard passes, and
  // only the full key compare may reject.
  const std::string base = "PPcollision-base";
  const uint8_t want = art::key_fingerprint(suffix_key(base, 2));
  std::string twin;
  for (uint64_t i = 0; twin.empty(); ++i) {
    std::string cand = "PPtwin-" + std::to_string(i);
    if (art::key_fingerprint(suffix_key(cand, 2)) == want) twin = cand;
  }
  ASSERT_TRUE(h.insert(base, "base-value").ok());

  auto& fp_counter =
      obs::Registry::instance().counter("hart_fp_false_positive_total");
  const uint64_t fps_before = fp_counter.value();
  std::string v;
  EXPECT_EQ(h.search(twin, &v).code(), common::Status::kNotFound);
  EXPECT_GE(fp_counter.value(), fps_before + 1)
      << "a colliding-fp miss is exactly the guard's false positive";

  ASSERT_TRUE(h.insert(twin, "twin-value").ok());
  ASSERT_TRUE(h.search(base, &v).ok());
  EXPECT_EQ(v, "base-value");
  ASSERT_TRUE(h.search(twin, &v).ok());
  EXPECT_EQ(v, "twin-value");
}

TEST(HartFingerprint, GuardSkipsPmKeyReadsOnMisses) {
  // Misses whose fingerprint differs from the resident leaf's must not
  // touch the PM key bytes at all; the unguarded tree reads them on every
  // miss to run the full compare.
  const std::string live = "QQresident-key";
  const auto probes = guarded_probes(live);

  auto miss_read_lines = [&](bool fingerprints) {
    pmem::Arena arena(small_arena());
    Hart::Options o;
    o.fingerprints = fingerprints;
    Hart h(arena, o);
    EXPECT_TRUE(h.insert(live, "v").ok());
    return probe_read_lines(h, arena, probes);
  };

  auto& skips =
      obs::Registry::instance().counter("hart_fp_skip_total");
  const uint64_t skips_before = skips.value();
  const uint64_t guarded = miss_read_lines(true);
  const uint64_t unguarded = miss_read_lines(false);
  EXPECT_EQ(guarded, 0u) << "guarded misses must skip PM entirely";
  EXPECT_GT(unguarded, 0u) << "unguarded misses pay the PM key read";
  EXPECT_GE(skips.value() - skips_before, probes.size());
}

TEST(HartFingerprint, OnOffParityOverMixedOps) {
  pmem::Arena a_on(small_arena());
  pmem::Arena a_off(small_arena());
  Hart::Options on;
  Hart::Options off;
  off.fingerprints = false;
  Hart h_on(a_on, on);
  Hart h_off(a_off, off);
  const auto keys = random_keys(800, 11);
  common::Rng rng(29);
  for (int step = 0; step < 4000; ++step) {
    const auto& key = keys[rng.next() % keys.size()];
    switch (rng.next() % 3) {
      case 0:
        EXPECT_EQ(h_on.insert(key, "v").code(),
                  h_off.insert(key, "v").code());
        break;
      case 1: {
        std::string v1, v2;
        EXPECT_EQ(h_on.search(key, &v1).code(),
                  h_off.search(key, &v2).code())
            << key;
        EXPECT_EQ(v1, v2);
        break;
      }
      default:
        EXPECT_EQ(h_on.remove(key).code(), h_off.remove(key).code());
        break;
    }
  }
  EXPECT_EQ(h_on.size(), h_off.size());
}

TEST(HartFingerprint, RestartDerivesTagsAndPersistsNothing) {
  const std::string path = testing::TempDir() + "hart_fp_restart.arena";
  std::filesystem::remove(path);
  auto file_arena = [&] {
    pmem::Arena::Options o;
    o.size = 32 << 20;
    o.file_path = path;
    return o;
  };
  const std::string live = "QQresident-key";
  auto keys = random_keys(200, 23);
  keys.push_back(live);
  {
    pmem::Arena arena(file_arena());
    Hart h(arena);
    for (const auto& key : keys) ASSERT_TRUE(h.insert(key, "v").ok());
    h.flush_epoch();
  }
  pmem::Arena arena(file_arena());
  ASSERT_TRUE(arena.reopened());
  const uint64_t persists = arena.persist_count();
  Hart h(arena);  // recovery
  EXPECT_EQ(arena.persist_count(), persists) << "recovery wrote to PM";
  std::string v;
  for (const auto& key : keys) ASSERT_TRUE(h.search(key, &v).ok());
  EXPECT_EQ(probe_read_lines(h, arena, guarded_probes(live)), 0u);
  h.recover();
  EXPECT_EQ(arena.persist_count(), persists);
  EXPECT_TRUE(verify_hart_image(arena).ok());
}

}  // namespace
}  // namespace hart::core
