// Unit tests for the PM device model: allocation, offsets, persist
// semantics, crash simulation (strict and with eviction), and the modeled
// allocator-metadata charges.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <set>
#include <vector>

#include "pmem/arena.h"

namespace hart::pmem {
namespace {

Arena::Options small_opts() {
  Arena::Options o;
  o.size = 4 << 20;
  o.shadow = true;
  return o;
}

TEST(Arena, AllocReturnsAlignedDistinctOffsets) {
  Arena a(small_opts());
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    const uint64_t off = a.alloc(64, 64);
    EXPECT_EQ(off % 64, 0u);
    EXPECT_GE(off, kArenaHeaderSize);
    EXPECT_TRUE(seen.insert(off).second) << "offset handed out twice";
  }
}

TEST(Arena, AllocHonorsLargeAlignment) {
  Arena a(small_opts());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.alloc(2256, 4096) % 4096, 0u);
    EXPECT_EQ(a.alloc(464, 512) % 512, 0u);
    EXPECT_EQ(a.alloc(912, 1024) % 1024, 0u);
  }
}

TEST(Arena, FreeMakesSpanReusable) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(128, 64);
  a.free(off, 128, 64);
  const uint64_t again = a.alloc(128, 64);
  EXPECT_EQ(off, again) << "free-list should return the same span";
}

TEST(Arena, ExhaustionThrowsBadAlloc) {
  Arena::Options o;
  o.size = 64 << 10;
  Arena a(o);
  EXPECT_THROW(
      {
        for (;;) a.alloc(4096, 64);
      },
      std::bad_alloc);
}

TEST(Arena, OffsetPointerRoundTrip) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(64, 64);
  auto* p = a.ptr<uint64_t>(off);
  EXPECT_EQ(a.off(p), off);
  EXPECT_EQ(a.ptr<uint64_t>(kNullOff), nullptr);
  EXPECT_EQ(a.off(nullptr), kNullOff);
}

TEST(Arena, PersistCountsCallsAndLines) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(256, 64);
  auto* p = a.ptr<char>(off);
  const uint64_t before = a.stats().persist_calls.load();
  a.persist(p, 8);
  a.persist(p, 256);
  EXPECT_EQ(a.stats().persist_calls.load(), before + 2);
}

TEST(Arena, CrashDiscardsUnflushedStores) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(64, 64);
  auto* p = a.ptr<uint64_t>(off);
  p[0] = 0xAAAA;
  a.persist(&p[0], 8);
  p[1] = 0xBBBB;  // never flushed
  a.crash();
  EXPECT_EQ(p[0], 0xAAAAu) << "flushed store must survive";
  EXPECT_EQ(p[1], 0u) << "unflushed store must be lost";
}

TEST(Arena, CrashIsCacheLineGranular) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(128, 64);
  auto* p = a.ptr<uint64_t>(off);
  p[0] = 1;  // line 0
  p[8] = 2;  // line 1
  a.persist(&p[8], 8);
  a.crash();
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[8], 2u);
}

TEST(Arena, ArmedCrashFiresOnNthPersist) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(64, 64);
  auto* p = a.ptr<uint64_t>(off);
  a.arm_crash_after(3);
  p[0] = 1;
  a.persist(p, 8);
  p[0] = 2;
  a.persist(p, 8);
  p[0] = 3;
  EXPECT_THROW(a.persist(p, 8), CrashPoint);
  a.crash();
  EXPECT_EQ(p[0], 2u) << "the crashing persist must not have flushed";
  // Disarmed after firing: further persists succeed.
  p[0] = 4;
  EXPECT_NO_THROW(a.persist(p, 8));
}

TEST(Arena, EvictionModeKeepsSomeDirtyLines) {
  Arena::Options o = small_opts();
  o.eviction_prob = 1.0;  // every dirty line "was evicted" = persisted
  Arena a(o);
  const uint64_t off = a.alloc(64, 64);
  auto* p = a.ptr<uint64_t>(off);
  p[0] = 42;  // dirty, never flushed
  a.crash();
  EXPECT_EQ(p[0], 42u);
}

TEST(Arena, EvictionSurvivalIsLineGranularNeverTorn) {
  // Fractional eviction: at crash each dirty line independently survives
  // or rolls back, but a line is never torn — all 64 bytes are either the
  // new content or the old content.
  constexpr int kLines = 512;
  Arena::Options o = small_opts();
  o.eviction_prob = 0.5;
  o.crash_seed = 7;
  Arena a(o);
  const uint64_t off = a.alloc(kLines * kCacheLine, kCacheLine);
  auto* p = a.ptr<uint64_t>(off);
  for (int l = 0; l < kLines; ++l)
    for (int w = 0; w < 8; ++w) p[l * 8 + w] = uint64_t(l) * 8 + w + 1;
  a.crash();
  int survivors = 0;
  for (int l = 0; l < kLines; ++l) {
    const bool first_new = p[l * 8] == uint64_t(l) * 8 + 1;
    survivors += first_new ? 1 : 0;
    for (int w = 0; w < 8; ++w) {
      const uint64_t want = first_new ? uint64_t(l) * 8 + w + 1 : 0;
      ASSERT_EQ(p[l * 8 + w], want)
          << "line " << l << " torn at word " << w;
    }
  }
  // Binomial(512, 0.5): 3 sigma is ~34 lines. Both all-or-nothing outcomes
  // would mean the probability is not being applied per line.
  EXPECT_GT(survivors, 256 - 100);
  EXPECT_LT(survivors, 256 + 100);
}

TEST(Arena, EvictionRateTracksProbability) {
  constexpr int kLines = 2048;
  Arena::Options o = small_opts();
  o.eviction_prob = 0.3;
  o.crash_seed = 11;
  Arena a(o);
  const uint64_t off = a.alloc(kLines * kCacheLine, kCacheLine);
  auto* p = a.ptr<uint64_t>(off);
  for (int l = 0; l < kLines; ++l) p[l * 8] = 1;
  a.crash();
  int survivors = 0;
  for (int l = 0; l < kLines; ++l) survivors += p[l * 8] == 1 ? 1 : 0;
  const double rate = double(survivors) / kLines;
  EXPECT_GT(rate, 0.25);
  EXPECT_LT(rate, 0.35);
}

TEST(Arena, EvictionIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Arena::Options o;
    o.size = 1 << 20;
    o.shadow = true;
    o.eviction_prob = 0.5;
    o.crash_seed = seed;
    Arena a(o);
    const uint64_t off = a.alloc(256 * kCacheLine, kCacheLine);
    auto* p = a.ptr<uint64_t>(off);
    for (int l = 0; l < 256; ++l) p[l * 8] = l + 1;
    a.crash();
    std::vector<uint64_t> out(256);
    for (int l = 0; l < 256; ++l) out[l] = p[l * 8];
    return out;
  };
  EXPECT_EQ(run(3), run(3)) << "same seed must replay the same survivors";
  EXPECT_NE(run(3), run(4)) << "different seeds must differ (256 lines)";
}

TEST(Arena, EvictionSweepNeverLosesFlushedPrefix) {
  // Armed-crash sweep under fractional eviction: everything persisted
  // before the crash point must survive regardless of what the eviction
  // coin does to the unflushed suffix.
  constexpr int kRecs = 32;
  for (uint64_t crash_at = 1; crash_at <= kRecs; crash_at += 3) {
    Arena::Options o = small_opts();
    o.eviction_prob = 0.5;
    o.crash_seed = crash_at;  // vary the coin flips across the sweep
    Arena a(o);
    const uint64_t off = a.alloc(kRecs * kCacheLine, kCacheLine);
    auto* p = a.ptr<uint64_t>(off);
    a.arm_crash_after(crash_at);
    uint64_t done = 0;
    try {
      for (int r = 0; r < kRecs; ++r) {
        p[r * 8] = r + 100;
        a.persist(&p[r * 8], 8);
        ++done;
      }
    } catch (const CrashPoint&) {
      a.crash();
    }
    for (uint64_t r = 0; r < done; ++r)
      ASSERT_EQ(p[r * 8], r + 100)
          << "flushed record " << r << " lost (crash_at=" << crash_at << ")";
    for (uint64_t r = done; r < kRecs; ++r)
      ASSERT_TRUE(p[r * 8] == 0 || p[r * 8] == r + 100)
          << "record " << r << " torn (crash_at=" << crash_at << ")";
  }
}

TEST(Arena, EvictionSurvivorsAreCleanUnderPmCheck) {
  // A dirty line that survives the crash via eviction is persistent state:
  // PMCheck must re-sync and not flag recovery reads of it.
  Arena::Options o = small_opts();
  o.eviction_prob = 1.0;
  o.check = true;
  Arena a(o);
  const uint64_t off = a.alloc(64, 64);
  auto* p = a.ptr<uint64_t>(off);
  p[0] = 42;  // never flushed
  a.crash();
  a.pm_read(p, 8);
  EXPECT_EQ(p[0], 42u);
  const auto rep = a.pm_report();
  EXPECT_EQ(rep.total(), 0u) << rep.to_string();
  EXPECT_TRUE(a.checker()->unflushed_spans().empty());
}

TEST(Arena, ResetAndMarkRebuildAllocationMap) {
  Arena a(small_opts());
  const uint64_t keep = a.alloc(128, 64);
  a.alloc(128, 64);  // will become unreachable
  a.reset_alloc_map();
  EXPECT_FALSE(a.is_allocated(keep, 128));
  a.mark_used(keep, 128);
  EXPECT_TRUE(a.is_allocated(keep, 128));
  // The unmarked span must be allocatable again; the marked one must not
  // be handed out.
  std::set<uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(a.alloc(128, 64));
  EXPECT_EQ(seen.count(keep), 0u);
}

TEST(Arena, AllocMetadataChargeIsCounted) {
  Arena::Options o = small_opts();
  Arena a(o);
  const uint64_t off = a.alloc(64, 64);
  a.free(off, 64, 64);
  EXPECT_EQ(a.stats().alloc_meta_persists.load(), 2u);
}

TEST(Arena, LiveByteAccountingBalances) {
  Arena a(small_opts());
  const uint64_t o1 = a.alloc(100, 64);
  const uint64_t o2 = a.alloc(200, 64);
  EXPECT_EQ(a.stats().pm_live_bytes.load(), 300u);
  a.free(o1, 100, 64);
  a.free(o2, 200, 64);
  EXPECT_EQ(a.stats().pm_live_bytes.load(), 0u);
}

TEST(Arena, RootObjectIsZeroInitializedAndStable) {
  struct Root {
    uint64_t magic;
    uint64_t payload[4];
  };
  Arena a(small_opts());
  auto* r = a.root<Root>();
  EXPECT_EQ(r->magic, 0u);
  r->magic = 77;
  a.persist(r, sizeof(*r));
  EXPECT_EQ(a.root<Root>()->magic, 77u);
}

TEST(Arena, FileBackedArenaSurvivesReopen) {
  const auto path =
      std::filesystem::temp_directory_path() / "hart_arena_test.pm";
  std::filesystem::remove(path);
  struct Root {
    uint64_t magic;
  };
  {
    Arena::Options o;
    o.size = 1 << 20;
    o.file_path = path.string();
    Arena a(o);
    EXPECT_FALSE(a.reopened());
    a.root<Root>()->magic = 123;
    a.persist(a.root<Root>(), sizeof(Root));
  }
  {
    Arena::Options o;
    o.size = 1 << 20;
    o.file_path = path.string();
    Arena a(o);
    EXPECT_TRUE(a.reopened());
    EXPECT_EQ(a.root<Root>()->magic, 123u);
  }
  std::filesystem::remove(path);
}

TEST(Arena, SizeMismatchIsRefusedWithoutTouchingTheFile) {
  // An arena file reopened with another configured size, smaller or
  // larger, is refused before anything sizes or writes the file.
  const auto path =
      std::filesystem::temp_directory_path() / "hart_arena_mismatch.pm";
  std::filesystem::remove(path);
  {
    Arena::Options o;
    o.size = 8 << 20;
    o.file_path = path.string();
    Arena a(o);
    const uint64_t off = a.alloc(4096);
    std::memset(a.ptr<char>(off), 0x5a, 4096);
    a.persist(a.ptr<char>(off), 4096);
  }
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string before = bytes();
  ASSERT_EQ(before.size(), size_t{8} << 20);
  EXPECT_EQ(Arena::image_size(path.string()), size_t{8} << 20);
  for (const size_t mb : {4, 16}) {
    Arena::Options o;
    o.size = mb << 20;
    o.file_path = path.string();
    EXPECT_THROW({ Arena a(o); }, std::runtime_error) << mb << " MiB";
    EXPECT_EQ(bytes(), before) << mb << " MiB";
  }
  // The recorded size still opens it.
  Arena::Options o;
  o.size = Arena::image_size(path.string());
  o.file_path = path.string();
  Arena a(o);
  EXPECT_TRUE(a.reopened());
  std::filesystem::remove(path);
  EXPECT_EQ(Arena::image_size(path.string()), 0u) << "no file, no image";
}

TEST(Arena, RelativeFilePathResolvesUnderArenaDirEnv) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "hart_arena_env_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  ASSERT_EQ(::setenv("HART_ARENA_DIR", dir.c_str(), 1), 0);
  struct Root {
    uint64_t magic;
  };
  {
    Arena::Options o;
    o.size = 1 << 20;
    o.file_path = "rel.arena";  // relative: lands under $HART_ARENA_DIR
    Arena a(o);
    a.root<Root>()->magic = 9;
    a.persist(a.root<Root>(), sizeof(Root));
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "rel.arena"));
  EXPECT_EQ(Arena::resolve_file_path("rel.arena"), (dir / "rel.arena").string());
  {
    Arena::Options o;
    o.size = 1 << 20;
    o.file_path = "rel.arena";
    Arena a(o);
    EXPECT_TRUE(a.reopened());
    EXPECT_EQ(a.root<Root>()->magic, 9u);
  }
  // Absolute paths ignore the env entirely.
  const auto abs = std::filesystem::temp_directory_path() / "hart_abs.arena";
  EXPECT_EQ(Arena::resolve_file_path(abs.string()), abs.string());
  ASSERT_EQ(::unsetenv("HART_ARENA_DIR"), 0);
  std::filesystem::remove_all(dir.parent_path());
}

TEST(Arena, ZeroSizeResolvesFromArenaMbEnv) {
  ASSERT_EQ(::setenv("HART_ARENA_MB", "8", 1), 0);
  Arena::Options o;
  o.size = 0;
  Arena a(o);
  EXPECT_EQ(a.size(), size_t{8} << 20);
  ASSERT_EQ(::unsetenv("HART_ARENA_MB"), 0);
  // Explicit sizes are untouched by the env.
  ASSERT_EQ(::setenv("HART_ARENA_MB", "4", 1), 0);
  Arena::Options o2;
  o2.size = 2 << 20;
  Arena b(o2);
  EXPECT_EQ(b.size(), size_t{2} << 20);
  ASSERT_EQ(::unsetenv("HART_ARENA_MB"), 0);
}

TEST(Arena, DeferredLatencyBanksInsteadOfSpinning) {
  Arena::Options o = small_opts();
  o.latency = LatencyConfig::c300_300();  // +200 ns/line both ways
  o.defer_latency = true;
  Arena a(o);
  const uint64_t off = a.alloc(128, 64);  // 1 metadata flush -> 200 ns
  EXPECT_EQ(a.owed_latency_ns(), 200u);
  a.persist(a.ptr<char>(off), 128);  // 2 lines -> +400 ns
  EXPECT_EQ(a.owed_latency_ns(), 600u);
  a.pm_read(a.ptr<char>(off), 64);  // 1 line -> +200 ns
  EXPECT_EQ(a.owed_latency_ns(), 800u);
  EXPECT_EQ(a.pay_latency(), 800u);
  EXPECT_EQ(a.owed_latency_ns(), 0u);
  EXPECT_EQ(a.pay_latency(), 0u);  // nothing owed: no sleep, returns 0
}

TEST(Arena, PmReadCountsLines) {
  Arena a(small_opts());
  const uint64_t off = a.alloc(256, 64);
  const uint64_t before = a.stats().pm_read_lines.load();
  a.pm_read(a.ptr<char>(off), 256);
  EXPECT_EQ(a.stats().pm_read_lines.load(), before + 4);
}

TEST(LatencyConfig, DeltasMatchPaperConfigs) {
  EXPECT_EQ(LatencyConfig::c300_100().extra_write_ns(), 200u);
  EXPECT_EQ(LatencyConfig::c300_100().extra_read_ns(), 0u);
  EXPECT_EQ(LatencyConfig::c300_300().extra_read_ns(), 200u);
  EXPECT_EQ(LatencyConfig::c600_300().extra_write_ns(), 500u);
  EXPECT_EQ(LatencyConfig::off().extra_write_ns(), 0u);
  EXPECT_EQ(LatencyConfig::c300_100().label(), "300/100");
}

}  // namespace
}  // namespace hart::pmem
