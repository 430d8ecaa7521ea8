// Persistent-format and batched-metadata crash-repair tests for the PM
// allocator. A checked-in arena image written by the paper's
// single-instance EPallocator must keep reopening with identical contents,
// and keep working across a further reopen. The batched chunk-header
// schedule additionally introduces two recoverable torn shapes (an
// in-flight delete whose header clears were deferred, and a committed
// value orphaned by such a delete); these tests pin both the deterministic
// repairs and a crash sweep across the persist stream.
#include <gtest/gtest.h>
#include <unistd.h>

#include "checked_arena.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hart/hart.h"
#include "hart/verify.h"
#include "obs/counters.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(bool shadow = false) {
  pmem::Arena::Options o;
  o.size = size_t{64} << 20;
  o.shadow = shadow;
  o.charge_alloc_persist = false;
  return testutil::make_checked_arena(o);
}

Hart::Options batched_alloc() {
  Hart::Options o;
  o.alloc.batched_meta = true;
  return o;
}

uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// The workload that wrote tests/data/legacy_arena_200keys.txt (see the
// file's header).
std::string legacy_key(uint64_t i) {
  return std::to_string(i * 2654435761ULL % 1000003ULL) + "-" +
         std::string(i % 9, static_cast<char>('a' + i % 26));
}
std::string legacy_value(uint64_t i) {
  return std::string(1 + i * 13 % 64, static_cast<char>('A' + i % 26));
}

/// Rebuilds the checked-in arena image at `path`; returns the arena size.
size_t write_legacy_image(const std::string& path) {
  std::ifstream in(std::string(HART_TEST_DATA_DIR) +
                   "/legacy_arena_200keys.txt");
  EXPECT_TRUE(in.good()) << "missing golden arena image";
  std::vector<char> img;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string first;
    std::string bytes;
    ls >> first >> bytes;
    if (first == "size") {
      img.assign(std::stoull(bytes), 0);
      continue;
    }
    const size_t off = std::stoull(first, nullptr, 16);
    EXPECT_LE(off + bytes.size() / 2, img.size()) << line;
    for (size_t b = 0; b + 1 < bytes.size(); b += 2)
      img[off + b / 2] =
          static_cast<char>(std::stoul(bytes.substr(b, 2), nullptr, 16));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(img.data(), static_cast<std::streamsize>(img.size()));
  return img.size();
}

/// `h` holds exactly `ref`: every key reads back its value, and the leaf
/// lists hold no other key.
void expect_exactly(const Hart& h,
                    const std::map<std::string, std::string>& ref) {
  EXPECT_EQ(h.size(), ref.size());
  for (const auto& [k, want] : ref) {
    std::string v;
    ASSERT_EQ(h.search(k, &v), common::Status::kOk) << k;
    EXPECT_EQ(v, want) << k;
  }
  std::map<std::string, int> seen;
  h.for_each_key([&](std::string_view k) { ++seen[std::string(k)]; });
  EXPECT_EQ(seen.size(), ref.size());
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1) << k;
    EXPECT_EQ(ref.count(k), 1u) << "unexpected key " << k;
  }
}

TEST(AllocParity, LegacyArenaReopensUnderStriped) {
  const std::string path = pmem::Arena::resolve_file_path(
      "alloc_parity_legacy_" + std::to_string(::getpid()) + ".pm");
  pmem::Arena::Options o;
  o.size = write_legacy_image(path);
  o.file_path = path;
  o.charge_alloc_persist = false;

  std::map<std::string, std::string> ref;
  for (uint64_t i = 0; i < 200; ++i) ref[legacy_key(i)] = legacy_value(i);
  ref[legacy_key(17)] = std::string(50, 'U');
  ref.erase(legacy_key(42));
  {
    auto arena = testutil::make_checked_arena(o);
    ASSERT_TRUE(arena->reopened());
    const VerifyReport rep = verify_hart_image(*arena);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.live_leaves, 199u);
    Hart h(*arena);
    expect_exactly(h, ref);
    // And it keeps working: fresh inserts, class-changing updates of old
    // keys, deletes of old keys.
    for (uint64_t i = 200; i < 260; ++i) {
      ASSERT_EQ(h.insert(legacy_key(i), legacy_value(i)),
                common::Status::kInserted);
      ref[legacy_key(i)] = legacy_value(i);
    }
    for (uint64_t i = 0; i < 200; i += 7) {
      if (i == 42) continue;
      const std::string v(1 + (i * 29 + 5) % 64, 'w');
      ASSERT_EQ(h.update(legacy_key(i), v), common::Status::kOk);
      ref[legacy_key(i)] = v;
    }
    for (uint64_t i = 1; i < 200; i += 11) {
      ASSERT_EQ(h.remove(legacy_key(i)), common::Status::kOk);
      ref.erase(legacy_key(i));
    }
    expect_exactly(h, ref);
  }
  {
    auto arena = testutil::make_checked_arena(o);
    const VerifyReport rep = verify_hart_image(*arena);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    Hart h(*arena);
    expect_exactly(h, ref);
  }
  std::remove(path.c_str());
}

// Deterministic batched-metadata repairs: fence a populated tree, delete
// one key without fencing, crash. The leaf's p_value clear is eager, the
// header-bit clears were deferred — recovery must complete the delete
// (R1) and sweep the now-orphaned committed value (R3).
TEST(AllocParity, BatchedDeleteCrashCompletesOnRecovery) {
  auto arena = make_arena(/*shadow=*/true);
  const auto keys = workload::make_random(50, 33, 4, 12);
  const uint64_t deletes0 =
      counter_value("hart_recover_completed_deletes_total");
  const uint64_t orphans0 = counter_value("hart_recover_orphan_values_total");
  {
    Hart h(*arena, batched_alloc());
    for (const auto& k : keys) h.insert(k, "v-" + k.substr(0, 4));
    h.flush_epoch();  // all 50 inserts durable
    ASSERT_EQ(h.remove(keys[7]), common::Status::kOk);
    arena->crash();  // deferred header clears are lost; p_value=0 survives
  }
  Hart h2(*arena, batched_alloc());
  EXPECT_EQ(counter_value("hart_recover_completed_deletes_total"),
            deletes0 + 1);
  EXPECT_EQ(counter_value("hart_recover_orphan_values_total"), orphans0 + 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto want =
        i == 7 ? common::Status::kNotFound : common::Status::kOk;
    EXPECT_EQ(h2.search(keys[i], nullptr), want) << keys[i];
  }
  EXPECT_EQ(h2.size(), keys.size() - 1);
  EXPECT_TRUE(verify_hart_image(*arena).ok())
      << verify_hart_image(*arena).summary();
  // The repairs themselves were made durable by recovery's final
  // metadata flush: a second crash+recover must not repeat them.
  arena->crash();
  Hart h3(*arena, batched_alloc());
  EXPECT_EQ(counter_value("hart_recover_completed_deletes_total"),
            deletes0 + 1);
  EXPECT_EQ(counter_value("hart_recover_orphan_values_total"), orphans0 + 1);
  EXPECT_EQ(h3.size(), keys.size() - 1);
}

// Crash sweep under the batched schedule: everything fenced by
// flush_epoch() must survive; whatever else survives must be
// well-formed. Mirrors HartCrash.InsertSweep but with deferred header
// persists, so the crash can land between an operation and its fence.
TEST(AllocParity, BatchedCrashSweepKeepsFencedWrites) {
  const auto keys = workload::make_random(240, 55, 4, 12);
  const auto opts = batched_alloc();
  for (uint64_t crash_at = 7; crash_at <= 400; crash_at += 23) {
    auto arena = make_arena(/*shadow=*/true);
    size_t fenced = 0;  // keys[0..fenced) are durable
    bool crashed = false;
    {
      Hart h(*arena, opts);
      arena->arm_crash_after(crash_at);
      try {
        for (size_t i = 0; i < keys.size(); ++i) {
          h.insert(keys[i], "val-" + keys[i].substr(0, 4));
          if ((i + 1) % 16 == 0) {
            h.flush_epoch();
            fenced = i + 1;
          }
        }
        arena->disarm_crash();
        h.flush_epoch();
        fenced = keys.size();
      } catch (const pmem::CrashPoint&) {
        crashed = true;
        arena->crash();
      }
    }
    Hart h2(*arena, opts);
    ASSERT_GE(h2.size(), fenced);
    for (size_t i = 0; i < fenced; ++i) {
      std::string v;
      ASSERT_EQ(h2.search(keys[i], &v), common::Status::kOk)
          << "fenced write lost (crash_at=" << crash_at << "): " << keys[i];
      EXPECT_EQ(v, "val-" + keys[i].substr(0, 4));
    }
    // Unfenced survivors are allowed (their header line may have been
    // flushed incidentally) but must carry their full committed value.
    for (size_t i = fenced; i < keys.size(); ++i) {
      std::string v;
      if (h2.search(keys[i], &v) == common::Status::kOk) {
        EXPECT_EQ(v, "val-" + keys[i].substr(0, 4)) << keys[i];
      }
    }
    const VerifyReport rep = verify_hart_image(*arena);
    EXPECT_TRUE(rep.ok()) << "crash_at=" << crash_at << ": " << rep.summary();
    // The recovered tree keeps working and fencing.
    EXPECT_EQ(h2.insert("post-" + std::to_string(crash_at), "v"),
              common::Status::kInserted);
    h2.flush_epoch();
    if (!crashed) break;  // stream fully fenced; later crash_at are no-ops
  }
}

}  // namespace
}  // namespace hart::core
