// Persistent-format and batched-metadata crash tests for the PM
// allocator. A checked-in arena image written in the update-log format
// (format 0) must be refused with a typed status, without a byte of it
// being written. The batched chunk-header schedule defers an insert's
// leaf-bit persist to the epoch fence but keeps a delete's leaf-bit clear
// eager; these tests pin a delete's durability before the fence and a
// crash sweep across the persist stream.
#include <gtest/gtest.h>
#include <unistd.h>

#include "checked_arena.h"
#include "legacy_image.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "hart/hart.h"
#include "hart/verify.h"
#include "workload/keygen.h"

namespace hart::core {
namespace {

testutil::CheckedArena make_arena(bool shadow = false) {
  pmem::Arena::Options o;
  o.size = size_t{64} << 20;
  o.shadow = shadow;
  return testutil::make_checked_arena(o);
}

Hart::Options batched_alloc() {
  Hart::Options o;
  o.alloc.batched_meta = true;
  return o;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(AllocParity, LegacyArenaIsRefusedWithATypedStatus) {
  const std::string path = pmem::Arena::resolve_file_path(
      "alloc_parity_legacy_" + std::to_string(::getpid()) + ".pm");
  pmem::Arena::Options o;
  o.size = testutil::write_legacy_image(path);
  o.file_path = path;
  const std::string before = file_bytes(path);
  {
    auto arena = testutil::make_checked_arena(o);
    ASSERT_TRUE(arena->reopened());
    try {
      Hart h(*arena);
      ADD_FAILURE() << "a format-0 image must be refused";
    } catch (const FormatError& e) {
      EXPECT_EQ(e.status(), common::Status::kUnsupportedFormat);
      EXPECT_EQ(e.found_format(), 0u);
    }
    // The verifier refuses to interpret it too.
    EXPECT_FALSE(verify_hart_image(*arena).ok());
  }
  // The refusal wrote nothing: the image is byte-identical.
  EXPECT_EQ(file_bytes(path), before);
  std::remove(path.c_str());
}

TEST(AllocParity, CurrentFormatIsStampedAndAccepted) {
  auto arena = make_arena();
  { Hart h(*arena); }  // fresh
  EXPECT_EQ(arena->root<HartRoot>()->format, kHartFormatVersion);
  EXPECT_NO_THROW({ Hart h(*arena); });  // reopened
}

// Writes a populated file-backed image, stamps it with an older format,
// and checks that reopening it is refused with a typed status, that the
// refusal persists nothing, and that the file is byte-identical after it.
void expect_older_format_refused(uint32_t format) {
  const std::string path = pmem::Arena::resolve_file_path(
      "alloc_parity_format" + std::to_string(format) + "_" +
      std::to_string(::getpid()) + ".pm");
  std::remove(path.c_str());
  pmem::Arena::Options o;
  o.size = size_t{8} << 20;
  o.file_path = path;
  {
    auto arena = testutil::make_checked_arena(o);
    Hart h(*arena);
    for (int i = 0; i < 100; ++i)
      ASSERT_EQ(h.insert("key" + std::to_string(i), "value"),
                common::Status::kInserted);
    arena->root<HartRoot>()->format = format;
  }
  const std::string before = file_bytes(path);
  {
    auto arena = testutil::make_checked_arena(o);
    ASSERT_TRUE(arena->reopened());
    try {
      Hart h(*arena);
      ADD_FAILURE() << "an older-format image must be refused";
    } catch (const FormatError& e) {
      EXPECT_EQ(e.status(), common::Status::kUnsupportedFormat);
      EXPECT_EQ(e.found_format(), format);
    }
    EXPECT_EQ(arena->persist_count(), 0u);
    EXPECT_FALSE(verify_hart_image(*arena).ok());
  }
  EXPECT_EQ(file_bytes(path), before) << "the refused image changed";
  std::remove(path.c_str());
}

// Format 1 kept a persistent bit per value object; later formats derive
// value liveness from the leaves, so a format-1 image cannot be read.
TEST(AllocParity, FormatOneImageIsRefused) { expect_older_format_refused(1); }

// Format 2 kept 40-byte leaves 16 bytes into their chunk: this build
// would misread every slot.
TEST(AllocParity, FormatTwoImageIsRefused) { expect_older_format_refused(2); }

// Format 3 kept a chunk list per value class with a typed recycle log in
// a larger root: this build would misread the root and the value chunks.
TEST(AllocParity, FormatThreeImageIsRefused) {
  expect_older_format_refused(3);
}

// A batched delete is durable before the fence: its one persist, the leaf
// bit's clear, is eager in both schedules. Fence a populated tree, delete
// one key without fencing, crash; recovery finds the key gone and nothing
// left to repair, and its value slot is free again.
TEST(AllocParity, BatchedDeleteCrashCompletesOnRecovery) {
  auto arena = make_arena(/*shadow=*/true);
  const auto keys = workload::make_random(50, 33, 4, 12);
  {
    Hart h(*arena, batched_alloc());
    for (const auto& k : keys) h.insert(k, "v-" + k.substr(0, 4));
    h.flush_epoch();  // all 50 inserts durable
    ASSERT_EQ(h.remove(keys[7]), common::Status::kOk);
    arena->crash();  // nothing unflushed belongs to the delete
  }
  Hart h2(*arena, batched_alloc());
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto want =
        i == 7 ? common::Status::kNotFound : common::Status::kOk;
    EXPECT_EQ(h2.search(keys[i], nullptr), want) << keys[i];
  }
  EXPECT_EQ(h2.size(), keys.size() - 1);
  EXPECT_EQ(h2.allocator().live_objects(epalloc::ObjType::kValue8),
            keys.size() - 1);
  EXPECT_TRUE(verify_hart_image(*arena).ok())
      << verify_hart_image(*arena).summary();
  // Recovery wrote nothing a second crash could lose.
  arena->crash();
  Hart h3(*arena, batched_alloc());
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
