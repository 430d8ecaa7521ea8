// PMCheck negative-path suite: a deliberately buggy mini-index whose
// injected violations must each be caught by name, plus clean-protocol
// tests that must stay silent (the zero-false-positive half lives in the
// index suites via tests/checked_arena.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>

#include "pmcheck/pmcheck.h"
#include "pmem/arena.h"

namespace hart::pmem {
namespace {

using pmcheck::Kind;

Arena::Options small_opts() {
  Arena::Options o;
  o.size = 1 << 20;
  o.shadow = true;
  o.check = true;
  return o;
}

/// A tiny persistent record array with switchable protocol bugs — the
/// "hand-converted PM index" PMCheck exists to catch.
struct MiniKv {
  enum Bug { kNone, kSkipPersist, kDoublePersist };
  static constexpr uint64_t kRecs = 64;

  explicit MiniKv(Arena& a) : arena(a), slab(a.alloc(kRecs * 8)) {}

  uint64_t* rec(uint64_t i) const { return arena.ptr<uint64_t>(slab + i * 8); }

  void put(uint64_t i, uint64_t v, Bug bug = kNone) {
    uint64_t* r = rec(i);
    *r = v;
    arena.trace_store(r, sizeof(*r));
    if (bug == kSkipPersist) return;  // forgot persistent()
    arena.persist(r, sizeof(*r));
    if (bug == kDoublePersist) arena.persist(r, sizeof(*r));
  }

  uint64_t get(uint64_t i) const {
    const uint64_t* r = rec(i);
    arena.pm_read(r, sizeof(*r));
    return *r;
  }

  Arena& arena;
  uint64_t slab;
};

TEST(PmCheck, CleanProtocolReportsNothing) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  for (uint64_t i = 0; i < MiniKv::kRecs; ++i) kv.put(i, i * 3 + 1);
  for (uint64_t i = 0; i < MiniKv::kRecs; ++i) EXPECT_EQ(kv.get(i), i * 3 + 1);
  const auto rep = arena.pm_report();
  EXPECT_EQ(rep.total(), 0u) << rep.to_string();
  EXPECT_TRUE(arena.checker()->unflushed_spans().empty());
  EXPECT_EQ(rep.persist_calls, MiniKv::kRecs);
}

TEST(PmCheck, CatchesUnflushedRead) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  kv.put(0, 42, MiniKv::kSkipPersist);
  EXPECT_EQ(kv.get(0), 42u);  // the data *is* there — until a crash
  const auto rep = arena.pm_report();
  EXPECT_EQ(rep.count(Kind::kUnflushedRead), 1u) << rep.to_string();
  EXPECT_EQ(rep.count(Kind::kRedundantPersist), 0u);
  EXPECT_EQ(rep.count(Kind::kPmRace), 0u);
  ASSERT_FALSE(rep.samples.empty());
  EXPECT_STREQ(pmcheck::kind_name(rep.samples[0].kind), "unflushed-read");
  // The dirty span is visible to the quiescence diagnostic too.
  EXPECT_FALSE(arena.checker()->unflushed_spans().empty());
}

TEST(PmCheck, CatchesRedundantPersist) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  kv.put(0, 7, MiniKv::kDoublePersist);
  const auto rep = arena.pm_report();
  EXPECT_EQ(rep.count(Kind::kRedundantPersist), 1u) << rep.to_string();
  EXPECT_EQ(rep.count(Kind::kUnflushedRead), 0u);
  ASSERT_FALSE(rep.samples.empty());
  EXPECT_STREQ(pmcheck::kind_name(rep.samples[0].kind), "redundant-persist");
  // The diagnostic counter sees the wasted line flush as well.
  EXPECT_GE(rep.clean_line_flushes, 1u);
}

TEST(PmCheck, FirstFlushOfUnchangedBytesIsNotRedundant) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  // Freshly allocated memory is zero; storing zero changes nothing, but the
  // first persist establishes durability and must not be flagged.
  kv.put(0, 0);
  EXPECT_EQ(arena.pm_report().count(Kind::kRedundantPersist), 0u);
}

TEST(PmCheck, ObjectReuseSuppressesRedundantPersist) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  kv.put(3, 99);
  // A new owner takes over the slot (EPallocator-style sub-block reuse)
  // and happens to write the identical bytes: its persist is required.
  arena.note_object_alloc(kv.slab + 3 * 8, 8);
  kv.put(3, 99);
  EXPECT_EQ(arena.pm_report().count(Kind::kRedundantPersist), 0u)
      << arena.pm_report().to_string();
}

TEST(PmCheck, CatchesPersistToUnallocated) {
  Arena arena(small_opts());
  auto kv = std::make_unique<MiniKv>(arena);
  uint64_t* r = kv->rec(0);
  const uint64_t slab = kv->slab;
  arena.free(slab, MiniKv::kRecs * 8);  // index torn down…
  *r = 5;                               // …but a stale writer lives on
  arena.persist(r, sizeof(*r));
  const auto rep = arena.pm_report();
  EXPECT_EQ(rep.count(Kind::kPersistToUnallocated), 1u) << rep.to_string();
  ASSERT_FALSE(rep.samples.empty());
  EXPECT_STREQ(pmcheck::kind_name(rep.samples[0].kind),
               "persist-to-unallocated");
}

TEST(PmCheck, CatchesStoreToFreedBlock) {
  Arena arena(small_opts());
  auto kv = std::make_unique<MiniKv>(arena);
  uint64_t* r = kv->rec(0);
  arena.free(kv->slab, MiniKv::kRecs * 8);
  *r = 5;
  HARTLINT_SUPPRESS("HL001: deliberately unflushed — violation under test")
  arena.trace_store(r, sizeof(*r));  // annotated store into freed space
  EXPECT_EQ(arena.pm_report().count(Kind::kPersistToUnallocated), 1u);
}

TEST(PmCheck, CatchesPmRace) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  // Thread A dirties record 5 and "forgets" the flush; thread B then writes
  // the same record. No fence orders the two stores — after a crash either,
  // both, or neither may be durable.
  std::thread t1([&] { kv.put(5, 111, MiniKv::kSkipPersist); });
  t1.join();
  std::thread t2([&] { kv.put(5, 222, MiniKv::kSkipPersist); });
  t2.join();
  const auto rep = arena.pm_report();
  EXPECT_EQ(rep.count(Kind::kPmRace), 1u) << rep.to_string();
  ASSERT_FALSE(rep.samples.empty());
  EXPECT_STREQ(pmcheck::kind_name(rep.samples[0].kind), "pm-race");
  EXPECT_NE(rep.samples[0].tid, rep.samples[0].tid2);
}

TEST(PmCheck, DisjointStoresOnOneLineDoNotRace) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  // Records 0 and 1 share a cache line (8-byte records): co-located writers
  // with byte-disjoint ranges are exactly the EPallocator value-slot
  // pattern and must not be flagged.
  std::thread t1([&] { kv.put(0, 1, MiniKv::kSkipPersist); });
  t1.join();
  std::thread t2([&] { kv.put(1, 2, MiniKv::kSkipPersist); });
  t2.join();
  EXPECT_EQ(arena.pm_report().count(Kind::kPmRace), 0u)
      << arena.pm_report().to_string();
}

TEST(PmCheck, PersistClosesTheRaceWindow) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  // Correct cross-thread handoff: store + persistent() before the other
  // thread writes the same bytes.
  std::thread t1([&] { kv.put(5, 111); });
  t1.join();
  std::thread t2([&] { kv.put(5, 222); });
  t2.join();
  EXPECT_EQ(arena.pm_report().count(Kind::kPmRace), 0u)
      << arena.pm_report().to_string();
}

TEST(PmCheck, CrashRollbackClearsDirtiness) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  kv.put(0, 42, MiniKv::kSkipPersist);
  arena.crash();  // the unflushed store is rolled back…
  EXPECT_EQ(kv.get(0), 0u);  // …and the recovery read is of persisted state
  const auto rep = arena.pm_report();
  EXPECT_EQ(rep.count(Kind::kUnflushedRead), 0u) << rep.to_string();
  EXPECT_TRUE(arena.checker()->unflushed_spans().empty());
}

TEST(PmCheck, ReportIsHumanReadable) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  kv.put(0, 7, MiniKv::kDoublePersist);
  const std::string s = arena.pm_report().to_string();
  EXPECT_NE(s.find("redundant-persist=1"), std::string::npos) << s;
  EXPECT_NE(s.find("persist_calls="), std::string::npos) << s;
}

TEST(PmCheck, ConfigDisablesIndividualChecks) {
  Arena::Options o = small_opts();
  o.check_config.redundant_persist = false;
  Arena arena(o);
  MiniKv kv(arena);
  kv.put(0, 7, MiniKv::kDoublePersist);
  EXPECT_EQ(arena.pm_report().total(), 0u);
}

TEST(PmCheck, ViolationsCanBeCleared) {
  Arena arena(small_opts());
  MiniKv kv(arena);
  kv.put(0, 7, MiniKv::kDoublePersist);
  EXPECT_EQ(arena.pm_report().total(), 1u);
  arena.checker()->reset_violations();
  EXPECT_EQ(arena.pm_report().total(), 0u);
}

}  // namespace
}  // namespace hart::pmem
