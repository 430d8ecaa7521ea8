// Crash-point sweeps over the baselines' update paths and under the
// cache-eviction crash model, complementing the per-tree insert/remove
// sweeps. Update commits are single 8-byte pointer swings in all three
// baselines, so after any crash a key must hold either its old or its new
// value, never a torn one.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "artcow/artcow.h"
#include "common/index.h"
#include "fptree/fptree.h"
#include "pmem/arena.h"
#include "woart/woart.h"
#include "workload/keygen.h"

namespace hart {
namespace {

struct Factory {
  const char* name;
  std::function<std::unique_ptr<common::Index>(pmem::Arena&)> make;
};
const Factory kFactories[] = {
    {"WOART",
     [](pmem::Arena& a) { return std::make_unique<pmart::Woart>(a); }},
    {"ARTCoW",
     [](pmem::Arena& a) { return std::make_unique<pmart::ArtCow>(a); }},
    {"FPTree",
     [](pmem::Arena& a) { return std::make_unique<fptree::FpTree>(a); }},
};

std::unique_ptr<pmem::Arena> make_arena(double eviction = 0.0,
                                        uint64_t seed = 1) {
  pmem::Arena::Options o;
  o.size = size_t{64} << 20;
  o.shadow = true;
  o.eviction_prob = eviction;
  o.crash_seed = seed;
  return std::make_unique<pmem::Arena>(o);
}

class BaselineCrash : public ::testing::TestWithParam<size_t> {};

TEST_P(BaselineCrash, UpdateSweepIsAtomic) {
  const auto& factory = kFactories[GetParam()];
  const auto keys = workload::make_random(120, 5, 4, 10);
  for (uint64_t crash_at = 1; crash_at <= 120; crash_at += 9) {
    auto arena = make_arena();
    size_t updated = 0;
    {
      auto t = factory.make(*arena);
      for (const auto& k : keys) t->insert(k, "old-value");
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          t->update(k, "new-value");
          ++updated;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    auto t2 = factory.make(*arena);  // re-open (reachability recovery)
    EXPECT_EQ(t2->size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string v;
      ASSERT_EQ(t2->search(keys[i], &v), common::Status::kOk)
          << factory.name << " crash_at=" << crash_at << " " << keys[i];
      if (i < updated)
        EXPECT_EQ(v, "new-value") << factory.name << " " << keys[i];
      else if (i > updated)
        EXPECT_EQ(v, "old-value") << factory.name << " " << keys[i];
      else
        EXPECT_TRUE(v == "old-value" || v == "new-value")
            << "torn update: " << v;
    }
  }
}

TEST_P(BaselineCrash, InsertSweepWithEviction) {
  // Cache-eviction crash model: dirty lines may persist out of order. The
  // commit protocols must hold regardless.
  const auto& factory = kFactories[GetParam()];
  const auto keys = workload::make_random(200, 9, 4, 10);
  for (uint64_t crash_at = 5; crash_at <= 260; crash_at += 21) {
    auto arena = make_arena(0.5, crash_at * 7);
    size_t committed = 0;
    {
      auto t = factory.make(*arena);
      arena->arm_crash_after(crash_at);
      try {
        for (const auto& k : keys) {
          t->insert(k, "val");
          ++committed;
        }
        arena->disarm_crash();
      } catch (const pmem::CrashPoint&) {
        arena->crash();
      }
    }
    auto t2 = factory.make(*arena);
    for (size_t i = 0; i < committed; ++i) {
      std::string v;
      ASSERT_EQ(t2->search(keys[i], &v), common::Status::kOk)
          << factory.name << " crash_at=" << crash_at << " " << keys[i];
      EXPECT_EQ(v, "val");
    }
    // Fully usable afterwards.
    for (const auto& k : keys) t2->insert(k, "val2");
    EXPECT_EQ(t2->size(), keys.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Trees, BaselineCrash, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return kFactories[info.param].name;
                         });

}  // namespace
}  // namespace hart
