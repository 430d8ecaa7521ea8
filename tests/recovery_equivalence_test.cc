// Recovery-equivalence property: for every persistent tree, rebuilding the
// index from PM (re-opening the arena) yields exactly the state left by a
// clean run — across all three paper workloads and after arbitrary churn.
// Parameterized over (tree, workload).
#include <gtest/gtest.h>

#include "hart_options.h"

#include <functional>
#include <map>
#include <memory>

#include "artcow/artcow.h"
#include "common/index.h"
#include "common/rng.h"
#include "fptree/fptree.h"
#include "hart/hart.h"
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
    {"HART", [](pmem::Arena& a) {
       return std::make_unique<core::Hart>(a, testutil::hart_options());
     }},
    {"WOART",
     [](pmem::Arena& a) { return std::make_unique<pmart::Woart>(a); }},
    {"ARTCoW",
     [](pmem::Arena& a) { return std::make_unique<pmart::ArtCow>(a); }},
    {"FPTree",
     [](pmem::Arena& a) { return std::make_unique<fptree::FpTree>(a); }},
};
const workload::WorkloadKind kWorkloads[] = {
    workload::WorkloadKind::kDictionary, workload::WorkloadKind::kSequential,
    workload::WorkloadKind::kRandom};

using Param = std::tuple<size_t, size_t>;  // (factory, workload)

class RecoveryEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(RecoveryEquivalence, ReopenMatchesCleanState) {
  const auto& factory = kFactories[std::get<0>(GetParam())];
  const auto wk = kWorkloads[std::get<1>(GetParam())];

  pmem::Arena::Options o;
  o.size = size_t{128} << 20;
  o.check = true;  // the whole run must be PMCheck-clean (asserted below)
  pmem::Arena arena(o);

  const auto keys = workload::make_workload(wk, 4000, 21);
  std::map<std::string, std::string> ref;
  {
    auto index = factory.make(arena);
    common::Rng rng(5);
    // Insert everything, then churn: delete a third, update a third.
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string v = "v" + std::to_string(i % 53);
      index->insert(keys[i], v);
      ref[keys[i]] = v;
    }
    for (size_t i = 0; i < keys.size(); i += 3) {
      index->remove(keys[i]);
      ref.erase(keys[i]);
    }
    for (size_t i = 1; i < keys.size(); i += 3) {
      index->update(keys[i], "updated!");
      ref[keys[i]] = "updated!";
    }
    EXPECT_EQ(index->size(), ref.size());
  }

  // Re-open: constructor recovers from PM.
  auto reopened = factory.make(arena);
  EXPECT_EQ(reopened->size(), ref.size());
  for (const auto& [k, v] : ref) {
    std::string got;
    ASSERT_EQ(reopened->search(k, &got), common::Status::kOk) << factory.name << " lost " << k;
    EXPECT_EQ(got, v) << k;
  }
  for (size_t i = 0; i < keys.size(); i += 3)
    EXPECT_EQ(reopened->search(keys[i], nullptr), common::Status::kNotFound)
        << factory.name << " resurrected " << keys[i];

  // Ordered iteration agrees with the reference map.
  std::vector<std::pair<std::string, std::string>> out;
  reopened->range(std::string(1, '0'), ref.size() + 10, &out);
  ASSERT_EQ(out.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }

  // And the reopened index remains writable.
  EXPECT_EQ(reopened->insert("zzz-new-key", "fresh"), common::Status::kInserted);
  std::string v;
  EXPECT_EQ(reopened->search("zzz-new-key", &v), common::Status::kOk);

  const pmcheck::Report rep = arena.pm_report();
  EXPECT_EQ(rep.total(), 0u) << factory.name << ": " << rep.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RecoveryEquivalence,
    ::testing::Combine(::testing::Range<size_t>(0, 4),
                       ::testing::Range<size_t>(0, 3)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(kFactories[std::get<0>(info.param)].name) + "_" +
             workload::workload_name(kWorkloads[std::get<1>(info.param)]);
    });

}  // namespace
}  // namespace hart
