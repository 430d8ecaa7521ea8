// Cross-tree conformance suite: every Index implementation (HART, WOART,
// ART+CoW, FPTree and the DRAM-ART oracle) must satisfy the same functional
// contract. Runs each scenario against all five via TEST_P.
#include <gtest/gtest.h>

#include "hart_options.h"

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "art/dram_index.h"
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

// A tree's id is the test parameter: ctest names print it and
// RandomChurnAgainstReference seeds from it. Ids are never renumbered (4 was
// WORT, since deleted), so removing a tree renames no other tree's tests.
struct TreeFactory {
  size_t id;
  const char* name;
  std::function<std::unique_ptr<common::Index>(pmem::Arena&)> make;
};

const TreeFactory kFactories[] = {
    {0, "HART",
     [](pmem::Arena& a) {
       return std::make_unique<core::Hart>(a, testutil::hart_options());
     }},
    {1, "WOART",
     [](pmem::Arena& a) { return std::make_unique<pmart::Woart>(a); }},
    {2, "ARTCoW",
     [](pmem::Arena& a) { return std::make_unique<pmart::ArtCow>(a); }},
    {3, "FPTree",
     [](pmem::Arena& a) { return std::make_unique<fptree::FpTree>(a); }},
    {5, "DramArt",
     [](pmem::Arena&) { return std::make_unique<art::DramIndex>(); }},
};

const TreeFactory& factory(size_t id) {
  for (const auto& f : kFactories) {
    if (f.id == id) return f;
  }
  throw std::out_of_range("no tree with id " + std::to_string(id));
}

class IndexParamTest : public ::testing::TestWithParam<size_t> {
 protected:
  IndexParamTest() {
    pmem::Arena::Options o;
    o.size = size_t{256} << 20;
    arena_ = std::make_unique<pmem::Arena>(o);
    index_ = factory(GetParam()).make(*arena_);
  }
  std::unique_ptr<pmem::Arena> arena_;
  std::unique_ptr<common::Index> index_;
};

TEST_P(IndexParamTest, EmptyIndexMissesEverything) {
  std::string v;
  EXPECT_EQ(index_->search("anything", &v), common::Status::kNotFound);
  EXPECT_EQ(index_->remove("anything"), common::Status::kNotFound);
  EXPECT_EQ(index_->update("anything", "x"), common::Status::kNotFound);
  EXPECT_EQ(index_->size(), 0u);
}

TEST_P(IndexParamTest, UpsertContract) {
  EXPECT_EQ(index_->insert("k", "v1"), common::Status::kInserted);
  EXPECT_EQ(index_->insert("k", "v2"), common::Status::kUpdated);
  std::string v;
  ASSERT_EQ(index_->search("k", &v), common::Status::kOk);
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(index_->size(), 1u);
}

TEST_P(IndexParamTest, ValueSizeBoundaries) {
  // One value per size-class boundary: {8,16,32,64} classes.
  const std::map<std::string, size_t> lens = {
      {"a", 1},  {"b", 8},  {"c", 9},  {"d", 16},
      {"e", 17}, {"f", 32}, {"g", 33}, {"h", 64}};
  for (const auto& [k, len] : lens)
    EXPECT_EQ(index_->insert(k, std::string(len, 'x' )), common::Status::kInserted) << k;
  for (const auto& [k, len] : lens) {
    std::string v;
    ASSERT_EQ(index_->search(k, &v), common::Status::kOk) << k;
    EXPECT_EQ(v.size(), len) << k;
  }
  EXPECT_EQ(index_->insert("z", std::string(65, 'x')),
            common::Status::kInvalidArgument);
  EXPECT_EQ(index_->insert("z", ""), common::Status::kInvalidArgument);
}

TEST_P(IndexParamTest, KeyLengthBoundaries) {
  const std::string k1(1, 'k');
  const std::string k24(24, 'k');
  EXPECT_EQ(index_->insert(k1, "v"), common::Status::kInserted);
  EXPECT_EQ(index_->insert(k24, "v"), common::Status::kInserted);
  std::string v;
  EXPECT_EQ(index_->search(k1, &v), common::Status::kOk);
  EXPECT_EQ(index_->search(k24, &v), common::Status::kOk);
  EXPECT_EQ(index_->insert(std::string(25, 'k'), "v"),
            common::Status::kInvalidArgument);
  EXPECT_EQ(index_->insert("", "v"), common::Status::kInvalidArgument);
}

TEST_P(IndexParamTest, InvalidKeysRejectedUniformly) {
  // API v2 contract: embedded-NUL and over-length keys come back as
  // kInvalidArgument from every operation, nothing is mutated, and no
  // exception escapes the index.
  const std::string nul_key("a\0b", 3);
  const std::string long_key(25, 'k');
  const common::Status bad = common::Status::kInvalidArgument;
  for (const std::string& k : {nul_key, long_key, std::string()}) {
    EXPECT_EQ(index_->insert(k, "v"), bad);
    EXPECT_EQ(index_->search(k, nullptr), bad);
    EXPECT_EQ(index_->update(k, "v"), bad);
    EXPECT_EQ(index_->remove(k), bad);
  }
  EXPECT_EQ(index_->size(), 0u);
  // An invalid range start scans nothing rather than throwing.
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(index_->range(nul_key, 10, &out), 0u);
  // The index still works afterwards.
  EXPECT_EQ(index_->insert("good", "v"), common::Status::kInserted);
  EXPECT_EQ(index_->search("good", nullptr), common::Status::kOk);
}

TEST_P(IndexParamTest, PrefixKeysAreIndependent) {
  for (const char* k : {"a", "ab", "abc", "abcd", "abcde"})
    EXPECT_EQ(index_->insert(k, k), common::Status::kInserted);
  EXPECT_EQ(index_->remove("abc"), common::Status::kOk);
  for (const char* k : {"a", "ab", "abcd", "abcde"}) {
    std::string v;
    EXPECT_EQ(index_->search(k, &v), common::Status::kOk) << k;
    EXPECT_EQ(v, k);
  }
  EXPECT_EQ(index_->search("abc", nullptr), common::Status::kNotFound);
}

TEST_P(IndexParamTest, RangeScanOrderedWithLimit) {
  std::map<std::string, std::string> ref;
  common::Rng rng(44);
  while (ref.size() < 300) {
    std::string k;
    const size_t len = 2 + rng.next_below(10);
    for (size_t j = 0; j < len; ++j)
      k.push_back(static_cast<char>('A' + rng.next_below(20)));
    ref[k] = "v" + k.substr(0, 10);
    index_->insert(k, ref[k]);
  }
  const std::string lo = std::next(ref.begin(), 57)->first;
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(index_->range(lo, 40, &out), 40u);
  auto it = ref.lower_bound(lo);
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST_P(IndexParamTest, DictionaryWorkloadRoundTrip) {
  const auto words = workload::make_dictionary(3000, 7);
  for (size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(index_->insert(words[i], "w" + std::to_string(i % 100)), common::Status::kInserted);
  EXPECT_EQ(index_->size(), words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    std::string v;
    ASSERT_EQ(index_->search(words[i], &v), common::Status::kOk) << words[i];
    EXPECT_EQ(v, "w" + std::to_string(i % 100));
  }
  // Delete every other word.
  for (size_t i = 0; i < words.size(); i += 2)
    EXPECT_EQ(index_->remove(words[i]), common::Status::kOk);
  for (size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(index_->search(words[i], nullptr).ok(), i % 2 == 1) << words[i];
}

TEST_P(IndexParamTest, SequentialWorkloadRoundTrip) {
  const auto keys = workload::make_sequential(2000);
  for (const auto& k : keys) EXPECT_EQ(index_->insert(k, "v"), common::Status::kInserted);
  for (const auto& k : keys) EXPECT_EQ(index_->search(k, nullptr), common::Status::kOk);
  // Sequential keys are dense: the range from the first key returns them
  // in generation order.
  std::vector<std::pair<std::string, std::string>> out;
  index_->range(keys.front(), 100, &out);
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i].first, keys[i]);
}

TEST_P(IndexParamTest, RandomChurnAgainstReference) {
  std::map<std::string, std::string> ref;
  common::Rng rng(GetParam() * 100 + 17);
  for (int step = 0; step < 3000; ++step) {
    std::string k;
    const size_t len = 1 + rng.next_below(8);
    for (size_t j = 0; j < len; ++j)
      k.push_back(static_cast<char>('a' + rng.next_below(5)));
    const std::string val = "v" + std::to_string(step % 37);
    switch (rng.next_below(5)) {
      case 0:
      case 1:
      case 2: {
        EXPECT_EQ(index_->insert(k, val) == common::Status::kInserted,
                  ref.find(k) == ref.end());
        ref[k] = val;
        break;
      }
      case 3: {
        std::string v;
        const bool found = index_->search(k, &v).ok();
        EXPECT_EQ(found, ref.count(k) == 1);
        if (found) {
          EXPECT_EQ(v, ref[k]);
        }
        break;
      }
      default:
        EXPECT_EQ(index_->remove(k).ok(), ref.erase(k) == 1);
        break;
    }
  }
  EXPECT_EQ(index_->size(), ref.size());
}

TEST_P(IndexParamTest, MemoryUsageIsReported) {
  for (int i = 0; i < 2000; ++i)
    index_->insert("key" + std::to_string(i), "value123");
  const auto mu = index_->memory_usage();
  if (std::string(index_->name()) == "DRAM-ART") {
    EXPECT_EQ(mu.pm_bytes, 0u);  // nothing persistent by design
  } else {
    EXPECT_GT(mu.pm_bytes, 0u);
  }
  // Hybrid trees report DRAM too; pure PM trees report zero DRAM.
  const std::string name = index_->name();
  if (name == "HART" || name == "FPTree" || name == "DRAM-ART") {
    EXPECT_GT(mu.dram_bytes, 0u);
  } else {
    EXPECT_EQ(mu.dram_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrees, IndexParamTest,
                         ::testing::Values(0, 1, 2, 3, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return factory(info.param).name;
                         });

}  // namespace
}  // namespace hart
