// Exhaustive crash sweep of HART's write paths (DESIGN.md §4). A short
// seeded history of inserts, updates and deletes — class-changing updates
// and deletes that empty chunks, so chunk recycles run too, and inside one
// batch a delete followed by a re-insert of the key and an update followed
// by a delete — is replayed once per persist boundary and crashed at each
// one in turn (stride 1, not a strided sample). After every recovery:
//   1. acked ⇒ durable: a key with no unacked operation holds exactly its
//      acked state;
//   2. the recovered contents equal a DramIndex oracle of the acked state
//      in which each key with unacked operations may instead hold the
//      state after any one of them (and nothing else, never a torn value);
//   3. no two live leaves carry one key, verify_hart_image reports no
//      error, live PM bytes equal the reachable chunks, and PMCheck saw no
//      violation;
//   4. all of the above still holds after the recovered tree re-allocates
//      the freed value and leaf slots (updates, then fresh inserts).
// Eager allocator metadata acks each operation when it returns; batched
// metadata acks at the epoch fence, as hartd does. Batched metadata also
// runs with the paper's locked reads, where a freed value slot is
// reusable at once rather than after an EBR grace period, so a batch
// overwrites the values it frees before its fence. Each runs under the
// strict crash model (every unflushed line lost) and under eviction: a
// crash point with at most kMaxEnumeratedLines unflushed cache lines is
// recovered from every non-empty subset of them surviving (each subset is
// a replay of the history to the same point; the empty one is the strict
// run), and one with more from one seeded random subset, each line
// surviving with probability 0.5.
// The tier-1 cases use one short history; the crash_long ctest leg sweeps
// longer histories over several seeds.
#include <gtest/gtest.h>

#include "checked_arena.h"

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "art/dram_index.h"
#include "common/rng.h"
#include "hart/hart.h"
#include "hart/verify.h"
#include "obs/counters.h"

namespace hart::core {
namespace {

enum class OpKind { kInsert, kUpdate, kRemove, kFence, kQuiesce };

struct Op {
  OpKind kind;
  std::string key;
  std::string value;
};

// Spread over four partitions (kh = 2), with keys that are prefixes of
// others and a key shorter than the hash prefix, so ART splits and path
// compression both show up in the rebuilt trees.
const std::vector<std::string> kKeys = {
    "k",   "ka",   "ka1",  "ka12", "ka123", "ka2",  "kab", "kabc",
    "kb",  "kb1",  "kb12", "kbz",  "kc-long-key-0001", "kc-long-key-0002",
    "kd",  "kd9"};

/// A value unique to `step`, sized for one of the four value classes.
std::string make_value(int step, uint64_t r) {
  static constexpr size_t kLens[] = {3, 12, 28, 60};  // 8/16/32/64 B
  std::string v = std::to_string(step % 1000);
  v.resize(kLens[r % 4], static_cast<char>('a' + step % 26));
  return v;
}

std::vector<Op> make_history(int mix_ops, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Op> ops;
  int step = 0;
  for (size_t i = 0; i < 10; ++i)
    ops.push_back({OpKind::kInsert, kKeys[i], make_value(step++, rng.next())});
  ops.push_back({OpKind::kFence, "", ""});
  // One batch, two patterns the delete's single eager persist must order
  // correctly: delete then re-insert a key (the old leaf's clear must be
  // durable before the new leaf can be), and update then delete one (the
  // freed values are reused at once).
  ops.push_back({OpKind::kRemove, kKeys[0], ""});
  ops.push_back({OpKind::kInsert, kKeys[0], make_value(step++, rng.next())});
  ops.push_back({OpKind::kUpdate, kKeys[1], make_value(step++, rng.next())});
  ops.push_back({OpKind::kRemove, kKeys[1], ""});
  ops.push_back({OpKind::kInsert, kKeys[10], make_value(step++, rng.next())});
  ops.push_back({OpKind::kFence, "", ""});
  for (int i = 0; i < mix_ops; ++i) {
    const std::string& k = kKeys[rng.next_below(kKeys.size())];
    const uint64_t pick = rng.next_below(10);
    if (pick < 3) {
      ops.push_back({OpKind::kInsert, k, make_value(step++, rng.next())});
    } else if (pick < 6) {
      ops.push_back({OpKind::kUpdate, k, make_value(step++, rng.next())});
    } else if (pick < 8) {
      ops.push_back({OpKind::kRemove, k, ""});
    } else if (pick < 9) {
      ops.push_back({OpKind::kFence, "", ""});
    } else {
      ops.push_back({OpKind::kQuiesce, "", ""});
    }
  }
  // Delete everything: every chunk empties. The fence makes the batched
  // bit clears durable, and the quiesce then releases the retired slots,
  // which recycles the empty chunks. Then repopulate a little.
  for (const auto& k : kKeys) ops.push_back({OpKind::kRemove, k, ""});
  ops.push_back({OpKind::kFence, "", ""});
  ops.push_back({OpKind::kQuiesce, "", ""});
  for (size_t i = 0; i < 3; ++i)
    ops.push_back({OpKind::kInsert, kKeys[i], make_value(step++, rng.next())});
  ops.push_back({OpKind::kFence, "", ""});
  return ops;
}

using KeyState = std::optional<std::string>;  // nullopt = absent

/// Acked state in a DramIndex, the state after every completed operation,
/// and per key the states an unacked operation may have left behind.
class Oracle {
 public:
  /// Registers `op` as in flight and returns the status it must return.
  common::Status begin(const Op& op) {
    const KeyState before = current(op.key);
    KeyState after = before;
    common::Status want = common::Status::kOk;
    switch (op.kind) {
      case OpKind::kInsert:
        want = before ? common::Status::kUpdated : common::Status::kInserted;
        after = op.value;
        break;
      case OpKind::kUpdate:
        if (!before) want = common::Status::kNotFound;
        else after = op.value;
        break;
      case OpKind::kRemove:
        if (!before) want = common::Status::kNotFound;
        after.reset();
        break;
      default:
        return want;
    }
    auto& states = unacked_[op.key];
    if (states.empty()) states.push_back(acked_state(op.key));
    states.push_back(after);
    current_[op.key] = after;
    return want;
  }

  /// Everything completed so far is durable.
  void ack() {
    for (const auto& [k, states] : unacked_) {
      const KeyState& now = current_[k];
      if (now) {
        acked_.insert(k, *now);
      } else {
        acked_.remove(k);
      }
    }
    unacked_.clear();
  }

  [[nodiscard]] KeyState acked_state(const std::string& k) const {
    std::string v;
    if (acked_.search(k, &v).ok()) return v;
    return std::nullopt;
  }
  [[nodiscard]] const std::map<std::string, std::vector<KeyState>>& unacked()
      const {
    return unacked_;
  }
  [[nodiscard]] art::DramIndex& acked() { return acked_; }

 private:
  [[nodiscard]] KeyState current(const std::string& k) const {
    const auto it = current_.find(k);
    return it == current_.end() ? std::nullopt : it->second;
  }

  art::DramIndex acked_;
  std::map<std::string, KeyState> current_;
  std::map<std::string, std::vector<KeyState>> unacked_;
};

struct SweepConfig {
  const char* name;
  bool batched_meta;
  bool evict;  // enumerate survivor subsets (see the file comment)
  // The paper's locked reads: freed slots are reusable at once instead of
  // after an EBR grace period, so a batch reuses the values it frees.
  bool rwlock_reads = false;
};

void PrintTo(const SweepConfig& cfg, std::ostream* os) { *os << cfg.name; }

const SweepConfig kConfigs[] = {
    {"eager", false, false},
    {"eager_evict", false, true},
    {"batched", true, false},
    {"batched_evict", true, true},
    {"batched_rwlock", true, false, true},
    {"batched_rwlock_evict", true, true, true},
};

/// Crash points with at most this many unflushed lines are recovered from
/// every survivor subset (2^4 = 16 replays at most, one of them the strict
/// config's).
constexpr size_t kMaxEnumeratedLines = 4;

Hart::Options hart_options(const SweepConfig& cfg) {
  Hart::Options o;
  o.alloc.batched_meta = cfg.batched_meta;
  o.rwlock_reads = cfg.rwlock_reads;
  return o;
}

testutil::CheckedArena make_arena(const SweepConfig& cfg, uint64_t seed) {
  pmem::Arena::Options o;
  o.size = size_t{2} << 20;
  o.shadow = true;
  // Only crash points with too many unflushed lines to enumerate draw a
  // random survivor subset.
  o.eviction_prob = cfg.evict ? 0.5 : 0.0;
  o.crash_seed = seed;
  return testutil::make_checked_arena(o);
}

constexpr int kFreshKeys = 8;  // inserted after each recovery

std::vector<std::pair<std::string, std::string>> contents(
    const common::Index& index) {
  std::vector<std::pair<std::string, std::string>> out;
  index.range(std::string(1, '\x01'), kKeys.size() + kFreshKeys + 1, &out);
  return out;
}

struct CrashRun {
  bool crashed = false;    // false: the history completed first
  size_t unflushed = 0;    // unflushed lines at the crash point
};

/// Runs `history` with a crash armed at persist `crash_at`, recovers, and
/// checks the recovered image. At the crash, the unflushed lines whose
/// bits are set in `survivors` reach PM (bit i = the i-th lowest line) if
/// there are at most kMaxEnumeratedLines of them; otherwise the arena's
/// eviction_prob draws the survivors.
CrashRun crash_and_check(const SweepConfig& cfg,
                         const std::vector<Op>& history, uint64_t crash_at,
                         uint64_t seed, uint32_t survivors) {
  SCOPED_TRACE(std::string(cfg.name) + " seed=" + std::to_string(seed) +
               " crash_at=" + std::to_string(crash_at) +
               " survivors=" + std::to_string(survivors));
  auto arena = make_arena(cfg, crash_at * 7919 + seed);
  const Hart::Options opts = hart_options(cfg);
  Oracle oracle;
  CrashRun run;
  {
    Hart h(*arena, opts);
    arena->arm_crash_after(crash_at);
    try {
      for (const Op& op : history) {
        const common::Status want = oracle.begin(op);
        switch (op.kind) {
          case OpKind::kInsert:
            EXPECT_EQ(h.insert(op.key, op.value), want) << op.key;
            break;
          case OpKind::kUpdate:
            EXPECT_EQ(h.update(op.key, op.value), want) << op.key;
            break;
          case OpKind::kRemove:
            EXPECT_EQ(h.remove(op.key), want) << op.key;
            break;
          case OpKind::kFence:
            h.flush_epoch();
            oracle.ack();
            break;
          case OpKind::kQuiesce:
            h.quiesce();
            break;
        }
        if (!cfg.batched_meta) oracle.ack();
      }
      arena->disarm_crash();
    } catch (const pmem::CrashPoint&) {
      run.crashed = true;
      const std::vector<uint64_t> lines = arena->unflushed_lines();
      run.unflushed = lines.size();
      if (lines.size() > kMaxEnumeratedLines) {
        arena->crash();
      } else {
        std::vector<uint64_t> keep;
        for (size_t i = 0; i < lines.size(); ++i)
          if (((survivors >> i) & 1) != 0) keep.push_back(lines[i]);
        arena->crash_keeping(keep);
      }
    }
  }

  Hart h2(*arena, opts);  // recovery (Algorithm 7)
  for (const auto& k : kKeys) {
    std::string v;
    const KeyState got =
        h2.search(k, &v).ok() ? KeyState(v) : KeyState(std::nullopt);
    const auto it = oracle.unacked().find(k);
    if (it == oracle.unacked().end()) {
      EXPECT_EQ(got, oracle.acked_state(k)) << "acked state lost: " << k;
      continue;
    }
    bool allowed = false;
    for (const KeyState& s : it->second) allowed = allowed || s == got;
    EXPECT_TRUE(allowed) << k << " recovered as "
                         << (got ? *got : std::string("<absent>"));
    // The oracle adopts the outcome of the unacked operations.
    if (got) {
      oracle.acked().insert(k, *got);
    } else {
      oracle.acked().remove(k);
    }
  }
  EXPECT_EQ(h2.size(), oracle.acked().size());
  EXPECT_EQ(contents(h2), contents(oracle.acked()));
  std::map<std::string, int> leaves_per_key;
  h2.for_each_key(
      [&](std::string_view k) { ++leaves_per_key[std::string(k)]; });
  for (const auto& [k, n] : leaves_per_key)
    EXPECT_EQ(n, 1) << "live leaves carrying " << k;

  const VerifyReport rep = verify_hart_image(*arena);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  uint64_t reachable = 0;
  for (int t = 0; t < epalloc::kNumObjTypes; ++t) {
    const auto type = static_cast<epalloc::ObjType>(t);
    reachable += h2.allocator().chunk_count(type) *
                 h2.allocator().geom(type).chunk_bytes;
  }
  EXPECT_EQ(arena->stats().pm_live_bytes.load(), reachable) << "PM leak";

  // Recovery must leave nothing behind that a later allocation trips
  // over: update every live key (re-allocating freed value slots), then
  // insert fresh keys (re-allocating freed leaf slots, whose stale value
  // words must mean nothing), and check everything again.
  for (const auto& k : kKeys) {
    if (!oracle.acked().search(k, nullptr).ok()) continue;
    EXPECT_EQ(h2.update(k, "after-" + k), common::Status::kOk) << k;
    oracle.acked().insert(k, "after-" + k);
  }
  for (int i = 0; i < kFreshKeys; ++i) {
    const std::string k = "z" + std::to_string(i);
    EXPECT_EQ(h2.insert(k, "fresh"), common::Status::kInserted) << k;
    oracle.acked().insert(k, "fresh");
  }
  EXPECT_EQ(contents(h2), contents(oracle.acked()));
  const VerifyReport after = verify_hart_image(*arena);
  EXPECT_TRUE(after.ok()) << "after reuse: " << after.summary();
  return run;
}

/// Crashes `history` at every persist boundary, from the first persist
/// after construction to the last one of the history; with eviction, at
/// every survivor subset of each enumerable boundary too.
void sweep(const SweepConfig& cfg, int mix_ops, uint64_t seed) {
  const std::vector<Op> history = make_history(mix_ops, seed);
  uint64_t crash_at = 1;
  uint64_t enumerated = 0;  // crash points recovered from every subset
  // With eviction the first replay at a point keeps every unflushed line;
  // the strict config of the same schedule already keeps none.
  const uint32_t first = cfg.evict ? ~uint32_t{0} : 0;
  for (;; ++crash_at) {
    const CrashRun run =
        crash_and_check(cfg, history, crash_at, seed, first);
    if (!run.crashed) break;
    if (::testing::Test::HasFailure()) return;  // first failure is enough
    if (!cfg.evict || run.unflushed > kMaxEnumeratedLines) continue;
    const uint32_t all = (uint32_t{1} << run.unflushed) - 1;
    for (uint32_t s = 1; s < all; ++s) {
      crash_and_check(cfg, history, crash_at, seed, s);
      if (::testing::Test::HasFailure()) return;
    }
    ++enumerated;
  }
  // Sanity: the sweep covered a real write stream, and with eviction
  // nearly every crash point was enumerated.
  EXPECT_GT(crash_at, history.size()) << cfg.name;
  if (cfg.evict) {
    EXPECT_GT(enumerated * 2, crash_at) << cfg.name;
  }
}

class HartCrashSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(HartCrashSweep, EveryPersistBoundary) {
  const uint64_t recycles0 =
      obs::Registry::instance().counter("ep_chunk_recycle_total").value();
  sweep(GetParam(), /*mix_ops=*/40, /*seed=*/1);
  EXPECT_GT(obs::Registry::instance().counter("ep_chunk_recycle_total")
                .value(),
            recycles0)
      << "the history must recycle chunks";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HartCrashSweep, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return std::string(info.param.name);
    });

// The crash_long ctest leg (not part of the default run): longer
// histories, several seeds, every configuration.
TEST(HartCrashSweepLong, EveryPersistBoundary) {
  for (const SweepConfig& cfg : kConfigs) {
    for (uint64_t seed = 2; seed <= 11; ++seed) {
      sweep(cfg, /*mix_ops=*/300, seed);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hart::core
