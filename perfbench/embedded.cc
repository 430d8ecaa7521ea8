// embedded_dict: one thread on a bare core::Hart with default options and
// the figure benches' spin-per-persist PM latency model (600/300 ns), over
// synthetic Dictionary keys. Each cycle opens a fresh arena and tree and
// runs four phases over the full key set, each in its own seeded shuffled
// order: insert every key; get every key plus as many never-inserted
// keys; update every key; delete every key. Cycles repeat until the run's
// time is spent; each reported figure is the median over cycles.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "hart/hart.h"
#include "pmem/arena.h"
#include "workload/keygen.h"

namespace perfbench {
namespace {

constexpr size_t kKeys = 100000;
constexpr size_t kArenaMb = 128;
constexpr size_t kMinCycles = 3;
constexpr size_t kSetupReps = 9;  // tree opens timed per cycle (median kept)

struct Phase {
  OpType type;
  std::vector<uint32_t> order;  // key indices; >= kKeys are never inserted
};

struct PhaseTotals {
  uint64_t ops = 0;
  uint64_t call_ns = 0;  // sum of timed calls
  hart::pmem::StatsSnapshot pm;
  Counters ctr;
};

void add_pm(hart::pmem::StatsSnapshot* acc, const hart::pmem::StatsSnapshot& a,
            const hart::pmem::StatsSnapshot& b) {
  acc->persist_calls += b.persist_calls - a.persist_calls;
  acc->persisted_bytes += b.persisted_bytes - a.persisted_bytes;
  acc->pm_read_lines += b.pm_read_lines - a.pm_read_lines;
  acc->injected_ns += b.injected_ns - a.injected_ns;
}

std::vector<uint32_t> shuffled(size_t n, hart::common::Rng* rng) {
  std::vector<uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  for (size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng->next_below(i)]);
  return v;
}

struct Pass {
  WindowedLatency lat{0};
  std::vector<double> setup_s, kops, pm_per_key, dram_per_key;
  PhaseTotals totals[kOpTypes];
  uint64_t cpu_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t misses = 0;
};

Pass run_pass(const std::vector<std::string>& keys,
              const std::vector<Phase>& phases, double seconds) {
  Pass out;
  hart::pmem::Arena::Options ao;
  ao.size = kArenaMb << 20;
  ao.latency = hart::pmem::LatencyConfig::c600_300();
  auto fail = [&out](const char* what, const std::string& key) {
    if (out.failed++ < 5)
      std::fprintf(stderr, "perfbench: wrong %s result for key '%s'\n", what,
                   key.c_str());
  };
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t cpu0 = process_cpu_ns();
  std::string got;
  for (size_t cycle = 0; cycle < kMinCycles || now_ns() < deadline; ++cycle) {
    // Set-up is sub-millisecond, so time several opens and keep the last
    // arena and tree for the cycle.
    std::vector<double> opens;
    for (size_t i = 1; i < kSetupReps; ++i) {
      const uint64_t s0 = now_ns();
      hart::pmem::Arena scratch(ao);
      hart::core::Hart t(scratch);
      opens.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    }
    const uint64_t s0 = now_ns();
    hart::pmem::Arena arena(ao);
    hart::core::Hart tree(arena);
    opens.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    out.setup_s.push_back(median(opens));
    out.lat.w.emplace_back(kOpTypes);
    uint64_t cycle_ns = 0;
    uint64_t cycle_ops = 0;
    for (const Phase& ph : phases) {
      auto& samples = out.lat.w.back()[ph.type];
      samples.reserve(ph.order.size());
      PhaseTotals& tot = out.totals[ph.type];
      const hart::pmem::StatsSnapshot pm0 = arena.stats().snapshot();
      const Counters c0 = Counters::read();
      const uint64_t p0 = now_ns();
      for (const uint32_t k : ph.order) {
        const std::string& key = keys[k];
        uint64_t t0 = 0;
        uint64_t t1 = 0;
        bool ok = false;
        switch (ph.type) {
          case kPut: {
            const std::string v = value_of(k, 1);
            t0 = now_ns();
            const auto s = tree.insert(key, v);
            t1 = now_ns();
            ok = s.code() == hart::common::Status::kInserted;
            break;
          }
          case kGet: {
            t0 = now_ns();
            const auto s = tree.search(key, &got);
            t1 = now_ns();
            if (k < kKeys) {
              ok = s.code() == hart::common::Status::kOk && got == value_of(k, 1);
            } else {
              ok = s.code() == hart::common::Status::kNotFound;
              ++out.misses;
            }
            break;
          }
          case kUpdate: {
            const std::string v = value_of(k, 2);
            t0 = now_ns();
            const auto s = tree.update(key, v);
            t1 = now_ns();
            ok = s.code() == hart::common::Status::kOk;
            break;
          }
          case kDelete: {
            t0 = now_ns();
            const auto s = tree.remove(key);
            t1 = now_ns();
            ok = s.code() == hart::common::Status::kOk;
            break;
          }
        }
        if (!ok) fail(op_name(ph.type), key);
        samples.push_back(t1 - t0);
        tot.call_ns += t1 - t0;
      }
      const uint64_t p1 = now_ns();
      tot.ops += ph.order.size();
      add_pm(&tot.pm, pm0, arena.stats().snapshot());
      tot.ctr += Counters::read() - c0;
      cycle_ns += p1 - p0;
      cycle_ops += ph.order.size();
      out.attempted += ph.order.size();
      if (ph.type == kPut) {
        out.pm_per_key.push_back(
            static_cast<double>(arena.stats().snapshot().pm_block_bytes) /
            static_cast<double>(kKeys));
        out.dram_per_key.push_back(
            static_cast<double>(tree.memory_usage().dram_bytes) /
            static_cast<double>(kKeys));
      }
    }
    if (tree.size() != 0) fail("final size", "*");
    out.kops.push_back(static_cast<double>(cycle_ops) /
                       (static_cast<double>(cycle_ns) / 1e9) / 1e3);
  }
  out.cpu_ns = process_cpu_ns() - cpu0;
  return out;
}

}  // namespace

Result run_embedded(const Args& a) {
  // Inputs, made before any clock starts: 2 * kKeys distinct Dictionary
  // words, seeded-shuffled so the first kKeys are inserted and the rest
  // are never inserted; one seeded order per phase.
  hart::common::Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::string> words =
      hart::workload::make_dictionary(2 * kKeys, a.seed);
  const std::vector<uint32_t> perm = shuffled(words.size(), &rng);
  std::vector<std::string> keys(words.size());
  for (size_t i = 0; i < perm.size(); ++i) keys[i] = std::move(words[perm[i]]);
  std::vector<Phase> phases = {{kPut, shuffled(kKeys, &rng)},
                               {kGet, shuffled(2 * kKeys, &rng)},
                               {kUpdate, shuffled(kKeys, &rng)},
                               {kDelete, shuffled(kKeys, &rng)}};

  Result r;
  r.note("keys", std::to_string(kKeys));
  r.note("miss_keys", std::to_string(kKeys));
  r.note("value_bytes", "16");
  r.note("arena_mb", std::to_string(kArenaMb));
  r.note("latency_model", "spin per persist/read (Arena default)");
  {
    hart::pmem::Arena::Options ao;
    ao.size = kArenaMb << 20;
    hart::pmem::Arena arena(ao);
    hart::core::Hart tree(arena);
    r.note("alloc_kind", tree.allocator().kind_name());
    r.note("alloc_stripes", std::to_string(tree.allocator().stripe_count()));
  }

  if (!a.trace) {
    Pass p = run_pass(keys, phases, a.seconds);
    r.attempted = p.attempted;
    r.failed = p.failed;
    r.add("setup_s", median(p.setup_s), "s", p.setup_s.size());
    r.add("throughput_kops", median(p.kops), "kops", p.kops.size());
    add_latency_metrics(&p.lat, &r);
    r.add("pm_bytes_per_key", median(p.pm_per_key), "B", kKeys);
    r.add("dram_bytes_per_key", median(p.dram_per_key), "B", kKeys);
    r.note("cycles", std::to_string(p.kops.size()));
    return r;
  }

  // Traced run: an untraced pass for the overhead reference, then the
  // traced pass. The spans are the timed Hart calls themselves.
  const Pass base = run_pass(keys, phases, a.seconds / 2);
  Pass p = run_pass(keys, phases, a.seconds / 2);
  r.attempted = base.attempted + p.attempted;
  r.failed = base.failed + p.failed;
  uint64_t all_ops = 0;
  Counters all;
  hart::pmem::StatsSnapshot pm_all;
  for (size_t t = 0; t < kOpTypes; ++t) {
    const PhaseTotals& tot = p.totals[t];
    const double n = static_cast<double>(tot.ops);
    all_ops += tot.ops;
    all += tot.ctr;
    add_pm(&pm_all, {}, tot.pm);
    const std::string op = op_name(t);
    r.add("hart.cpu_ns_per_op." + op,
          (static_cast<double>(tot.call_ns) -
           static_cast<double>(tot.pm.injected_ns)) / n, "ns", tot.ops);
    r.add("pmem.persists_per_op." + op,
          static_cast<double>(tot.pm.persist_calls) / n, "count", tot.ops);
    r.add("pmem.persisted_bytes_per_op." + op,
          static_cast<double>(tot.pm.persisted_bytes) / n, "B", tot.ops);
    r.add("pmem.read_lines_per_op." + op,
          static_cast<double>(tot.pm.pm_read_lines) / n, "count", tot.ops);
    r.add("pmem.injected_ns_per_op." + op,
          static_cast<double>(tot.pm.injected_ns) / n, "ns", tot.ops);
  }
  const double n_all = static_cast<double>(all_ops);
  r.add("pmem.persists_per_op.all",
        static_cast<double>(pm_all.persist_calls) / n_all, "count", all_ops);
  r.add("pmem.persisted_bytes_per_op.all",
        static_cast<double>(pm_all.persisted_bytes) / n_all, "B", all_ops);
  r.add("pmem.read_lines_per_op.all",
        static_cast<double>(pm_all.pm_read_lines) / n_all, "count", all_ops);
  r.add("pmem.injected_ns_per_op.all",
        static_cast<double>(pm_all.injected_ns) / n_all, "ns", all_ops);
  const PhaseTotals& gets = p.totals[kGet];
  const double n_get = static_cast<double>(gets.ops);
  const double misses = static_cast<double>(p.misses);
  r.add("hart.fp_skip_ratio", gets.ctr.at(Counters::kFpSkip) / misses, "ratio",
        p.misses);
  r.add("hart.fp_false_positives_per_kmiss",
        gets.ctr.at(Counters::kFpFalsePositive) * 1e3 / misses, "count",
        p.misses);
  r.add("art.optimistic_retries_per_kget",
        gets.ctr.at(Counters::kOptRetry) * 1e3 / n_get, "count", gets.ops);
  r.add("art.read_fallbacks_per_kget",
        gets.ctr.at(Counters::kReadFallback) * 1e3 / n_get, "count", gets.ops);
  r.add("art.simd_cmps_per_get", gets.ctr.at(Counters::kSimdCmp) / n_get,
        "count", gets.ops);
  r.add("epalloc.meta_persists_per_op", all.at(Counters::kMetaPersists) / n_all,
        "count", all_ops);
  r.add("epalloc.stripe_steals_per_kop",
        all.at(Counters::kStripeSteals) * 1e3 / n_all, "count", all_ops);
  r.add("epalloc.meta_flush_batches_per_kop",
        all.at(Counters::kMetaFlushBatches) * 1e3 / n_all, "count", all_ops);
  r.add("common.ebr_deferred_frees_per_kop",
        all.at(Counters::kEbrDeferredFree) * 1e3 / n_all, "count", all_ops);
  r.add("proc.cpu_us_per_op", static_cast<double>(p.cpu_ns) / 1e3 / n_all,
        "us", all_ops);
  const double base_kops = median(base.kops);
  r.add("bench.trace_overhead_pct", (base_kops - median(p.kops)) / base_kops * 100,
        "%", p.kops.size());
  return r;
}

}  // namespace perfbench
