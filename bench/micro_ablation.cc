// Micro-benchmarks and ablations (google-benchmark) for the design choices
// DESIGN.md calls out:
//   * EPallocator vs naive per-object persistent allocation (the paper's
//     motivation for chunked allocation, Section III.A.4);
//   * the hash-key length kh (0 disables hash assist entirely — the
//     "hash-assisted" ablation; the paper uses kh=2);
//   * hash-directory lookup cost;
//   * per-operation persist counts under selective persistence.
#include <benchmark/benchmark.h>

#include <chrono>

#include "art/dram_index.h"
#include "art/simd.h"
#include "bench/bench_common.h"
#include "common/bloom.h"
#include "common/histogram.h"
#include "epalloc/allocator.h"
#include "hart/verify.h"
#include "workload/mixes.h"
#include "hart/hart_leaf.h"

namespace {

using namespace hart;

pmem::Arena::Options quiet_arena(size_t mb = 512) {
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.latency = pmem::LatencyConfig::c300_100();
  return o;
}

// --- EPallocator vs raw persistent allocation -----------------------------

void BM_EPAllocatorAllocFree(benchmark::State& state) {
  pmem::Arena arena(quiet_arena());
  struct R {
    epalloc::EPRoot ep;
  };
  // One stripe, eager header persists: the paper's EPallocator.
  epalloc::Allocator ep(arena, &arena.root<R>()->ep, sizeof(core::HartLeaf),
                        {.stripes = 1, .batched_meta = false});
  for (auto _ : state) {
    uint64_t off = 0;
    if (!ep.reserve(epalloc::ObjType::kLeaf, &off).ok()) {
      state.SkipWithError("arena exhausted");
      break;
    }
    ep.commit(epalloc::ObjType::kLeaf, off);
    ep.free_object(epalloc::ObjType::kLeaf, off);
    benchmark::DoNotOptimize(off);
  }
}
BENCHMARK(BM_EPAllocatorAllocFree);

void BM_RawPmAllocFree(benchmark::State& state) {
  // The naive approach EPallocator replaces: one PM allocation (with its
  // modeled metadata flush) per object.
  pmem::Arena arena(quiet_arena());
  for (auto _ : state) {
    const uint64_t off = arena.alloc(sizeof(core::HartLeaf), 8);
    arena.persist(arena.ptr<char>(off), sizeof(core::HartLeaf));
    arena.free(off, sizeof(core::HartLeaf), 8);
    benchmark::DoNotOptimize(off);
  }
}
BENCHMARK(BM_RawPmAllocFree);

// --- kh sweep: hash-assist ablation ----------------------------------------

void BM_HartInsert_kh(benchmark::State& state) {
  const auto kh = static_cast<uint32_t>(state.range(0));
  const auto keys = workload::make_random(50000, 11);
  for (auto _ : state) {
    state.PauseTiming();
    pmem::Arena arena(quiet_arena(1024));
    core::Hart h(arena, {.hash_key_len = kh});
    state.ResumeTiming();
    for (size_t i = 0; i < keys.size(); ++i)
      h.insert(keys[i], bench::value_for(i));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_HartInsert_kh)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_HartSearch_kh(benchmark::State& state) {
  const auto kh = static_cast<uint32_t>(state.range(0));
  const auto keys = workload::make_random(50000, 11);
  pmem::Arena arena(quiet_arena(1024));
  core::Hart h(arena, {.hash_key_len = kh});
  for (size_t i = 0; i < keys.size(); ++i)
    h.insert(keys[i], bench::value_for(i));
  std::string v;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.search(keys[i], &v));
    i = (i + 7919) % keys.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HartSearch_kh)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --- hash directory ----------------------------------------------------------

// Arg 0: 2000 random 16-bit prefixes. Arg 1: all 3,844 two-byte
// prefixes of the base-62 Random/Sequential alphabet (kh=2's maximum
// partition count for those workloads).
void BM_HashDirFind(benchmark::State& state) {
  pmem::Arena arena(quiet_arena());
  core::HashDir dir(core::HartLeafTraits{2, &arena}, nullptr);
  std::vector<uint64_t> hkeys;
  if (state.range(0) == 0) {
    common::Rng rng(3);
    for (int i = 0; i < 2000; ++i)
      hkeys.push_back(rng.next() & 0xffff'0000'0000'0000ULL);
  } else {
    const std::string_view a =
        "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    for (const char x : a)
      for (const char y : a)
        hkeys.push_back(core::pack_hash_key(std::string{x, y}, 2));
  }
  for (const uint64_t hk : hkeys) dir.find_or_create(hk);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.find(hkeys[i]));
    i = (i + 13) % hkeys.size();
  }
}
BENCHMARK(BM_HashDirFind)->ArgName("base62")->Arg(0)->Arg(1);

// --- persist counts: selective persistence in numbers -----------------------

void BM_PersistsPerInsert(benchmark::State& state) {
  // Reported as a counter, not a time: how many persistent() calls one
  // steady-state insert costs for HART vs WOART (the paper's Section
  // III.A.2 argument in numbers).
  const auto kind = static_cast<bench::TreeKind>(state.range(0));
  const auto keys = workload::make_random(20000, 5);
  double per_op = 0;
  for (auto _ : state) {
    pmem::Arena arena(quiet_arena(1024));
    auto idx = bench::make_tree(kind, arena);
    for (size_t i = 0; i < keys.size() / 2; ++i)
      idx->insert(keys[i], bench::value_for(i));
    const uint64_t before = arena.stats().persist_calls.load() +
                            arena.stats().alloc_meta_persists.load();
    for (size_t i = keys.size() / 2; i < keys.size(); ++i)
      idx->insert(keys[i], bench::value_for(i));
    const uint64_t after = arena.stats().persist_calls.load() +
                           arena.stats().alloc_meta_persists.load();
    per_op = static_cast<double>(after - before) /
             static_cast<double>(keys.size() / 2);
  }
  state.counters["persists_per_insert"] = per_op;
}
BENCHMARK(BM_PersistsPerInsert)
    ->Arg(0)  // HART
    ->Arg(1)  // WOART
    ->Arg(2)  // ART+CoW
    ->Arg(3); // FPTree

// --- parallel recovery (extension) ------------------------------------------

void BM_HartRecovery(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto keys = workload::make_random(100000, 11);
  pmem::Arena arena(quiet_arena(2048));
  {
    core::Hart h(arena);
    for (size_t i = 0; i < keys.size(); ++i)
      h.insert(keys[i], bench::value_for(i));
  }
  core::Hart h(arena);  // one recovery in the constructor (untimed)
  for (auto _ : state) {
    h.recover(threads);
    benchmark::DoNotOptimize(h.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_HartRecovery)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- value size classes (extension beyond the paper's 8/16) -----------------

void BM_HartInsert_valueSize(benchmark::State& state) {
  const auto vlen = static_cast<size_t>(state.range(0));
  const auto keys = workload::make_random(30000, 13);
  const std::string value(vlen, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    pmem::Arena arena(quiet_arena(1024));
    core::Hart h(arena);
    state.ResumeTiming();
    for (const auto& k : keys) h.insert(k, value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_HartInsert_valueSize)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// --- cursor scan vs one-shot range -------------------------------------------

void BM_HartCursorScan(benchmark::State& state) {
  const auto keys = workload::make_sequential(100000);
  pmem::Arena arena(quiet_arena(1024));
  core::Hart h(arena);
  for (size_t i = 0; i < keys.size(); ++i)
    h.insert(keys[i], bench::value_for(i));
  for (auto _ : state) {
    size_t n = 0;
    core::HartCursor cur(h, keys.front(),
                         static_cast<size_t>(state.range(0)));
    for (; cur.valid(); cur.next()) ++n;
    if (n != keys.size()) state.SkipWithError("short scan");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_HartCursorScan)->Arg(16)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// --- request-distribution skew (Uniform vs Zipfian vs Latest) ----------------

void BM_HartMixedDistribution(benchmark::State& state) {
  const auto dist = static_cast<workload::DistKind>(state.range(0));
  const size_t n_ops = 50000, preload = 25000;
  const auto pool = workload::make_random(preload + n_ops, 7);
  const auto ops = workload::make_mixed_ops(
      n_ops, preload, pool.size(), workload::kReadIntensive, 3, dist);
  for (auto _ : state) {
    state.PauseTiming();
    pmem::Arena arena(quiet_arena(1024));
    core::Hart h(arena);
    for (size_t i = 0; i < preload; ++i)
      h.insert(pool[i], bench::value_for(i));
    state.ResumeTiming();
    std::string v;
    for (const auto& op : ops) {
      const std::string& key = pool[op.key_idx];
      switch (op.type) {
        case workload::OpType::kInsert:
          h.insert(key, bench::value_for(op.key_idx));
          break;
        case workload::OpType::kSearch: h.search(key, &v); break;
        case workload::OpType::kUpdate:
          h.update(key, bench::value_for(op.key_idx, 1));
          break;
        case workload::OpType::kDelete: h.remove(key); break;
      }
    }
  }
  state.SetLabel(workload::dist_name(dist));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n_ops));
}
BENCHMARK(BM_HartMixedDistribution)->Arg(0)->Arg(1)->Arg(2);


// --- cost of persistence: HART vs the volatile DRAM-ART oracle --------------

void BM_CostOfPersistence(benchmark::State& state) {
  // arg 0: DRAM-ART; 1: HART with latency off (pure protocol cost);
  // 2: HART at 300/100; 3: HART at 600/300.
  const auto mode = state.range(0);
  const auto keys = workload::make_random(30000, 19);
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<pmem::Arena> arena;
    std::unique_ptr<common::Index> idx;
    if (mode == 0) {
      idx = std::make_unique<art::DramIndex>();
    } else {
      auto o = quiet_arena(1024);
      o.latency = mode == 1   ? pmem::LatencyConfig::off()
                  : mode == 2 ? pmem::LatencyConfig::c300_100()
                              : pmem::LatencyConfig::c600_300();
      arena = std::make_unique<pmem::Arena>(o);
      idx = std::make_unique<core::Hart>(*arena);
    }
    state.ResumeTiming();
    for (size_t i = 0; i < keys.size(); ++i)
      idx->insert(keys[i], bench::value_for(i));
  }
  static const char* kLabels[] = {"DRAM-ART", "HART/no-latency",
                                  "HART/300-100", "HART/600-300"};
  state.SetLabel(kLabels[mode]);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_CostOfPersistence)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --- read fast-path ablation: SIMD x fingerprints x Bloom --------------------

pmem::Arena::Options ablation_arena(size_t mb = 1024) {
  // The read fast paths are about skipping PM reads, so the grid runs at
  // the paper's full 300/300 point (not the read-optimistic 300/100 the
  // other ablations use) — the PM reads being skipped must cost something.
  pmem::Arena::Options o;
  o.size = mb << 20;
  o.latency = pmem::LatencyConfig::c300_300();
  return o;
}

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BM_ReadPathAblation(benchmark::State& state) {
  // Full 2^3 layer grid x {hit-heavy, miss-heavy}. Each layer is toggled
  // independently: SIMD via the runtime kill-switch, fingerprints via
  // Hart::Options, the Bloom front via an explicit dispatcher-style probe
  // before each search (what Hartd::serve_get does).
  const bool simd_on = state.range(0) != 0;
  const bool fp_on = state.range(1) != 0;
  const bool bloom_on = state.range(2) != 0;
  const bool miss_heavy = state.range(3) != 0;

  constexpr size_t kLive = 100000;
  const auto pool = workload::make_random(2 * kLive, 23);

  pmem::Arena arena(ablation_arena());
  core::Hart::Options ho;
  ho.fingerprints = fp_on;
  core::Hart h(arena, ho);
  common::CountingBloom bloom(kLive, 10);
  for (size_t i = 0; i < kLive; ++i) {
    h.insert(pool[i], bench::value_for(i));
    bloom.add(pool[i]);
  }

  art::simd::set_enabled(simd_on);
  common::LatencyHistogram hist;
  std::string v;
  size_t i = 0;
  size_t found = 0;
  for (auto _ : state) {
    // Miss-heavy probes the unloaded half of the pool (every lookup a
    // definitive miss); hit-heavy probes only live keys.
    const std::string& key =
        miss_heavy ? pool[kLive + i] : pool[i];
    const uint64_t t0 = now_ns();
    if (!bloom_on || bloom.may_contain(key)) {
      if (h.search(key, &v).ok()) ++found;
    }
    hist.record(now_ns() - t0);
    i = (i + 7919) % kLive;
  }
  art::simd::set_enabled(true);

  if (!miss_heavy && found == 0) state.SkipWithError("no hits");
  const auto p = hist.percentiles();
  state.counters["p50_ns"] = static_cast<double>(p.p50_ns);
  state.counters["p99_ns"] = static_cast<double>(p.p99_ns);
  state.SetLabel(std::string(simd_on ? "simd" : "scalar") +
                 (fp_on ? "+fp" : "") + (bloom_on ? "+bloom" : "") +
                 (miss_heavy ? "/miss" : "/hit"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadPathAblation)
    ->ArgsProduct({{0, 1}, {0, 1}, {0, 1}, {0, 1}});

void BM_FastPathInsertOverhead(benchmark::State& state) {
  // The acceptance gate for the read layers: inserts must not pay for
  // them. arg 0 = baseline, 1 = fingerprints (the always-on layer — this
  // is what fig4 inserts now include: one derived byte inside the
  // already-persisted leaf tail), 2 = fingerprints + Bloom maintenance
  // (the opt-in service-layer filter, one add per fresh key).
  const auto mode = state.range(0);
  const auto keys = workload::make_random(50000, 29);
  for (auto _ : state) {
    state.PauseTiming();
    pmem::Arena arena(ablation_arena());
    core::Hart::Options ho;
    ho.fingerprints = mode >= 1;
    core::Hart h(arena, ho);
    common::CountingBloom bloom(keys.size(), 10);
    state.ResumeTiming();
    for (size_t i = 0; i < keys.size(); ++i) {
      h.insert(keys[i], bench::value_for(i));
      if (mode >= 2) bloom.add(keys[i]);
    }
  }
  static const char* kLabels[] = {"baseline", "fp", "fp+bloom"};
  state.SetLabel(kLabels[mode]);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_FastPathInsertOverhead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
