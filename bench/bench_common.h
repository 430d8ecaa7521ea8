// Shared infrastructure for the paper-figure benchmark harness.
//
// Every bench binary regenerates one figure of the paper's evaluation
// (Section IV): same workloads, same latency configurations, same series
// (HART / WOART / ART+CoW / FPTree), printed as a table on stdout.
// Absolute numbers differ from the paper (different host, emulated PM);
// the *shape* — who wins, by roughly what factor — is the reproduction
// target. See EXPERIMENTS.md.
//
// Environment knobs (defaults chosen to finish in seconds on a laptop):
//   HART_BENCH_RECORDS  records for Sequential/Random    (default 100000)
//   HART_DICT_WORDS     records for Dictionary           (default 100000;
//                       the paper used the full 466544)
//   HART_FIG8_MAX       largest record count in Fig. 8   (default 1000000)
//   HART_BENCH_ARENA_MB arena size per tree              (default 1024)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "artcow/artcow.h"
#include "common/histogram.h"
#include "common/index.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "fptree/fptree.h"
#include "hart/hart.h"
#include "obs/trace.h"
#include "pmem/arena.h"
#include "woart/woart.h"
#include "workload/keygen.h"

namespace hart::bench {

inline size_t env_size(const char* name, size_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

// ---- shared CLI flag parsing --------------------------------------------
// Every bench binary accepts the same flags; each flag is sugar for the
// corresponding HART_* environment knob (the env stays the single source
// of truth, so scripts using either spelling agree). Benches with extra
// knobs pass them via `extra`.

struct BenchFlag {
  const char* flag;  // e.g. "--records"
  const char* env;   // e.g. "HART_BENCH_RECORDS"
  const char* help;
  bool takes_value = true;
};

inline const std::vector<BenchFlag>& common_bench_flags() {
  static const std::vector<BenchFlag> flags = {
      {"--records", "HART_BENCH_RECORDS",
       "records for Sequential/Random workloads (default 100000)", true},
      {"--dict-words", "HART_DICT_WORDS",
       "records for Dictionary (default 100000; paper used 466544)", true},
      {"--arena-mb", "HART_BENCH_ARENA_MB",
       "arena size per tree in MiB (default 1024)", true},
      {"--threads", "HART_BENCH_THREADS",
       "max thread count for scalability benches (default 16)", true},
      {"--latency", "HART_BENCH_LATENCY",
       "run only this PM write/read config, e.g. 300/100 or a custom W/R",
       true},
      {"--csv", "HART_BENCH_CSV",
       "append machine-readable rows to this file", true},
      {"--percentiles", "HART_BENCH_PERCENTILES",
       "collect per-op latency histograms", false},
      {"--trace-out", "HART_TRACE_OUT",
       "write a chrome://tracing JSON timeline of the run to this file",
       true},
  };
  return flags;
}

/// Parse `--flag value` argument pairs into their environment knobs.
/// Handles --help (prints the table, exits 0) and unknown flags (exits 2).
inline void parse_bench_flags(int argc, char** argv, const char* what,
                              std::initializer_list<BenchFlag> extra = {}) {
  std::vector<BenchFlag> flags = common_bench_flags();
  flags.insert(flags.end(), extra.begin(), extra.end());
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::printf("%s\n\nusage: %s [flags]\n", what, argv[0]);
      for (const auto& f : flags)
        std::printf("  %-14s %s%s [env %s]\n", f.flag,
                    f.takes_value ? "N  " : "", f.help, f.env);
      std::exit(0);
    }
    const BenchFlag* hit = nullptr;
    for (const auto& f : flags)
      if (a == f.flag) hit = &f;
    if (hit == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '%s' (try --help)\n", argv[0],
                   a.c_str());
      std::exit(2);
    }
    const char* value = "1";
    if (hit->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], hit->flag);
        std::exit(2);
      }
      value = argv[++i];
    }
    ::setenv(hit->env, value, 1);
  }

  // HART_TRACE_OUT / --trace-out: arm the tracer now (so every phase and
  // op span of the run is captured) and dump the timeline at exit.
  if (const char* path = std::getenv("HART_TRACE_OUT");
      path != nullptr && path[0] != '\0') {
    static std::string trace_path;
    trace_path = path;
    obs::Tracer::instance().enable();
    std::atexit([] {
      if (obs::Tracer::instance().write_chrome_json(trace_path))
        std::fprintf(stderr, "trace: wrote %s (load in chrome://tracing)\n",
                     trace_path.c_str());
      else
        std::fprintf(stderr, "trace: cannot write %s\n", trace_path.c_str());
    });
  }
}

inline size_t bench_records() { return env_size("HART_BENCH_RECORDS", 100000); }
inline size_t dict_words() {
  return env_size("HART_DICT_WORDS", 100000);
}
inline size_t arena_mb() { return env_size("HART_BENCH_ARENA_MB", 1024); }
inline unsigned bench_threads() {
  return static_cast<unsigned>(env_size("HART_BENCH_THREADS", 16));
}

enum class TreeKind { kHart, kWoart, kArtCow, kFpTree };
inline constexpr TreeKind kAllTrees[] = {TreeKind::kHart, TreeKind::kWoart,
                                         TreeKind::kArtCow,
                                         TreeKind::kFpTree};

inline const char* tree_name(TreeKind k) {
  switch (k) {
    case TreeKind::kHart: return "HART";
    case TreeKind::kWoart: return "WOART";
    case TreeKind::kArtCow: return "ART+CoW";
    default: return "FPTree";
  }
}

inline std::unique_ptr<pmem::Arena> make_bench_arena(
    const pmem::LatencyConfig& lat, size_t mb = 0) {
  pmem::Arena::Options o;
  o.size = (mb != 0 ? mb : arena_mb()) << 20;
  o.latency = lat;
  o.shadow = false;  // crash simulation off: measure op cost only
  return std::make_unique<pmem::Arena>(o);
}

inline std::unique_ptr<common::Index> make_tree(TreeKind k,
                                                pmem::Arena& arena) {
  switch (k) {
    case TreeKind::kHart: return std::make_unique<core::Hart>(arena);
    case TreeKind::kWoart: return std::make_unique<pmart::Woart>(arena);
    case TreeKind::kArtCow: return std::make_unique<pmart::ArtCow>(arena);
    default: return std::make_unique<fptree::FpTree>(arena);
  }
}

/// The paper's three PM latency configurations — or, when
/// HART_BENCH_LATENCY / --latency is set to "W/R" (write/read ns), just
/// that one (custom values allowed; DRAM baseline stays 100 ns).
inline std::vector<pmem::LatencyConfig> paper_configs() {
  std::vector<pmem::LatencyConfig> all = {pmem::LatencyConfig::c300_100(),
                                          pmem::LatencyConfig::c300_300(),
                                          pmem::LatencyConfig::c600_300()};
  const char* sel = std::getenv("HART_BENCH_LATENCY");
  if (sel == nullptr) return all;
  for (const auto& c : all)
    if (c.label() == sel) return {c};
  unsigned w = 0;
  unsigned r = 0;
  if (std::sscanf(sel, "%u/%u", &w, &r) == 2)
    return {pmem::LatencyConfig{100, w, r}};
  std::fprintf(stderr, "ignoring malformed HART_BENCH_LATENCY '%s'\n", sel);
  return all;
}

/// Value for key i: 8 bytes, distinct per insert round.
inline std::string value_for(size_t i, int round = 0) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "v%06zu%d", i % 1000000, round & 7);
  return std::string(buf, 8);
}

/// Deterministic in-place shuffle (uniform op order for Search/Update/
/// Delete measurements, like YCSB's Uniform distribution).
template <typename T>
void shuffle(std::vector<T>& v, uint64_t seed) {
  common::Rng rng(seed);
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

enum class BasicOp { kInsert, kSearch, kUpdate, kDelete };
inline const char* op_name(BasicOp op) {
  switch (op) {
    case BasicOp::kInsert: return "Insertion";
    case BasicOp::kSearch: return "Search";
    case BasicOp::kUpdate: return "Update";
    default: return "Deletion";
  }
}

/// Set HART_BENCH_PERCENTILES=1 to additionally collect per-operation
/// latency histograms (adds one clock read per op).
inline bool percentiles_enabled() {
  const char* v = std::getenv("HART_BENCH_PERCENTILES");
  return v != nullptr && v[0] == '1';
}

/// Build a tree with `keys`, then time `op` over all keys (shuffled order
/// for non-insert ops). Returns average microseconds per operation and,
/// when enabled and `hist` is non-null, fills the per-op histogram.
inline double run_basic_op(TreeKind kind, const pmem::LatencyConfig& lat,
                           const std::vector<std::string>& keys, BasicOp op,
                           common::LatencyHistogram* hist = nullptr) {
  auto arena = make_bench_arena(lat);
  auto tree = make_tree(kind, *arena);
  const bool record = hist != nullptr && percentiles_enabled();
  auto& tracer = obs::Tracer::instance();
  const bool trace = tracer.enabled();
  // One timeline lane entry per measured cell; per-op spans when tracing.
  obs::TraceSpan phase(op_name(op), obs::TraceKind::kPhase,
                       static_cast<uint32_t>(kind));

  auto timed = [&](auto&& body) {
    if (!record && !trace) {
      body();
      return;
    }
    const uint64_t t0 = tracer.now_ns();
    body();
    const uint64_t dt = tracer.now_ns() - t0;
    if (record) hist->record(dt);
    if (trace) tracer.record(op_name(op), obs::TraceKind::kOp, t0, dt);
  };

  if (op == BasicOp::kInsert) {
    common::Stopwatch sw;
    for (size_t i = 0; i < keys.size(); ++i)
      timed([&] { tree->insert(keys[i], value_for(i)); });
    return sw.seconds() * 1e6 / static_cast<double>(keys.size());
  }

  for (size_t i = 0; i < keys.size(); ++i)
    tree->insert(keys[i], value_for(i));
  std::vector<const std::string*> order;
  order.reserve(keys.size());
  for (const auto& k : keys) order.push_back(&k);
  shuffle(order, 12345);

  common::Stopwatch sw;
  switch (op) {
    case BasicOp::kSearch: {
      std::string v;
      size_t hits = 0;
      for (const auto* k : order) timed([&] { hits += tree->search(*k, &v).ok() ? 1 : 0; });
      if (hits != keys.size()) std::cerr << "warning: search misses\n";
      break;
    }
    case BasicOp::kUpdate: {
      for (size_t i = 0; i < order.size(); ++i)
        timed([&] { tree->update(*order[i], value_for(i, 1)); });
      break;
    }
    case BasicOp::kDelete: {
      for (const auto* k : order) timed([&] { tree->remove(*k); });
      break;
    }
    default: break;
  }
  return sw.seconds() * 1e6 / static_cast<double>(keys.size());
}

/// Set HART_BENCH_CSV=<path> to append machine-readable rows
/// (figure,workload,latency,tree,us_per_op) alongside the tables. When a
/// populated histogram is supplied (--percentiles), three extra columns
/// p50_us,p95_us,p99_us follow — the first five columns never move, so
/// existing scripts keep parsing. `extra` is appended verbatim after
/// everything else (the service benches use it for stage-latency
/// columns); it must start with ',' when non-empty.
inline void csv_row(const char* fig, const std::string& workload,
                    const std::string& latency, const char* tree,
                    double us_per_op,
                    const common::LatencyHistogram* hist = nullptr,
                    const std::string& extra = {}) {
  const char* path = std::getenv("HART_BENCH_CSV");
  if (path == nullptr) return;
  if (FILE* f = std::fopen(path, "a"); f != nullptr) {
    std::fprintf(f, "%s,%s,%s,%s,%.6f", fig, workload.c_str(),
                 latency.c_str(), tree, us_per_op);
    if (hist != nullptr && hist->count() > 0) {
      const common::Percentiles p = hist->percentiles();
      std::fprintf(f, ",%.3f,%.3f,%.3f",
                   static_cast<double>(p.p50_ns) / 1000.0,
                   static_cast<double>(p.p95_ns) / 1000.0,
                   static_cast<double>(p.p99_ns) / 1000.0);
    }
    if (!extra.empty()) std::fputs(extra.c_str(), f);
    std::fprintf(f, "\n");
    std::fclose(f);
  }
}

/// Figs. 4-7: one sub-figure per workload, rows = latency config,
/// series = tree; cells are avg µs per operation.
inline void run_basic_op_figure(const char* fig, BasicOp op) {
  std::cout << fig << ": " << op_name(op)
            << " performance (avg time per record, microseconds)\n"
            << "Series: HART | WOART | ART+CoW | FPTree; rows: PM "
               "write/read latency (ns)\n\n";
  const workload::WorkloadKind kinds[] = {workload::WorkloadKind::kDictionary,
                                          workload::WorkloadKind::kSequential,
                                          workload::WorkloadKind::kRandom};
  for (const auto wk : kinds) {
    const size_t n = wk == workload::WorkloadKind::kDictionary
                         ? dict_words()
                         : bench_records();
    const auto keys = workload::make_workload(wk, n);
    common::Table table({std::string("(") + workload::workload_name(wk) +
                             ", n=" + std::to_string(n) + ")",
                         "HART", "WOART", "ART+CoW", "FPTree"});
    std::vector<std::string> tails;
    for (const auto& lat : paper_configs()) {
      std::vector<std::string> row{lat.label()};
      for (const auto kind : kAllTrees) {
        common::LatencyHistogram hist;
        const double us = run_basic_op(kind, lat, keys, op, &hist);
        row.push_back(common::Table::num(us));
        csv_row(fig, workload::workload_name(wk), lat.label(),
                tree_name(kind), us, &hist);
        if (hist.count() > 0)
          tails.push_back(std::string(tree_name(kind)) + " @ " +
                          lat.label() + ": " + hist.summary());
      }
      table.add_row(std::move(row));
    }
    table.print();
    for (const auto& t : tails) std::cout << "  " << t << '\n';
    std::cout << '\n';
  }
}

}  // namespace hart::bench
