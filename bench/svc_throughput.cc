// Service-layer throughput: hartd shard scaling and group-commit batch
// sensitivity, measured end-to-end through in-process pipelined clients
// (Random-insert — every op is a durable write, the worst case for the
// group-persist design).
//
// Expected shape: throughput scales with shard count while the injected
// per-shard PM device time dominates (each shard banks its batch's
// latency and sleeps it off concurrently with the other shards — see
// Arena::Options::defer_latency); once the host CPU saturates, scaling
// flattens at the compute bound. On a single-core host the low-latency
// configs are compute-bound from the start, so the scaling column shows
// the device-bound configs' speedup only.
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "epalloc/allocator.h"
#include "obs/counters.h"
#include "server/client.h"
#include "workload/mixes.h"

namespace {

using namespace hart::bench;
using hart::server::Hartd;
using hart::server::OpCode;
using hart::server::Request;

struct SvcResult {
  double ops_per_sec = 0;
  uint64_t batches = 0;
  uint64_t epochs = 0;
  uint64_t acks = 0;
  // Server-side stage attribution, merged across shards.
  hart::common::LatencyHistogram queue_wait;
  hart::common::LatencyHistogram batch_residency;
  hart::common::LatencyHistogram fence_wait;
};

/// Stage-latency CSV columns (queue/residency/fence p50+p99, in µs),
/// appended after the stable columns via csv_row's `extra` parameter.
std::string stage_csv(const SvcResult& r) {
  const auto q = r.queue_wait.percentiles();
  const auto b = r.batch_residency.percentiles();
  const auto f = r.fence_wait.percentiles();
  char buf[160];
  std::snprintf(buf, sizeof(buf), ",%.3f,%.3f,%.3f,%.3f,%.3f,%.3f",
                static_cast<double>(q.p50_ns) / 1e3,
                static_cast<double>(q.p99_ns) / 1e3,
                static_cast<double>(b.p50_ns) / 1e3,
                static_cast<double>(b.p99_ns) / 1e3,
                static_cast<double>(f.p50_ns) / 1e3,
                static_cast<double>(f.p99_ns) / 1e3);
  return buf;
}

size_t svc_ops() { return env_size("HART_SVC_OPS", 20000); }       // per client
size_t svc_clients() { return env_size("HART_SVC_CLIENTS", 4); }
size_t svc_pipeline() { return env_size("HART_SVC_PIPELINE", 64); }
double svc_zipf() {  // Zipfian theta for the mixed-workload section
  const char* v = std::getenv("HART_SVC_ZIPF");
  return v != nullptr ? std::strtod(v, nullptr) : 0.99;
}

/// `alloc` defaults to the service's own allocator settings (auto stripes,
/// batched chunk-header persists).
SvcResult run_service(size_t shards, size_t batch,
                      const hart::pmem::LatencyConfig& lat,
                      const hart::epalloc::AllocOptions& alloc =
                          Hartd::Options{}.hart.alloc) {
  Hartd::Options o;
  o.shards = shards;
  o.batch_size = batch;
  o.latency = lat;
  o.arena_mb = 64;
  o.hart.alloc = alloc;
  Hartd db(o);

  const size_t per_client = svc_ops();
  hart::common::Stopwatch sw;
  std::vector<std::thread> pool;
  for (size_t c = 0; c < svc_clients(); ++c) {
    pool.emplace_back([&db, c, per_client] {
      hart::Client cl(db);
      std::deque<uint64_t> inflight;
      for (size_t i = 0; i < per_client; ++i) {
        char key[24];
        std::snprintf(key, sizeof(key), "%c%c%08zx",
                      static_cast<char>('A' + (c / 26) % 26),
                      static_cast<char>('A' + c % 26), i);
        inflight.push_back(cl.send(Request{OpCode::kPut, key, value_for(i)}));
        if (inflight.size() >= svc_pipeline()) {
          cl.wait(inflight.front());
          inflight.pop_front();
        }
      }
      cl.wait_all();
    });
  }
  for (auto& t : pool) t.join();

  SvcResult r;
  r.ops_per_sec =
      static_cast<double>(per_client * svc_clients()) / sw.seconds();
  for (size_t i = 0; i < db.shard_count(); ++i) {
    const auto& st = db.shard(i).stats();
    r.batches += st.batches.load();
    r.epochs += st.epochs.load();
    r.acks += st.write_acks.load();
    const auto sh = db.shard(i).histograms();
    r.queue_wait.merge(sh.queue_wait);
    r.batch_residency.merge(sh.batch_residency);
    r.fence_wait.merge(sh.fence_wait);
  }
  db.shutdown();
  return r;
}

// Mixed Read-Intensive stream through the pipelined client path, with the
// request distribution (Uniform or Zipfian at `theta`) choosing which live
// key each search/update/delete targets. Each client owns a disjoint
// key-pool slice (client-prefixed keys), preloads it untimed, then replays
// its op stream.
SvcResult run_mixed_service(size_t shards, size_t batch,
                            const hart::pmem::LatencyConfig& lat,
                            hart::workload::DistKind dist, double theta) {
  namespace wl = hart::workload;
  Hartd::Options o;
  o.shards = shards;
  o.batch_size = batch;
  o.latency = lat;
  o.arena_mb = 64;
  Hartd db(o);

  const size_t per_client = svc_ops();
  const size_t preload = per_client / 2;
  const size_t pool_size = preload + per_client;
  auto key_for = [](size_t c, size_t i) {
    char key[24];
    std::snprintf(key, sizeof(key), "%c%c%08zx",
                  static_cast<char>('A' + (c / 26) % 26),
                  static_cast<char>('A' + c % 26), i);
    return std::string(key);
  };
  for (size_t c = 0; c < svc_clients(); ++c)
    for (size_t i = 0; i < preload; ++i)
      db.execute(Request{OpCode::kPut, key_for(c, i), value_for(i)});

  hart::common::Stopwatch sw;
  std::vector<std::thread> pool;
  for (size_t c = 0; c < svc_clients(); ++c) {
    pool.emplace_back([&db, &key_for, c, per_client, preload, pool_size,
                       dist, theta] {
      const auto ops =
          wl::make_mixed_ops(per_client, preload, pool_size,
                             wl::kReadIntensive, 31 * c + 7, dist, theta);
      hart::Client cl(db);
      std::deque<uint64_t> inflight;
      for (const auto& op : ops) {
        std::string key = key_for(c, op.key_idx);
        Request req;
        switch (op.type) {
          case wl::OpType::kInsert:
            req = Request{OpCode::kPut, std::move(key),
                          value_for(op.key_idx)};
            break;
          case wl::OpType::kSearch:
            req = Request{OpCode::kGet, std::move(key), ""};
            break;
          case wl::OpType::kUpdate:
            req = Request{OpCode::kUpdate, std::move(key),
                          value_for(op.key_idx, 1)};
            break;
          case wl::OpType::kDelete:
            req = Request{OpCode::kDelete, std::move(key), ""};
            break;
        }
        inflight.push_back(cl.send(std::move(req)));
        if (inflight.size() >= svc_pipeline()) {
          cl.wait(inflight.front());
          inflight.pop_front();
        }
      }
      cl.wait_all();
    });
  }
  for (auto& t : pool) t.join();

  SvcResult r;
  r.ops_per_sec =
      static_cast<double>(per_client * svc_clients()) / sw.seconds();
  for (size_t i = 0; i < db.shard_count(); ++i) {
    const auto& st = db.shard(i).stats();
    r.batches += st.batches.load();
    r.epochs += st.epochs.load();
    r.acks += st.write_acks.load();
    const auto sh = db.shard(i).histograms();
    r.queue_wait.merge(sh.queue_wait);
    r.batch_residency.merge(sh.batch_residency);
    r.fence_wait.merge(sh.fence_wait);
  }
  db.shutdown();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_flags(
      argc, argv, "hartd service throughput: shard scaling + batch size",
      {{"--svc-ops", "HART_SVC_OPS", "inserts per client (default 20000)",
        true},
       {"--svc-clients", "HART_SVC_CLIENTS", "client threads (default 4)",
        true},
       {"--svc-pipeline", "HART_SVC_PIPELINE",
        "outstanding requests per client (default 64)", true},
       {"--zipf", "HART_SVC_ZIPF",
        "Zipfian theta for the mixed-distribution section (default 0.99)",
        true}});

  const size_t total = svc_ops() * svc_clients();
  std::cout << "hartd service throughput — Random-insert, " << total
            << " ops over " << svc_clients() << " pipelined clients (depth "
            << svc_pipeline() << "), deferred PM latency\n"
            << "host hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";

  // Shard scaling. Device-latency configs: the paper's 300/100 and
  // 600/300 plus a 1500/300 point deep in the device-bound regime (a
  // slow PM / CXL-window-like device) where per-shard stalls dominate.
  const hart::pmem::LatencyConfig lats[] = {
      hart::pmem::LatencyConfig::c300_100(),
      hart::pmem::LatencyConfig::c600_300(),
      {100, 1500, 300}};
  hart::common::Table scaling(
      {"insert ops/s / shards", "1", "2", "4", "8"});
  for (const auto& lat : lats) {
    std::vector<std::string> row{lat.label()};
    double base = 0;
    for (const size_t shards : {1u, 2u, 4u, 8u}) {
      const SvcResult r = run_service(shards, 32, lat);
      if (shards == 1) base = r.ops_per_sec;
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.0f (x%.2f)", r.ops_per_sec,
                    r.ops_per_sec / base);
      row.emplace_back(cell);
      csv_row("svc-scaling", "Random-insert/" + std::to_string(shards),
              lat.label(), "hartd", 1e6 / r.ops_per_sec, nullptr,
              stage_csv(r));
    }
    scaling.add_row(std::move(row));
  }
  scaling.print();
  std::cout << "(speedup vs 1 shard; low-latency rows go compute-bound "
               "once the host cores saturate)\n\n";

  // Batch-size sensitivity: 4 shards, 600/300. Group commit amortizes one
  // epoch fence over the batch; tiny batches fence almost per-op.
  hart::common::Table batching(
      {"batch size (4 shards, 600/300)", "ops/s", "avg batch", "fences/kop"});
  for (const size_t batch : {1u, 4u, 16u, 32u, 128u}) {
    const SvcResult r = run_service(4, batch, lats[1]);
    char ops[32], avg[32], fences[32];
    std::snprintf(ops, sizeof(ops), "%.0f", r.ops_per_sec);
    std::snprintf(avg, sizeof(avg), "%.1f",
                  r.batches != 0 ? static_cast<double>(r.acks) /
                                       static_cast<double>(r.batches)
                                 : 0.0);
    std::snprintf(fences, sizeof(fences), "%.1f",
                  static_cast<double>(r.epochs) * 1000.0 /
                      static_cast<double>(total));
    batching.add_row({std::to_string(batch), ops, avg, fences});
    csv_row("svc-batch", "Random-insert/batch" + std::to_string(batch),
            lats[1].label(), "hartd", 1e6 / r.ops_per_sec, nullptr,
            stage_csv(r));
  }
  batching.print();

  // Request-distribution skew through the whole service path: the same
  // Read-Intensive mix keyed Uniformly vs Zipfian-skewed (YCSB theta via
  // --zipf). Skew concentrates requests on few keys — hot shard queues and
  // hot cache lines — so the delta is the service's sensitivity to
  // real-world (power-law) traffic rather than benchmark-uniform traffic.
  const double theta = svc_zipf();
  char zl[32];
  std::snprintf(zl, sizeof(zl), "Zipfian(%.2f)", theta);
  hart::common::Table mixed(
      {"Read-Intensive mix (4 shards, 600/300)", "ops/s", "avg batch"});
  const hart::workload::DistKind dists[] = {
      hart::workload::DistKind::kUniform,
      hart::workload::DistKind::kZipfian};
  for (const auto dist : dists) {
    const SvcResult r = run_mixed_service(4, 32, lats[1], dist, theta);
    const char* label =
        dist == hart::workload::DistKind::kUniform ? "Uniform" : zl;
    char ops[32], avg[32];
    std::snprintf(ops, sizeof(ops), "%.0f", r.ops_per_sec);
    std::snprintf(avg, sizeof(avg), "%.1f",
                  r.batches != 0 ? static_cast<double>(r.acks) /
                                       static_cast<double>(r.batches)
                                 : 0.0);
    mixed.add_row({label, ops, avg});
    csv_row("svc-mixed", std::string("Read-Intensive/") + label,
            lats[1].label(), "hartd", 1e6 / r.ops_per_sec, nullptr,
            stage_csv(r));
  }
  mixed.print();

  // Allocator ablation: the same Random-insert burst under the service
  // default (auto stripes, chunk-header persists batched onto the epoch
  // fence) vs one stripe with eager persists (--alloc-stripes 1
  // --eager-meta: the paper's EPallocator, one header persist per
  // alloc/free). The metric that matters is PM metadata persists *per op*
  // — batching amortizes a whole batch of header updates into one flush
  // per dirty chunk line at the fence the service already pays for.
  // Emitted as a machine-readable BENCH json line for the experiment
  // harness.
  {
    using hart::epalloc::AllocOptions;
    auto& reg = hart::obs::Registry::instance();
    auto meta_persists = [&reg] {
      return reg.counter("epalloc_pm_meta_persists_total").value();
    };
    struct Leg {
      const char* name;
      AllocOptions alloc;
      double ops_per_sec = 0;
      uint64_t persists = 0;
      double per_op = 0;
    } legs[] = {{"striped", Hartd::Options{}.hart.alloc},
                {"eager_1stripe", {.stripes = 1, .batched_meta = false}}};
    const uint64_t deferred0 =
        reg.counter("epalloc_meta_persists_deferred_total").value();
    const uint64_t flushes0 =
        reg.counter("epalloc_meta_flush_batches_total").value();
    for (Leg& leg : legs) {
      const uint64_t before = meta_persists();
      const SvcResult r = run_service(4, 32, lats[1], leg.alloc);
      leg.persists = meta_persists() - before;
      leg.ops_per_sec = r.ops_per_sec;
      leg.per_op = static_cast<double>(leg.persists) /
                   static_cast<double>(total);
    }
    hart::common::Table ablation({"allocator (4 shards, 600/300)", "ops/s",
                                  "PM meta persists", "persists/op"});
    for (const Leg& leg : legs) {
      char ops[32], pp[32], po[32];
      std::snprintf(ops, sizeof(ops), "%.0f", leg.ops_per_sec);
      std::snprintf(pp, sizeof(pp), "%llu",
                    static_cast<unsigned long long>(leg.persists));
      std::snprintf(po, sizeof(po), "%.4f", leg.per_op);
      ablation.add_row({leg.name, ops, pp, po});
    }
    ablation.print();
    const double reduction =
        legs[1].per_op > 0 ? 1.0 - legs[0].per_op / legs[1].per_op : 0.0;
    std::printf(
        "BENCH {\"name\":\"svc_alloc_ablation\",\"workload\":"
        "\"Random-insert\",\"shards\":4,\"batch\":32,\"latency\":\"%s\","
        "\"ops\":%zu,"
        "\"striped\":{\"ops_per_sec\":%.0f,\"pm_meta_persists\":%llu,"
        "\"persists_per_op\":%.4f},"
        "\"eager_1stripe\":{\"ops_per_sec\":%.0f,\"pm_meta_persists\":%llu,"
        "\"persists_per_op\":%.4f},"
        "\"pm_meta_persist_reduction\":%.4f,"
        "\"meta_persists_deferred\":%llu,\"meta_flush_batches\":%llu}\n",
        lats[1].label().c_str(), total, legs[0].ops_per_sec,
        static_cast<unsigned long long>(legs[0].persists), legs[0].per_op,
        legs[1].ops_per_sec,
        static_cast<unsigned long long>(legs[1].persists), legs[1].per_op,
        reduction,
        static_cast<unsigned long long>(
            reg.counter("epalloc_meta_persists_deferred_total").value() -
            deferred0),
        static_cast<unsigned long long>(
            reg.counter("epalloc_meta_flush_batches_total").value() -
            flushes0));
  }
  return 0;
}
