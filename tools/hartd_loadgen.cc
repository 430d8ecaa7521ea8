// hartd_loadgen — multi-client load driver for hartd.
//
// Drives the service with the repo's workload mixes (insert-only "Random",
// or the paper's YCSB-style Read-Intensive / RMW / Write-Intensive mixes)
// across a configurable number of client connections, each pipelining up
// to --pipeline requests. Works over TCP (--port) or fully in-process
// (--inproc, which spins up its own Hartd).
//
// Crash harness support:
//   --acked-log P   append each acked insert's key to P (one write(2) per
//                   ack, after the ack) — the log is always a subset of
//                   the server's durable state, even across SIGKILL.
//   --verify-acked P  read keys from P (tolerating a torn final line) and
//                   GET each; exit 1 if any acked key is missing or has
//                   the wrong value. This is the restart check.
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/config.h"
#include "server/stats.h"
#include "server/tcp.h"
#include "workload/mixes.h"

namespace {

using hart::server::Client;
using hart::server::Hartd;
using hart::server::OpCode;
using hart::server::Request;
using hart::server::Response;
using hart::server::Status;

struct Config {
  std::string host = "127.0.0.1";
  long port = -1;
  bool inproc = false;
  size_t clients = 4;
  size_t ops = 100000;  // per client; 0 = duration mode
  double seconds = 0;
  std::string mix = "insert";
  double zipf = 0;  // >0: Zipfian skew theta for mixed-workload key picks
  size_t pipeline = 32;
  size_t mget = 0;  // >0: batch this many GETs into one kMget request
  size_t preload = 5000;  // per client, for the mixed workloads
  std::string acked_log;
  std::string verify_acked;
  bool promote = false;     // send PROMOTE and exit (failover driver)
  bool stats_only = false;  // scrape metrics and exit
  std::string stats_out;  // final Prometheus snapshot file
  std::string trace_out;  // chrome://tracing JSON file
  size_t trace_sample = 0;  // client-side: stamp every Nth request
  // --inproc server knobs, parsed by the shared hartd flag matcher
  // (server/config.h) so loadgen and hartd cannot drift.
  Hartd::Options server;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port N          connect to hartd on 127.0.0.1:N\n"
      "  --host H          server address           (default 127.0.0.1)\n"
      "  --inproc          run an in-process Hartd instead of TCP\n"
      "  --clients N       client connections/threads        (default 4)\n"
      "  --ops N           ops per client (0 = use --seconds) (default 100000)\n"
      "  --seconds S       run for S seconds instead of an op budget\n"
      "  --mix M           insert | read-intensive | rmw | write-intensive\n"
      "  --zipf S          Zipfian key skew for the mixed workloads, theta\n"
      "                    in (0,1) — e.g. 0.99 for YCSB (default uniform)\n"
      "  --pipeline D      outstanding requests per client   (default 32)\n"
      "  --mget N          batch reads N-at-a-time into MGET requests\n"
      "  --preload N       preloaded keys per client for mixes (default 5000)\n"
      "  --acked-log P     append acked insert keys to P (insert mix only)\n"
      "  --verify-acked P  GET every key in P; exit 1 on any loss\n"
      "  --promote         ask the server to become primary (failover),\n"
      "                    print its applied replication positions, exit\n"
      "  --stats-only      scrape the server's metrics snapshot and exit\n"
      "                    (print, or write to --stats-out)\n"
      "  --stats-out P     write a final Prometheus metrics snapshot to P\n"
      "  --trace-out P     write a chrome://tracing JSON timeline to P\n"
      "  --trace-sample N  stamp every Nth request with a trace id; spans\n"
      "                    propagate through the server's stage timeline\n"
      "                    (1 = every request, 0 = off)\n"
      "  in-process server knobs (--inproc), shared with hartd:\n"
      "  --shards N --batch N --queue N --arena-dir D --arena-mb N\n"
      "  --latency W/R --bloom-bits-per-key N --rwlock-reads --check\n"
      "  --alloc-stripes N --eager-meta\n"
      "  --spin-latency    busy-wait injected latency per persist instead\n"
      "                    of banking it and sleeping once per batch\n"
      "  --help            this text\n",
      argv0);
}

/// Deterministic 8-byte value for a key — load and verify agree on it.
std::string value_of(const std::string& key) {
  const uint64_t h = hart::server::shard_hash(key);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 8);
}

/// Distinct keys per client: 2-char client prefix + base-36 counter.
std::string key_of(size_t client, uint64_t i) {
  char buf[24];
  buf[0] = static_cast<char>('A' + (client / 26) % 26);
  buf[1] = static_cast<char>('A' + client % 26);
  for (int p = 9; p >= 2; --p) {
    const uint64_t d = i % 36;
    buf[p] = d < 10 ? static_cast<char>('0' + d)
                    : static_cast<char>('a' + d - 10);
    i /= 36;
  }
  return std::string(buf, 10);
}

struct AckLog {
  int fd = -1;
  void open(const std::string& path) {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
      std::perror("loadgen: cannot open --acked-log");
      std::exit(2);
    }
  }
  /// One write(2) per line: atomic under O_APPEND, and in the kernel page
  /// cache the instant it returns — a SIGKILL cannot unwrite it.
  void append(const std::string& key) {
    std::string line = key + "\n";
    (void)!::write(fd, line.data(), line.size());
  }
};

struct Counters {
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> errors{0};
};

const hart::workload::MixSpec* mix_spec(const std::string& name) {
  if (name == "read-intensive") return &hart::workload::kReadIntensive;
  if (name == "rmw") return &hart::workload::kReadModifyWrite;
  if (name == "write-intensive") return &hart::workload::kWriteIntensive;
  return nullptr;  // "insert"
}

/// Client-observed latency (send → ack), one histogram per op type. Each
/// client thread owns its own instance; main() merges them after join.
struct OpHists {
  std::array<hart::common::LatencyHistogram, hart::server::ShardHistograms::kOps>
      h;
};

uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One client: pipelined request loop until the op budget or deadline.
void run_client(Client& cli, const Config& cfg, size_t id, AckLog* log,
                Counters* ctr, OpHists* hists) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cfg.seconds));
  const bool timed = cfg.ops == 0;
  const hart::workload::MixSpec* mix = mix_spec(cfg.mix);

  // Mixed workloads: preload synchronously, then follow a generated op
  // stream over the client's private key pool.
  std::vector<hart::workload::Op> ops;
  size_t pool = 0;
  if (mix != nullptr) {
    const size_t budget = timed ? 1000000 : cfg.ops;
    pool = cfg.preload + budget / 2 + 16;
    ops = hart::workload::make_mixed_ops(
        budget, cfg.preload, pool, *mix, /*seed=*/7 + id,
        cfg.zipf > 0 ? hart::workload::DistKind::kZipfian
                     : hart::workload::DistKind::kUniform,
        cfg.zipf > 0 ? cfg.zipf : 0.99);
    for (size_t i = 0; i < cfg.preload; ++i) {
      const std::string k = key_of(id, i);
      if (!hart::server::is_acked_write(cli.put(k, value_of(k)).status))
        ctr->errors.fetch_add(1, std::memory_order_relaxed);
    }
  }

  struct Inflight {
    uint64_t rid;
    std::string key;     // non-empty = append to the ack log on ack
    size_t slot;         // op_hist_index, SIZE_MAX = untimed
    uint64_t t0;         // send time (mono_ns)
    size_t mget_n = 0;   // >0: kMget carrying this many keys
  };
  std::deque<Inflight> inflight;
  auto drain_one = [&] {
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    const Response r = cli.wait(f.rid);
    if (f.mget_n > 0) {
      // One kMget = mget_n logical reads; hits/misses from the payload.
      std::vector<std::string> vals;
      std::vector<bool> found;
      if (r.status == Status::kOk &&
          hart::server::decode_mget_result(r.value, &vals, &found)) {
        size_t hits = 0;
        for (const bool ok : found) hits += ok ? 1 : 0;
        ctr->acked.fetch_add(hits, std::memory_order_relaxed);
        ctr->misses.fetch_add(found.size() - hits,
                              std::memory_order_relaxed);
      } else {
        ctr->errors.fetch_add(f.mget_n, std::memory_order_relaxed);
      }
      return r.status != Status::kNetError &&
             r.status != Status::kShuttingDown;
    }
    if (f.slot != SIZE_MAX &&
        (r.status == Status::kOk || r.status == Status::kUpdated ||
         r.status == Status::kNotFound))
      hists->h[f.slot].record(mono_ns() - f.t0);
    const std::string& key = f.key;
    switch (r.status) {
      case Status::kOk:
      case Status::kUpdated:
        ctr->acked.fetch_add(1, std::memory_order_relaxed);
        if (log != nullptr && !key.empty()) log->append(key);
        break;
      case Status::kNotFound:
        ctr->misses.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        ctr->errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return r.status != Status::kNetError &&
           r.status != Status::kShuttingDown;
  };

  // --mget N: reads accumulate here and ship N-at-a-time as one kMget.
  std::vector<std::string> mget_keys;
  auto flush_mget = [&] {
    if (mget_keys.empty()) return;
    Request req{OpCode::kMget, {}, {}};
    hart::server::encode_mget_keys(mget_keys, &req.value);
    const size_t n = mget_keys.size();
    inflight.push_back(
        Inflight{cli.send(std::move(req)), {}, SIZE_MAX, mono_ns(), n});
    mget_keys.clear();
  };

  bool alive = true;
  for (uint64_t i = 0; alive; ++i) {
    if (timed) {
      if (std::chrono::steady_clock::now() >= deadline) break;
    } else if (i >= cfg.ops) {
      break;
    }
    while (alive && inflight.size() >= cfg.pipeline) alive = drain_one();
    if (!alive) break;

    Request req;
    std::string logged_key;
    if (mix == nullptr) {
      req.op = OpCode::kPut;
      req.key = key_of(id, i);
      req.value = value_of(req.key);
      logged_key = req.key;
    } else {
      const auto& op = ops[i % ops.size()];
      const std::string k = key_of(id, op.key_idx);
      if (cfg.mget > 0 && op.type == hart::workload::OpType::kSearch) {
        mget_keys.push_back(k);
        if (mget_keys.size() >= cfg.mget) flush_mget();
        continue;
      }
      switch (op.type) {
        case hart::workload::OpType::kInsert:
          req = {OpCode::kPut, k, value_of(k)};
          break;
        case hart::workload::OpType::kSearch:
          req = {OpCode::kGet, k, {}};
          break;
        case hart::workload::OpType::kUpdate:
          req = {OpCode::kUpdate, k, value_of(k)};
          break;
        case hart::workload::OpType::kDelete:
          req = {OpCode::kDelete, k, {}};
          break;
      }
    }
    const size_t slot = hart::server::op_hist_index(req.op);
    const uint64_t t0 = mono_ns();
    inflight.push_back(
        Inflight{cli.send(std::move(req)), std::move(logged_key), slot, t0});
  }
  flush_mget();
  while (!inflight.empty() && drain_one()) {
  }
  while (!inflight.empty()) {  // transport died: count the remainder
    inflight.pop_front();
    ctr->errors.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Final Prometheus snapshot: directly from the in-process Hartd, or over
/// the wire via a STATS request for TCP runs. Empty on transport failure.
std::string fetch_stats(const Config& cfg, Hartd* local) {
  if (local != nullptr) return hart::server::stats_prometheus(*local);
  try {
    Client cli(cfg.host, static_cast<uint16_t>(cfg.port));
    std::string text;
    if (cli.stats(&text).ok()) return text;
  } catch (const std::exception&) {
  }
  return {};
}

int verify_acked(const Config& cfg, Hartd* local) {
  std::ifstream in(cfg.verify_acked, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "loadgen: cannot read %s\n",
                 cfg.verify_acked.c_str());
    return 2;
  }
  // Only newline-terminated lines count: a SIGKILL can tear the final
  // line, and a torn line was by construction written after its ack was
  // durable anyway — skipping it never hides a loss.
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  std::vector<std::string> keys;
  std::unordered_set<std::string> seen;
  size_t start = 0;
  for (size_t nl = all.find('\n'); nl != std::string::npos;
       start = nl + 1, nl = all.find('\n', start)) {
    std::string line = all.substr(start, nl - start);
    if (!line.empty() && seen.insert(line).second)
      keys.push_back(std::move(line));
  }

  std::unique_ptr<Client> cli =
      local != nullptr ? std::make_unique<Client>(*local)
                       : std::make_unique<Client>(
                             cfg.host, static_cast<uint16_t>(cfg.port));
  size_t missing = 0, wrong = 0;
  for (const auto& key : keys) {
    const Response r = cli->get(key);
    if (r.status != Status::kOk) {
      ++missing;
      if (missing <= 10)
        std::fprintf(stderr, "loadgen: ACKED KEY LOST: %s (%s)\n",
                     key.c_str(), hart::server::status_name(r.status));
    } else if (r.value != value_of(key)) {
      ++wrong;
      if (wrong <= 10)
        std::fprintf(stderr, "loadgen: ACKED KEY CORRUPT: %s\n", key.c_str());
    }
  }
  std::printf("loadgen: verified %zu acked keys: %zu missing, %zu corrupt\n",
              keys.size(), missing, wrong);
  if (missing + wrong != 0) {
    // Lost an acked write: dump the server's metrics (recovery duration,
    // replayed keys, per-shard op counts) before failing — the snapshot is
    // the first thing a durability-bug triage needs.
    std::string st;
    if (cli->stats(&st).ok())
      std::fprintf(stderr,
                   "loadgen: server stats at verification failure:\n%s",
                   st.c_str());
  }
  return missing + wrong == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    {
      std::string err;
      switch (hart::server::parse_server_flag(argc, argv, &i, &cfg.server,
                                              &err)) {
        case hart::server::FlagParse::kOk:
          continue;
        case hart::server::FlagParse::kError:
          std::fprintf(stderr, "loadgen: %s\n", err.c_str());
          return 2;
        case hart::server::FlagParse::kNoMatch:
          break;
      }
    }
    const std::string a = argv[i];
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadgen: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (a == "--host") {
      cfg.host = need("--host");
    } else if (a == "--port") {
      cfg.port = std::strtol(need("--port"), nullptr, 10);
    } else if (a == "--inproc") {
      cfg.inproc = true;
    } else if (a == "--clients") {
      cfg.clients = std::strtoull(need("--clients"), nullptr, 10);
    } else if (a == "--ops") {
      cfg.ops = std::strtoull(need("--ops"), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(need("--seconds"), nullptr);
      cfg.ops = 0;
    } else if (a == "--mix") {
      cfg.mix = need("--mix");
    } else if (a == "--zipf") {
      cfg.zipf = std::strtod(need("--zipf"), nullptr);
      if (cfg.zipf <= 0 || cfg.zipf >= 1) {
        std::fprintf(stderr, "loadgen: --zipf wants theta in (0,1)\n");
        return 2;
      }
    } else if (a == "--promote") {
      cfg.promote = true;
    } else if (a == "--stats-only") {
      cfg.stats_only = true;
    } else if (a == "--pipeline") {
      cfg.pipeline = std::strtoull(need("--pipeline"), nullptr, 10);
    } else if (a == "--mget") {
      cfg.mget = std::strtoull(need("--mget"), nullptr, 10);
      if (cfg.mget > hart::server::kMaxBatchEntries) {
        std::fprintf(stderr, "loadgen: --mget capped at %zu\n",
                     hart::server::kMaxBatchEntries);
        cfg.mget = hart::server::kMaxBatchEntries;
      }
    } else if (a == "--preload") {
      cfg.preload = std::strtoull(need("--preload"), nullptr, 10);
    } else if (a == "--acked-log") {
      cfg.acked_log = need("--acked-log");
    } else if (a == "--verify-acked") {
      cfg.verify_acked = need("--verify-acked");
    } else if (a == "--stats-out") {
      cfg.stats_out = need("--stats-out");
    } else if (a == "--trace-out") {
      cfg.trace_out = need("--trace-out");
    } else if (a == "--trace-sample") {
      cfg.trace_sample = std::strtoull(need("--trace-sample"), nullptr, 10);
    } else {
      std::fprintf(stderr, "loadgen: unknown flag '%s' (--help)\n",
                   a.c_str());
      return 2;
    }
  }
  if (!cfg.inproc && cfg.port < 0) {
    std::fprintf(stderr, "loadgen: need --port or --inproc (--help)\n");
    return 2;
  }
  if (!cfg.acked_log.empty() && cfg.mix != "insert") {
    std::fprintf(stderr,
                 "loadgen: --acked-log requires --mix insert (delete ops "
                 "would falsify the replay)\n");
    return 2;
  }
  if (cfg.mix != "insert" && mix_spec(cfg.mix) == nullptr) {
    std::fprintf(stderr, "loadgen: unknown mix '%s'\n", cfg.mix.c_str());
    return 2;
  }

  // Arm the tracer before the in-process Hartd exists so shard recovery
  // (and, for TCP runs, the client-side timeline) lands in the trace.
  if (!cfg.trace_out.empty()) hart::obs::Tracer::instance().enable();

  std::unique_ptr<Hartd> local;
  if (cfg.inproc) local = std::make_unique<Hartd>(cfg.server);

  if (cfg.promote) {
    // Failover driver: tell the (former follower) server to take over.
    try {
      Client cli(cfg.host, static_cast<uint16_t>(cfg.port));
      std::string positions;
      const hart::common::Status s = cli.promote(&positions);
      std::printf("loadgen: promote: %s\n", s.name());
      std::vector<hart::server::ReplPosition> pos;
      if (hart::server::decode_repl_positions(positions, &pos))
        for (const auto& p : pos)
          std::printf("  stream %u applied seq %llu (epoch %llu)\n", p.stream,
                      static_cast<unsigned long long>(p.seq),
                      static_cast<unsigned long long>(p.epoch));
      return s.ok() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: promote failed: %s\n", e.what());
      return 1;
    }
  }

  if (cfg.stats_only) {
    const std::string text = fetch_stats(cfg, local.get());
    if (text.empty()) {
      std::fprintf(stderr, "loadgen: stats scrape failed\n");
      return 1;
    }
    if (cfg.stats_out.empty()) {
      std::fputs(text.c_str(), stdout);
    } else if (std::ofstream out(cfg.stats_out, std::ios::binary); out) {
      out << text;
      std::printf("loadgen: stats written to %s\n", cfg.stats_out.c_str());
    } else {
      std::fprintf(stderr, "loadgen: cannot write stats to %s\n",
                   cfg.stats_out.c_str());
      return 1;
    }
    return 0;
  }

  if (!cfg.verify_acked.empty()) {
    const int rc = verify_acked(cfg, local.get());
    // A post-verify snapshot (repl counters, recovery stats) rides along
    // when requested — the smoke tests assert on it.
    if (!cfg.stats_out.empty()) {
      const std::string text = fetch_stats(cfg, local.get());
      if (std::ofstream out(cfg.stats_out, std::ios::binary);
          !text.empty() && out)
        out << text;
    }
    return rc;
  }

  AckLog log;
  if (!cfg.acked_log.empty()) log.open(cfg.acked_log);
  AckLog* logp = cfg.acked_log.empty() ? nullptr : &log;

  // One connection (or in-process client) per client thread.
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < cfg.clients; ++c) {
    try {
      clients.push_back(local != nullptr
                            ? std::make_unique<Client>(*local)
                            : std::make_unique<Client>(
                                  cfg.host, static_cast<uint16_t>(cfg.port)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n", e.what());
      return 1;
    }
    if (cfg.trace_sample > 0)
      clients.back()->set_trace_sampling(cfg.trace_sample);
  }

  Counters ctr;
  std::vector<OpHists> hists(cfg.clients);
  hart::common::Stopwatch sw;
  std::vector<std::thread> pool;
  for (size_t c = 0; c < cfg.clients; ++c)
    pool.emplace_back(
        [&, c] { run_client(*clients[c], cfg, c, logp, &ctr, &hists[c]); });
  for (auto& t : pool) t.join();
  const double secs = sw.seconds();

  const uint64_t acked = ctr.acked.load();
  std::printf(
      "loadgen: mix=%s clients=%zu pipeline=%zu: %llu acked, %llu miss, "
      "%llu errors in %.2fs = %.0f ops/s\n",
      cfg.mix.c_str(), cfg.clients, cfg.pipeline,
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(ctr.misses.load()),
      static_cast<unsigned long long>(ctr.errors.load()), secs,
      (static_cast<double>(acked) + static_cast<double>(ctr.misses.load())) /
          (secs > 0 ? secs : 1));

  // Per-op-type client-observed latency (send → ack), merged over clients.
  OpHists total;
  for (const auto& h : hists)
    for (size_t s = 0; s < total.h.size(); ++s) total.h[s].merge(h.h[s]);
  for (size_t s = 0; s < total.h.size(); ++s) {
    if (total.h[s].count() == 0) continue;
    const auto p = total.h[s].percentiles();
    std::printf(
        "  %-7s n=%-9llu mean=%8.1fus p50=%8.1fus p95=%8.1fus "
        "p99=%8.1fus max=%8.1fus\n",
        hart::server::op_hist_name(s),
        static_cast<unsigned long long>(p.count), p.mean_ns / 1e3,
        static_cast<double>(p.p50_ns) / 1e3,
        static_cast<double>(p.p95_ns) / 1e3,
        static_cast<double>(p.p99_ns) / 1e3,
        static_cast<double>(p.max_ns) / 1e3);
  }

  // Snapshot metrics while the server is still up (TCP) / pre-shutdown
  // (in-proc), so the scrape itself is part of the measured run.
  if (!cfg.stats_out.empty()) {
    const std::string text = fetch_stats(cfg, local.get());
    if (std::ofstream out(cfg.stats_out, std::ios::binary);
        !text.empty() && out) {
      out << text;
      std::printf("loadgen: stats written to %s\n", cfg.stats_out.c_str());
    } else {
      std::fprintf(stderr, "loadgen: cannot write stats to %s\n",
                   cfg.stats_out.c_str());
    }
  }

  if (local != nullptr) {
    local->shutdown();
    for (size_t s = 0; s < local->shard_count(); ++s) {
      const auto& st = local->shard(s).stats();
      std::printf(
          "  shard %zu: %llu ops, %llu batches, %llu epochs (avg batch "
          "%.1f)\n",
          s, static_cast<unsigned long long>(st.ops.load()),
          static_cast<unsigned long long>(st.batches.load()),
          static_cast<unsigned long long>(st.epochs.load()),
          st.batches.load() != 0 ? static_cast<double>(st.ops.load()) /
                                       static_cast<double>(st.batches.load())
                                 : 0.0);
    }
  }
  if (!cfg.trace_out.empty()) {
    if (hart::obs::Tracer::instance().write_chrome_json(cfg.trace_out))
      std::printf("loadgen: trace written to %s (load in chrome://tracing)\n",
                  cfg.trace_out.c_str());
    else
      std::fprintf(stderr, "loadgen: cannot write trace to %s\n",
                   cfg.trace_out.c_str());
  }
  // Connection loss mid-run is an expected outcome for the crash harness:
  // the acked log stays valid. Exit 0 unless nothing at all succeeded.
  return acked > 0 || ctr.misses.load() > 0 ? 0 : 1;
}
