#include "server/config.h"

#include <cstdlib>
#include <cstring>

#include "epalloc/allocator.h"

namespace hart::server {

namespace {

/// strtoull with full-string validation ("12x" and "" are errors).
bool parse_u64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

bool parse_latency(const std::string& s, pmem::LatencyConfig* lat) {
  const size_t slash = s.find('/');
  if (slash == std::string::npos) return false;
  uint64_t w = 0;
  uint64_t r = 0;
  if (!parse_u64(s.substr(0, slash).c_str(), &w) ||
      !parse_u64(s.substr(slash + 1).c_str(), &r))
    return false;
  lat->pm_write_ns = static_cast<uint32_t>(w);
  lat->pm_read_ns = static_cast<uint32_t>(r);
  return true;
}

/// One flag position: the flag itself plus, for valued flags, argv[*i+1].
/// A small state machine shared by both matchers below.
struct ArgCursor {
  int argc;
  char** argv;
  int* i;
  std::string* err;

  [[nodiscard]] std::string flag() const { return argv[*i]; }
  /// The flag's value, advancing past it; nullptr (and *err set) when the
  /// command line ends at the flag.
  const char* value() {
    if (*i + 1 >= argc) {
      *err = flag() + " needs a value";
      return nullptr;
    }
    return argv[++*i];
  }
  bool u64(uint64_t* out) {
    const std::string f = flag();
    const char* v = value();
    if (v == nullptr) return false;
    if (!parse_u64(v, out)) {
      *err = f + ": not a number: '" + std::string(v) + "'";
      return false;
    }
    return true;
  }
};

}  // namespace

FlagParse parse_server_flag(int argc, char** argv, int* i,
                            Hartd::Options* opts, std::string* err) {
  ArgCursor c{argc, argv, i, err};
  const std::string a = argv[*i];
  uint64_t n = 0;
  if (a == "--shards") {
    if (!c.u64(&n)) return FlagParse::kError;
    opts->shards = n;
  } else if (a == "--batch") {
    if (!c.u64(&n)) return FlagParse::kError;
    opts->batch_size = n;
  } else if (a == "--queue") {
    if (!c.u64(&n)) return FlagParse::kError;
    opts->queue_capacity = n;
  } else if (a == "--arena-dir") {
    const char* v = c.value();
    if (v == nullptr) return FlagParse::kError;
    opts->arena_dir = v;
  } else if (a == "--arena-mb") {
    if (!c.u64(&n)) return FlagParse::kError;
    opts->arena_mb = n;
  } else if (a == "--latency") {
    const char* v = c.value();
    if (v == nullptr) return FlagParse::kError;
    if (!parse_latency(v, &opts->latency)) {
      *err = "--latency wants W/R nanoseconds, e.g. 300/100";
      return FlagParse::kError;
    }
  } else if (a == "--spin-latency") {
    opts->defer_latency = false;
  } else if (a == "--bloom-bits-per-key") {
    if (!c.u64(&n)) return FlagParse::kError;
    opts->bloom_bits_per_key = n;
  } else if (a == "--rwlock-reads") {
    opts->hart.rwlock_reads = true;
  } else if (a == "--check") {
    opts->check = true;
  } else if (a == "--alloc-stripes") {
    if (!c.u64(&n)) return FlagParse::kError;
    if (n == 0 || n > epalloc::AllocOptions::kMaxStripes) {
      *err = "--alloc-stripes wants 1.." +
             std::to_string(epalloc::AllocOptions::kMaxStripes);
      return FlagParse::kError;
    }
    opts->hart.alloc.stripes = static_cast<uint32_t>(n);
  } else if (a == "--eager-meta") {
    opts->hart.alloc.batched_meta = false;
  } else {
    return FlagParse::kNoMatch;
  }
  return FlagParse::kOk;
}

bool parse_config(int argc, char** argv, Config* cfg, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    switch (parse_server_flag(argc, argv, &i, &cfg->service, err)) {
      case FlagParse::kOk: continue;
      case FlagParse::kError: return false;
      case FlagParse::kNoMatch: break;
    }
    ArgCursor c{argc, argv, &i, err};
    const std::string a = argv[i];
    uint64_t n = 0;
    if (a == "--help" || a == "-h") {
      cfg->show_help = true;
    } else if (a == "--print-config") {
      cfg->print_config = true;
    } else if (a == "--port") {
      if (!c.u64(&n)) return false;
      cfg->port = static_cast<long>(n);
    } else if (a == "--port-file") {
      const char* v = c.value();
      if (v == nullptr) return false;
      cfg->port_file = v;
    } else if (a == "--follow") {
      cfg->service.follow = true;
    } else if (a == "--replicate-to") {
      const char* v = c.value();
      if (v == nullptr) return false;
      const std::string list = v;
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string one =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!one.empty()) cfg->service.replicate_to.push_back(one);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (cfg->service.replicate_to.empty()) {
        *err = "--replicate-to wants host:port[,host:port...]";
        return false;
      }
    } else if (a == "--ack-policy") {
      const char* v = c.value();
      if (v == nullptr) return false;
      if (std::strcmp(v, "local") == 0) {
        cfg->service.ack_policy = repl::AckPolicy::kLocal;
      } else if (std::strcmp(v, "quorum") == 0) {
        cfg->service.ack_policy = repl::AckPolicy::kQuorum;
      } else {
        *err = "--ack-policy wants local|quorum";
        return false;
      }
    } else if (a == "--repl-log") {
      if (!c.u64(&n)) return false;
      cfg->service.repl_log_batches = n;
    } else if (a == "--repl-window") {
      if (!c.u64(&n)) return false;
      cfg->service.repl_window = n;
    } else if (a == "--stats-dump") {
      if (!c.u64(&n)) return false;
      cfg->stats_dump_secs = static_cast<long>(n);
    } else if (a == "--trace-out") {
      const char* v = c.value();
      if (v == nullptr) return false;
      cfg->trace_out = v;
    } else if (a == "--trace-sample") {
      if (!c.u64(&n)) return false;
      cfg->service.trace_sample = n;
    } else if (a == "--slow-op-us") {
      if (!c.u64(&n)) return false;
      cfg->service.slow_op_us = n;
    } else {
      *err = "unknown flag '" + a + "' (--help)";
      return false;
    }
  }
  if (cfg->show_help || cfg->print_config) return true;
  return validate_config(*cfg, err);
}

bool validate_config(const Config& cfg, std::string* err) {
  if (cfg.port < 0 || cfg.port > 65535) {
    *err = "--port wants 0..65535";
    return false;
  }
  if (cfg.service.shards == 0) {
    *err = "--shards must be >= 1";
    return false;
  }
  if (cfg.service.batch_size == 0) {
    *err = "--batch must be >= 1";
    return false;
  }
  if (cfg.service.queue_capacity == 0) {
    *err = "--queue must be >= 1";
    return false;
  }
  if (cfg.service.ack_policy == repl::AckPolicy::kQuorum &&
      cfg.service.replicate_to.empty()) {
    *err =
        "--ack-policy quorum needs --replicate-to; acks would otherwise "
        "never release";
    return false;
  }
  if (cfg.service.follow && !cfg.service.replicate_to.empty()) {
    *err = "--follow and --replicate-to are mutually exclusive (a follower "
           "becomes a replicating primary only via PROMOTE)";
    return false;
  }
  return true;
}

std::string usage_text(const char* argv0) {
  std::string s = "usage: ";
  s += argv0;
  s +=
      " [options]\n"
      "  --port N        TCP port on 127.0.0.1 (0 = ephemeral; default 7677)\n"
      "  --port-file P   write the bound port to file P (for scripts)\n"
      "  --shards N      number of HART shards               (default 4)\n"
      "  --batch N       max requests per group-commit batch (default 32)\n"
      "  --queue N       per-shard submission queue capacity (default 4096)\n"
      "  --arena-dir D   file-backed shard arenas in D (relative paths\n"
      "                  resolve under $HART_ARENA_DIR); omit = in-memory\n"
      "  --arena-mb N    per-shard arena MiB (default $HART_ARENA_MB or 256)\n"
      "  --latency W/R   PM write/read latency ns (e.g. 300/100; default off)\n"
      "  --spin-latency  busy-wait injected latency inside each persist\n"
      "                  (default: bank it, pay per batch with a sleep)\n"
      "  --alloc-stripes N  sub-allocator stripes per shard arena\n"
      "                  (default: hardware threads, capped at 8)\n"
      "  --eager-meta    ablation: persist every chunk-header change at the\n"
      "                  op instead of batching them onto the epoch fence\n"
      "  --bloom-bits-per-key N  per-shard counting Bloom filter in front\n"
      "                  of the Hart: the dispatcher answers definitively-\n"
      "                  absent GET/MGET keys without touching the shard\n"
      "                  (10 is reasonable, ~0.8% false positives; 0 = off)\n"
      "  --rwlock-reads  ablation: the paper's shared-lock read path\n"
      "                  instead of lock-free optimistic reads (GETs then\n"
      "                  queue behind shard writes again)\n"
      "  --check         enable PMCheck on every shard arena\n"
      "  --follow        start as a replication follower: client writes are\n"
      "                  rejected (not-primary), REPL_BATCH streams apply,\n"
      "                  reads serve stale-tolerant; PROMOTE flips to primary\n"
      "  --replicate-to L  ship every durable batch to followers, L =\n"
      "                  host:port[,host:port...]\n"
      "  --ack-policy P  local: ack writes after the local fence (default)\n"
      "                  quorum: ack only after a majority of followers\n"
      "                  confirmed the batch's fence\n"
      "  --repl-log N    per-stream replication log retention, in wire\n"
      "                  batches (default 4096)\n"
      "  --repl-window N max unconfirmed wire batches per follower link\n"
      "                  (default 64)\n"
      "  --stats-dump N  print a Prometheus-text metrics snapshot to stdout\n"
      "                  every N seconds (and once at shutdown)\n"
      "  --trace-out F   record a trace of batches/fences/recovery and\n"
      "                  write chrome://tracing JSON to F at shutdown\n"
      "  --trace-sample N  dispatcher-side request tracing: stamp every Nth\n"
      "                  unsampled KV request with a trace id (1 = all,\n"
      "                  0 = off); spans land in the --trace-out timeline\n"
      "  --slow-op-us N  structured slow-op log: any request whose stage\n"
      "                  breakdown exceeds N microseconds logs to stderr\n"
      "                  and bumps hartd_slow_ops_total (0 = off)\n"
      "  --print-config  dump the resolved configuration and exit\n"
      "  --help          this text\n";
  return s;
}

std::string dump_config(const Config& cfg) {
  const Hartd::Options& o = cfg.service;
  std::string s;
  auto kv = [&s](const char* k, const std::string& v) {
    s += k;
    s += " = ";
    s += v;
    s += '\n';
  };
  auto num = [&kv](const char* k, uint64_t v) { kv(k, std::to_string(v)); };
  auto onoff = [&kv](const char* k, bool v) { kv(k, v ? "true" : "false"); };
  num("port", static_cast<uint64_t>(cfg.port));
  kv("port_file", cfg.port_file.empty() ? "(none)" : cfg.port_file);
  num("shards", o.shards);
  num("batch_size", o.batch_size);
  num("queue_capacity", o.queue_capacity);
  kv("arena_dir", o.arena_dir.empty() ? "(in-memory)" : o.arena_dir);
  num("arena_mb", o.arena_mb);
  kv("latency",
     std::to_string(o.latency.pm_write_ns) + "/" +
         std::to_string(o.latency.pm_read_ns) + " ns");
  onoff("defer_latency", o.defer_latency);
  num("alloc_stripes", o.hart.alloc.stripes);  // 0 = auto (hw threads, <=8)
  onoff("alloc_batched_meta", o.hart.alloc.batched_meta);
  num("bloom_bits_per_key", o.bloom_bits_per_key);
  num("bloom_expected_keys", o.bloom_expected_keys);
  onoff("rwlock_reads", o.hart.rwlock_reads);
  onoff("fastpath_reads", o.fastpath_reads);
  onoff("check", o.check);
  onoff("follow", o.follow);
  std::string targets;
  for (const auto& t : o.replicate_to) {
    if (!targets.empty()) targets += ',';
    targets += t;
  }
  kv("replicate_to", targets.empty() ? "(none)" : targets);
  kv("ack_policy", repl::ack_policy_name(o.ack_policy));
  num("repl_log_batches", o.repl_log_batches);
  num("repl_window", o.repl_window);
  num("stats_dump_secs", static_cast<uint64_t>(cfg.stats_dump_secs));
  kv("trace_out", cfg.trace_out.empty() ? "(none)" : cfg.trace_out);
  num("trace_sample", o.trace_sample);
  num("slow_op_us", o.slow_op_us);
  return s;
}

}  // namespace hart::server
