// hartd — the HART KV service daemon. Serves N file-backed (or anonymous)
// HART shards over a TCP loopback listener; SIGINT/SIGTERM trigger a
// graceful shutdown (drain queues, quiesce shards, sync arenas). With
// --arena-dir, a restart after a crash recovers every shard and loses no
// acked write. See README.md "hartd quickstart".
//
// All flag parsing and validation lives in server/config.{h,cc}
// (hartd::Config) — this file is only the process scaffolding: signals,
// the listener, the tick loop, and shutdown reporting.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "server/client.h"
#include "server/config.h"
#include "server/stats.h"
#include "server/tcp.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using hart::server::Config;
  using hart::server::Hartd;

  Config cfg;
  std::string err;
  if (!hart::server::parse_config(argc, argv, &cfg, &err)) {
    std::fprintf(stderr, "hartd: %s\n", err.c_str());
    return 2;
  }
  if (cfg.show_help) {
    std::fputs(hart::server::usage_text(argv[0]).c_str(), stdout);
    return 0;
  }
  if (cfg.print_config) {
    if (!hart::server::validate_config(cfg, &err)) {
      std::fprintf(stderr, "hartd: %s\n", err.c_str());
      return 2;
    }
    std::fputs(hart::server::dump_config(cfg).c_str(), stdout);
    return 0;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Arm the tracer before the Hartd constructor so shard recovery shows
  // up in the timeline.
  if (!cfg.trace_out.empty()) hart::obs::Tracer::instance().enable();

  try {
    Hartd db(cfg.service);
    const bool recovered = db.reopened();
    hart::server::TcpServer tcp(db, static_cast<uint16_t>(cfg.port));

    if (!cfg.port_file.empty()) {
      if (FILE* f = std::fopen(cfg.port_file.c_str(), "w"); f != nullptr) {
        std::fprintf(f, "%u\n", tcp.port());
        std::fclose(f);
      }
    }
    // Where the shard files really are: a relative --arena-dir resolves
    // under HART_ARENA_DIR (or the temp directory), like any arena path.
    const std::string arenas =
        cfg.service.arena_dir.empty()
            ? ", in-memory arenas"
            : ", file-backed in " +
                  std::filesystem::path(db.shard(0).hart().arena().file_path())
                      .parent_path()
                      .string();
    std::printf(
        "hartd: listening on 127.0.0.1:%u — %zu shard(s), batch %zu%s%s\n",
        tcp.port(), db.shard_count(), cfg.service.batch_size, arenas.c_str(),
        recovered ? " (recovered existing shards)" : "");
    std::printf("hartd: allocator %s, %u stripe(s) per shard\n",
                db.shard(0).hart().allocator().kind_name(),
                db.shard(0).hart().allocator().stripe_count());
    std::printf("hartd: role %s%s%s\n", hart::repl::role_name(db.role()),
                cfg.service.replicate_to.empty()
                    ? ""
                    : (std::string(", replicating to ") +
                       std::to_string(cfg.service.replicate_to.size()) +
                       " follower(s), ack-policy " +
                       hart::repl::ack_policy_name(cfg.service.ack_policy))
                          .c_str(),
                cfg.service.follow ? " (PROMOTE to take over)" : "");
    if (recovered)
      std::printf("hartd: %zu keys recovered across shards\n",
                  db.total_size());
    std::fflush(stdout);

    long ticks = 0;
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (cfg.stats_dump_secs > 0 && ++ticks >= cfg.stats_dump_secs * 20) {
        ticks = 0;
        std::printf("# hartd stats dump\n%s# end stats dump\n",
                    hart::server::stats_prometheus(db).c_str());
        std::fflush(stdout);
      }
    }

    std::printf("hartd: shutting down (drain + quiesce)\n");
    tcp.stop();
    if (cfg.stats_dump_secs > 0) {
      std::printf("# hartd stats dump (final)\n%s# end stats dump\n",
                  hart::server::stats_prometheus(db).c_str());
      std::fflush(stdout);
    }
    db.shutdown();
    if (!cfg.trace_out.empty()) {
      if (hart::obs::Tracer::instance().write_chrome_json(cfg.trace_out))
        std::printf("hartd: trace written to %s (load in chrome://tracing)\n",
                    cfg.trace_out.c_str());
      else
        std::fprintf(stderr, "hartd: cannot write trace to %s\n",
                     cfg.trace_out.c_str());
    }
    uint64_t ops = 0, batches = 0, epochs = 0;
    for (size_t i = 0; i < db.shard_count(); ++i) {
      const auto& st = db.shard(i).stats();
      ops += st.ops.load();
      batches += st.batches.load();
      epochs += st.epochs.load();
    }
    std::printf("hartd: served %llu ops in %llu batches (%llu epochs), "
                "%zu keys live\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(epochs), db.total_size());
    return 0;
  } catch (const hart::core::FormatError& e) {
    // An arena written by an incompatible build: refuse it, untouched.
    std::fprintf(stderr, "hartd: refusing shard arena in %s: %s\n",
                 cfg.service.arena_dir.c_str(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hartd: fatal: %s\n", e.what());
    return 1;
  }
}
