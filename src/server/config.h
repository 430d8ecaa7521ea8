// hartd::Config — the service daemon's validated configuration, and the one
// command-line parser that produces it (ISSUE 10 satellite).
//
// hartd grew ~20 ad-hoc flags across tools/hartd_main.cc and a second,
// drifting copy of the engine knobs in tools/hartd_loadgen.cc (--inproc).
// This header centralizes them: `Config` is everything a daemon needs
// (listener + Hartd::Options), `parse_config()` is the single argv parser,
// and `parse_server_flag()` is the reusable engine-knob subset that loadgen
// consumes for its in-process server so the two binaries cannot drift.
// `dump_config()` renders the resolved configuration for `--print-config`.
#pragma once

#include <string>

#include "server/hartd.h"

namespace hart::server {

/// Everything `hartd` needs to run: the TCP listener knobs, operator I/O
/// (stats dumps, tracing), and the engine configuration handed to Hartd.
struct Config {
  /// TCP port on 127.0.0.1 (0 = ephemeral).
  long port = 7677;
  /// Write the bound port here after listen() (for scripts).
  std::string port_file;
  /// Print a Prometheus-text metrics snapshot every N seconds (0 = off).
  long stats_dump_secs = 0;
  /// chrome://tracing JSON written here at shutdown (empty = off).
  std::string trace_out;
  /// --print-config: dump the resolved configuration and exit 0.
  bool print_config = false;
  /// --help: print usage and exit 0.
  bool show_help = false;
  /// The engine: shards, batching, arenas, replication, allocator.
  Hartd::Options service;
};

/// Outcome of offering one argv position to a flag matcher.
enum class FlagParse {
  kNoMatch,  // not this matcher's flag; try the next one
  kOk,       // consumed (flag and, if any, its value; *i advanced)
  kError,    // matched but malformed; *err explains
};

/// Engine-knob subset shared by hartd and loadgen's --inproc server:
///   --shards --batch --queue --arena-dir --arena-mb --latency
///   --spin-latency --bloom-bits-per-key --rwlock-reads --check
///   --alloc-stripes --eager-meta
/// Offers argv[*i] to the matcher; on kOk, *i has been advanced past any
/// consumed value (the caller's loop ++ then moves to the next flag).
FlagParse parse_server_flag(int argc, char** argv, int* i,
                            Hartd::Options* opts, std::string* err);

/// Parses the full hartd command line into *cfg and validates it
/// (cross-flag rules included, e.g. quorum acks need --replicate-to).
/// Returns false with *err set on any unknown flag, malformed value, or
/// failed validation. --help and --print-config do not short-circuit the
/// parse; they set their Config bits for the caller to act on.
bool parse_config(int argc, char** argv, Config* cfg, std::string* err);

/// Cross-field validation only (parse_config already calls this). Exposed
/// for embedders that build a Config programmatically.
bool validate_config(const Config& cfg, std::string* err);

/// The full --help text.
std::string usage_text(const char* argv0);

/// "key = value" rendering of a resolved Config, one setting per line —
/// the --print-config output (and a scriptable config audit).
std::string dump_config(const Config& cfg);

}  // namespace hart::server
