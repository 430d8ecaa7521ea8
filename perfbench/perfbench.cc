// perfbench — one seeded benchmark for HART and hartd (see README.md).
//
//   perfbench --workload <embedded_dict|svc_write_churn|svc_read_zipf>
//             --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]
//             [--commit <id>] [--source-digest <hex>]
//
// Prints the run's configuration, one line per metric (name, value, unit,
// sample count), and as its last line a JSON object with the op accounting
// and every metric. --trace 0 reports end-to-end metrics; --trace 1 runs an
// untraced and a traced pass and reports the per-layer metrics that apply
// to the workload. Exits 1 when any output check failed, 2 when the build
// or environment is not one the benchmark may measure.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "art/simd.h"
#include "common.h"
#include "obs/counters.h"

namespace perfbench {

Counters Counters::read() {
  static constexpr const char* kNames[kCount] = {
      "art_simd_cmp_total",
      "art_optimistic_retry_total",
      "hart_read_fallback_total",
      "hart_fp_skip_total",
      "hart_fp_false_positive_total",
      "epalloc_pm_meta_persists_total",
      "epalloc_stripe_steals_total",
      "epalloc_meta_flush_batches_total",
      "ebr_deferred_free_total",
  };
  auto& reg = hart::obs::Registry::instance();
  Counters c;
  for (int i = 0; i < kCount; ++i) c.v[i] = reg.counter(kNames[i]).value();
  return c;
}

uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& t) {
    return static_cast<uint64_t>(t.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(t.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

void add_latency_metrics(WindowedLatency* lat, Result* r) {
  for (size_t t = 0; t < kOpTypes; ++t) {
    const uint64_t n = lat->count(t);
    if (n == 0) continue;
    // Each window must leave at least 10 samples beyond its p99.
    if (lat->min_window(t) < 1000)
      std::fprintf(stderr, "perfbench: only %llu %s samples in a window\n",
                   static_cast<unsigned long long>(lat->min_window(t)),
                   op_name(t));
    const std::string op = op_name(t);
    r->add(op + "_p50_us", lat->pct_us(t, 50), "us", n);
    r->add(op + "_p99_us", lat->pct_us(t, 99), "us", n);
  }
}

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    o += ch;
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

uint64_t llc_bytes() {
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<uint64_t>(v);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  uint64_t n = std::strtoull(s.c_str(), nullptr, 10);
  if (s.back() == 'K') n <<= 10;
  if (s.back() == 'M') n <<= 20;
  return n;
}

/// A refusal reason, or empty when this build and environment may be
/// measured.
std::string refusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (PERFBENCH_SANITIZED) return "sanitizer build";
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  for (const char* env : {"HART_LEGACY_ALLOC", "HART_ARENA_MB", "HART_ARENA_DIR"})
    if (std::getenv(env) != nullptr)
      return std::string(env) + " is set; unset it to run the benchmark";
  return {};
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <embedded_dict|svc_write_churn|"
               "svc_read_zipf> --seed <n> --seconds <s> --trace <0|1> "
               "[--tmpdir <dir>] [--commit <id>] [--source-digest <hex>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  std::string commit = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--tmpdir") a.tmpdir = v;
    else if (k == "--commit") commit = v;
    else if (k == "--source-digest") digest = v;
    else return usage();
  }
  if (argc % 2 == 0 || a.seconds <= 0 ||
      (a.workload != "embedded_dict" && a.workload != "svc_write_churn" &&
       a.workload != "svc_read_zipf"))
    return usage();
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    return 2;
  }

  Result r = a.workload == "embedded_dict" ? run_embedded(a) : run_service(a);
  const double attempted = static_cast<double>(r.attempted);
  if (!a.trace)
    r.add("error_rate", attempted > 0 ? r.failed / attempted : 1.0, "ratio",
          r.attempted);

  std::map<std::string, std::string> cfg = {
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", num(a.seconds)},
      {"trace", a.trace ? "1" : "0"},
      {"commit", commit},
      {"source_digest", digest},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", "gcc " __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd", hart::art::simd::enabled() ? "on" : "off"},
      {"pm_latency_ns", "600/300 write/read"},
      {"llc_bytes", std::to_string(llc_bytes())},
  };
  for (auto& [k, v] : r.config) cfg[k] = v;
  double pm = -1, dram = -1;
  for (const auto& m : r.metrics) {
    if (m.name == "pm_bytes_per_key") pm = m.value;
    if (m.name == "dram_bytes_per_key") dram = m.value;
  }
  const uint64_t llc = llc_bytes();
  if (pm >= 0 && dram >= 0 && llc > 0) {
    const double keys = std::strtod(
        (cfg.count("keys") ? cfg["keys"] : cfg["preloaded_keys"]).c_str(),
        nullptr);
    const double ws = keys * (pm + dram);
    cfg["working_set_bytes"] = num(ws);
    cfg["working_set_over_llc"] = num(ws / static_cast<double>(llc));
  }
  std::string c = "{";
  for (const auto& [k, v] : cfg) c += (c.size() > 1 ? ", " : "") + json_str(k) + ": " + json_str(v);
  std::printf("config %s}\n", c.c_str());

  std::string metrics = "{";
  for (const auto& m : r.metrics) {
    std::printf("metric %-36s %14.4f %-6s samples=%llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
    metrics += (metrics.size() > 1 ? ", " : "") + json_str(m.name) +
               ": {\"value\": " + num(m.value) + ", \"unit\": " +
               json_str(m.unit) + ", \"samples\": " + std::to_string(m.samples) +
               "}";
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
