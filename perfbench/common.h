// Shared pieces of the perfbench program: clocks, exact and histogram
// percentiles, the metric report, and the key/value model every output is
// checked against.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact percentile (linear interpolation between closest ranks); sorts
/// `v` in place. 0 for an empty sample.
inline double percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = p / 100.0 * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>((*v)[lo]) * (1.0 - frac) +
         static_cast<double>((*v)[hi]) * frac;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile of a log-bucketed LatencyHistogram, in µs, interpolated
/// linearly inside the bucket that holds it (the histogram itself only
/// reports bucket floors). 0 for an empty histogram.
inline double hist_pct_us(const hart::common::LatencyHistogram& h, double p) {
  if (h.count() == 0) return 0.0;
  const uint64_t floor = h.percentile_ns(p);
  // Smallest q whose percentile lands in this bucket, and smallest q past it.
  auto first_q = [&h](double lo, double hi, auto pred) {
    for (int i = 0; i < 50; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (pred(h.percentile_ns(mid))) hi = mid; else lo = mid;
    }
    return hi;
  };
  const double q_lo =
      first_q(0.0, p, [floor](uint64_t v) { return v >= floor; });
  const double q_hi =
      first_q(p, 100.0, [floor](uint64_t v) { return v > floor; });
  uint64_t width = 1;
  if (floor >= 16) {
    const int msb = 63 - __builtin_clzll(floor);
    width = uint64_t{1} << (msb - 4);
  }
  const double frac =
      q_hi > q_lo ? std::clamp((p - q_lo) / (q_hi - q_lo), 0.0, 1.0) : 0.0;
  return (static_cast<double>(floor) + frac * static_cast<double>(width)) /
         1e3;
}

// ---- operations and the expected-output model ---------------------------

enum OpType : uint8_t { kPut = 0, kGet = 1, kUpdate = 2, kDelete = 3 };
inline constexpr size_t kOpTypes = 4;
inline const char* op_name(size_t t) {
  static constexpr const char* kNames[kOpTypes] = {"put", "get", "update",
                                                   "delete"};
  return kNames[t];
}

/// One generated request. `state` is, for a write, the key's state index
/// after it; for a get, the key's newest state written earlier in the same
/// client's stream (the upper bound of what the get may observe).
struct Op {
  uint32_t key = 0;
  uint8_t type = kGet;
  uint32_t state = 0;
};

/// The value a write stores: key index and state index, 16 hex digits.
inline std::string value_of(uint32_t key, uint32_t state) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08x%08x", key, state);
  return std::string(buf, 16);
}

/// Every key's state history. State 0 is the key's initial state (present
/// when preloaded); each write appends one state. A get may observe any
/// state between the last acked write before it was sent and the last
/// write sent before it (same-key writes apply in send order).
class KeyModel {
 public:
  KeyModel() = default;

  /// Builds the histories from per-client op streams (each key belongs to
  /// one stream) and fills in every Op::state.
  void build(size_t nkeys, const std::vector<bool>& preloaded,
             std::vector<std::vector<Op>>* streams) {
    base_.assign(nkeys + 1, 0);
    for (const auto& s : *streams)
      for (const Op& op : s)
        if (op.type != kGet) ++base_[op.key + 1];
    for (size_t k = 0; k < nkeys; ++k) base_[k + 1] += base_[k] + 1;
    present_.assign(base_[nkeys], 0);
    std::vector<uint32_t> cur(nkeys, 0);
    for (size_t k = 0; k < nkeys; ++k) present_[base_[k]] = preloaded[k];
    for (auto& s : *streams) {
      for (Op& op : s) {
        if (op.type == kGet) {
          op.state = cur[op.key];
          continue;
        }
        op.state = ++cur[op.key];
        present_[base_[op.key] + op.state] = op.type != kDelete;
      }
    }
    acked_ = std::make_unique<std::atomic<uint32_t>[]>(nkeys);
    reset_acked();
  }

  void reset_acked() {
    for (size_t k = 0; k + 1 < base_.size(); ++k)
      acked_[k].store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] bool present(uint32_t key, uint32_t state) const {
    return present_[base_[key] + state] != 0;
  }
  [[nodiscard]] uint32_t acked(uint32_t key) const {
    return acked_[key].load(std::memory_order_acquire);
  }
  void ack(uint32_t key, uint32_t state) {
    acked_[key].store(state, std::memory_order_release);
  }

  /// Whether a get of `key`, allowed states [lo, hi], may return
  /// (found, value).
  [[nodiscard]] bool check_get(uint32_t key, uint32_t lo, uint32_t hi,
                               bool found, std::string_view value) const {
    if (lo > hi) return false;
    if (!found) {
      for (uint32_t s = lo; s <= hi; ++s)
        if (!present(key, s)) return true;
      return false;
    }
    uint32_t vk = 0;
    uint32_t vs = 0;
    return value.size() == 16 && parse_hex(value.substr(0, 8), &vk) &&
           parse_hex(value.substr(8), &vs) && vk == key && vs >= lo &&
           vs <= hi && present(key, vs);
  }

 private:
  static bool parse_hex(std::string_view s, uint32_t* out) {
    if (s.size() != 8) return false;
    uint32_t v = 0;
    for (const char c : s) {
      const int d = c >= '0' && c <= '9'   ? c - '0'
                    : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                           : -1;
      if (d < 0) return false;
      v = v << 4 | static_cast<uint32_t>(d);
    }
    *out = v;
    return true;
  }

  std::vector<uint32_t> base_;
  std::vector<uint8_t> present_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

// ---- layer counters -------------------------------------------------------

/// Process-wide obs::Registry counters the per-layer metrics are built from.
struct Counters {
  enum Id {
    kSimdCmp,
    kOptRetry,
    kReadFallback,
    kFpSkip,
    kFpFalsePositive,
    kMetaPersists,
    kStripeSteals,
    kMetaFlushBatches,
    kEbrDeferredFree,
    kCount
  };
  uint64_t v[kCount] = {};

  static Counters read();
  Counters operator-(const Counters& o) const {
    Counters d;
    for (int i = 0; i < kCount; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  Counters& operator+=(const Counters& o) {
    for (int i = 0; i < kCount; ++i) v[i] += o.v[i];
    return *this;
  }
  [[nodiscard]] double at(Id id) const { return static_cast<double>(v[id]); }
};

/// User + system CPU time of the whole process, in ns.
uint64_t process_cpu_ns();

// ---- results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one workload run reports: end-to-end metrics (untraced pass) or
/// per-layer metrics (traced pass), the op accounting, and the
/// configuration it ran with.
struct Result {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> config;  // recorded as-is

  void add(std::string name, double value, std::string unit,
           uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void note(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmpdir = ".";
};

/// Per-op-type latency samples split into time windows; each reported
/// percentile is the median over windows of the per-window percentile.
struct WindowedLatency {
  explicit WindowedLatency(size_t windows = 1)
      : w(windows, std::vector<std::vector<uint64_t>>(kOpTypes)) {}
  std::vector<std::vector<std::vector<uint64_t>>> w;  // [window][type]

  [[nodiscard]] uint64_t count(size_t type) const {
    uint64_t n = 0;
    for (const auto& win : w) n += win[type].size();
    return n;
  }
  /// Smallest per-window sample count of `type`.
  [[nodiscard]] uint64_t min_window(size_t type) const {
    uint64_t n = UINT64_MAX;
    for (const auto& win : w) n = std::min<uint64_t>(n, win[type].size());
    return w.empty() ? 0 : n;
  }
  double pct_us(size_t type, double p) {
    std::vector<double> per;
    for (auto& win : w)
      if (!win[type].empty()) per.push_back(percentile(&win[type], p) / 1e3);
    return median(per);
  }
};

/// Adds `<op>_p50_us` / `<op>_p99_us` for every op type with samples.
void add_latency_metrics(WindowedLatency* lat, Result* r);

Result run_embedded(const Args& a);
Result run_service(const Args& a);

}  // namespace perfbench
