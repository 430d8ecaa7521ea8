// HARTscope trace — bounded per-thread ring buffers of typed events,
// exportable as chrome://tracing JSON.
//
// Each thread that records gets its own fixed-capacity ring (registered
// with the Tracer on first use), so recording is a seqlocked slot write —
// no lock, no allocation, and old events are overwritten when the ring
// wraps. The global enabled flag is a relaxed atomic load, so a disabled
// tracer costs one predictable branch per probe.
//
// Export (chrome_json()) merges every ring, sorts by timestamp and emits
// the Trace Event Format ("X" duration events / "i" instants) that
// chrome://tracing and Perfetto load directly. Export may run while
// threads record: it skips a slot that is mid-write rather than tear it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/annotations.h"

namespace hart::obs {

enum class TraceKind : uint8_t {
  kOp = 0,       // one index/service operation
  kBatch = 1,    // one group-commit batch
  kFence = 2,    // epoch fence persist
  kRecovery = 3, // recovery phase
  kPhase = 4,    // bench phase / workload cell
  kMark = 5,     // instant marker
};

inline const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kOp: return "op";
    case TraceKind::kBatch: return "batch";
    case TraceKind::kFence: return "fence";
    case TraceKind::kRecovery: return "recovery";
    case TraceKind::kPhase: return "phase";
    default: return "mark";
  }
}

struct TraceEvent {
  uint64_t ts_ns = 0;   // since Tracer epoch
  uint64_t dur_ns = 0;  // 0 = instant event
  char name[22] = {};   // NUL-terminated, truncated
  TraceKind kind = TraceKind::kMark;
  uint8_t pad = 0;
  uint32_t arg = 0;     // shard index / batch size / record count ...
  uint64_t trace_id = 0;  // 0 = unsampled; nonzero ids stitch spans
                          // across threads and processes
};

static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                  sizeof(TraceEvent) % sizeof(uint64_t) == 0,
              "TraceRing copies events as whole words");

/// Single-writer bounded ring that other threads may snapshot while it is
/// being written. Readers (export, tests) take a snapshot in record order,
/// oldest first; once full, each push evicts the oldest.
///
/// Every slot is a seqlock. The writer of push index i sets the slot's
/// sequence to the odd 2i+1, stores the event's words as release atomics,
/// then publishes the even 2i+2 with release. A reader keeps slot i only
/// when it saw exactly 2i+2 both before and after copying the words, so a
/// snapshot skips a slot that is mid-write or was overwritten during the
/// copy instead of returning a torn event. All shared state is atomic: the
/// ring is race-free by construction, and on x86 its release stores and
/// acquire loads compile to plain moves.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  void push(const TraceEvent& e) {
    const uint64_t h = head_.load(std::memory_order_relaxed);  // one writer
    Slot& s = slots_[static_cast<size_t>(h % slots_.size())];
    uint64_t w[kWords];
    std::memcpy(w, &e, sizeof(e));
    s.seq.store(2 * h + 1, std::memory_order_relaxed);
    // Release: a reader that sees any of these words also sees the odd
    // sequence stored above.
    for (size_t i = 0; i < kWords; ++i)
      s.w[i].store(w[i], std::memory_order_release);
    s.seq.store(2 * h + 2, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  [[nodiscard]] size_t capacity() const { return slots_.size(); }
  [[nodiscard]] uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] size_t size() const {
    const uint64_t h = pushed();
    return h < slots_.size() ? static_cast<size_t>(h) : slots_.size();
  }

  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    const uint64_t h = pushed();
    const uint64_t n = std::min<uint64_t>(h, slots_.size());
    out.reserve(static_cast<size_t>(n));
    TraceEvent e;
    for (uint64_t i = h - n; i < h; ++i)
      if (read(i, &e)) out.push_back(e);
    return out;
  }

 private:
  static constexpr size_t kWords = sizeof(TraceEvent) / sizeof(uint64_t);

  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  // 2i+1 while push i writes, 2i+2 after
    std::atomic<uint64_t> w[kWords]{};
  };

  /// Copies push index `idx`'s event to *out; false when its slot is being
  /// written or already holds a later event.
  bool read(uint64_t idx, TraceEvent* out) const {
    const Slot& s = slots_[static_cast<size_t>(idx % slots_.size())];
    const uint64_t want = 2 * idx + 2;
    if (s.seq.load(std::memory_order_acquire) != want) return false;
    uint64_t w[kWords];
    for (size_t i = 0; i < kWords; ++i)
      w[i] = s.w[i].load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != want) return false;
    std::memcpy(out, w, sizeof(*out));
    return true;
  }

  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};  // pushes so far; written by the owner
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  /// Arm tracing; subsequent record() calls land in per-thread rings of
  /// `ring_capacity` events (one 64 B slot each). Resets any previous rings.
  void enable(size_t ring_capacity = size_t{1} << 15) {
    common::MutexLock lk(mu_);
    rings_.clear();
    ring_capacity_ = ring_capacity;
    epoch_ = std::chrono::steady_clock::now();
    gen_.fetch_add(1, std::memory_order_release);
    on_.store(true, std::memory_order_release);
  }

  void disable() { on_.store(false, std::memory_order_release); }

  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since enable(); the timestamp domain of every event.
  [[nodiscard]] uint64_t now_ns() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Record one event; no-op when disabled. `start_ns` is in the now_ns()
  /// domain (capture it before the timed section, pass the duration).
  /// `trace_id` (nonzero) marks the event as part of a sampled request's
  /// distributed span tree.
  void record(const char* name, TraceKind kind, uint64_t start_ns,
              uint64_t dur_ns, uint32_t arg = 0, uint64_t trace_id = 0) {
    if (!enabled()) return;
    TraceEvent e;
    e.ts_ns = start_ns;
    e.dur_ns = dur_ns;
    e.kind = kind;
    e.arg = arg;
    e.trace_id = trace_id;
    std::snprintf(e.name, sizeof(e.name), "%s", name);
    ring()->push(e);
  }

  /// Instant marker at now.
  void mark(const char* name, TraceKind kind = TraceKind::kMark,
            uint32_t arg = 0) {
    record(name, kind, now_ns(), 0, arg);
  }

  /// Merge every ring into Trace Event Format JSON. `tid` is the ring's
  /// registration index (one lane per recording thread).
  [[nodiscard]] std::string chrome_json() const {
    struct Tagged {
      TraceEvent e;
      size_t tid;
    };
    std::vector<Tagged> all;
    {
      common::MutexLock lk(mu_);
      for (size_t t = 0; t < rings_.size(); ++t)
        for (const TraceEvent& e : rings_[t]->snapshot())
          all.push_back({e, t});
    }
    std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
      return a.e.ts_ns < b.e.ts_ns;
    });
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[320];
    for (size_t i = 0; i < all.size(); ++i) {
      const TraceEvent& e = all[i].e;
      const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
      // Sampled events carry their trace id in args (hex string: u64 ids
      // overflow JSON double precision), so exports from several
      // processes stitch into one span tree on the shared id.
      char trace_arg[40] = {};
      if (e.trace_id != 0)
        std::snprintf(trace_arg, sizeof(trace_arg),
                      ",\"trace\":\"%016llx\"",
                      static_cast<unsigned long long>(e.trace_id));
      if (e.dur_ns == 0) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                      "\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%zu,"
                      "\"args\":{\"arg\":%u%s}}",
                      i == 0 ? "" : ",", e.name, trace_kind_name(e.kind),
                      ts_us, all[i].tid, e.arg, trace_arg);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                      "\"args\":{\"arg\":%u%s}}",
                      i == 0 ? "" : ",", e.name, trace_kind_name(e.kind),
                      ts_us, static_cast<double>(e.dur_ns) / 1000.0,
                      all[i].tid, e.arg, trace_arg);
      }
      out += buf;
    }
    out += "]}";
    return out;
  }

  /// Write chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
  }

  [[nodiscard]] size_t ring_count() const {
    common::MutexLock lk(mu_);
    return rings_.size();
  }

  /// Merged snapshot of every ring's surviving events, timestamp order.
  /// Meant for tests and post-quiesce inspection (same caveats as export).
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> all;
    {
      common::MutexLock lk(mu_);
      for (const auto& r : rings_)
        for (const TraceEvent& e : r->snapshot()) all.push_back(e);
    }
    std::sort(all.begin(), all.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts_ns < b.ts_ns;
              });
    return all;
  }

  /// Total events recorded (including overwritten ones).
  [[nodiscard]] uint64_t events_recorded() const {
    common::MutexLock lk(mu_);
    uint64_t n = 0;
    for (const auto& r : rings_) n += r->pushed();
    return n;
  }

 private:
  Tracer() = default;

  TraceRing* ring() {
    // Cache the ring per (thread, enable-generation): enable() drops old
    // rings, so a stale cached pointer from a previous generation must
    // re-register rather than dangle.
    struct Slot {
      uint64_t gen = 0;
      TraceRing* ring = nullptr;
    };
    thread_local Slot slot;
    // Lock-free on every record after the thread's first in a generation;
    // mu_ guards registration only.
    if (slot.ring != nullptr &&
        slot.gen == gen_.load(std::memory_order_acquire))
      return slot.ring;
    common::MutexLock lk(mu_);
    rings_.push_back(std::make_unique<TraceRing>(ring_capacity_));
    slot.ring = rings_.back().get();
    slot.gen = gen_.load(std::memory_order_relaxed);
    return slot.ring;
  }

  mutable common::Mutex mu_;
  std::atomic<bool> on_{false};
  // Ring *contents* are single-writer (each ring belongs to one thread);
  // mu_ guards only the registry of rings. The enable generation is
  // bumped under mu_ and read lock-free by record().
  std::deque<std::unique_ptr<TraceRing>> rings_ GUARDED_BY(mu_);
  size_t ring_capacity_ GUARDED_BY(mu_) = size_t{1} << 15;
  std::atomic<uint64_t> gen_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII duration event: times its scope, records on destruction. Pass a
/// nonzero `trace_id` to tie the span into a sampled request's tree.
class TraceSpan {
 public:
  TraceSpan(const char* name, TraceKind kind, uint32_t arg = 0,
            uint64_t trace_id = 0)
      : name_(name), kind_(kind), arg_(arg), trace_id_(trace_id),
        on_(Tracer::instance().enabled()) {
    if (on_) t0_ = Tracer::instance().now_ns();
  }
  ~TraceSpan() {
    if (on_)
      Tracer::instance().record(name_, kind_, t0_,
                                Tracer::instance().now_ns() - t0_, arg_,
                                trace_id_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  TraceKind kind_;
  uint32_t arg_;
  uint64_t trace_id_;
  bool on_;
  uint64_t t0_ = 0;
};

}  // namespace hart::obs
