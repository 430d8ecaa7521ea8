// The PM device model: one Arena is one emulated persistent-memory device.
//
// What it models (cf. DESIGN.md, substitution table):
//  * byte-addressable persistent space, addressed by offsets (POff<T>) so a
//    file-backed arena survives re-mapping;
//  * the persistent() primitive of the paper ({MFENCE, CLFLUSH, MFENCE}):
//    Arena::persist() flushes a cache-line-granular range, injects the
//    configured PM-write latency delta, and participates in crash
//    simulation;
//  * PM read latency: Arena::pm_read() charges the read delta per touched
//    cache line (the paper's stall-cycle accounting, eq. (1)-(2), applied
//    on-line);
//  * the crash model "stores that were not flushed are lost": with
//    Options::shadow enabled the arena keeps a shadow copy updated only by
//    persist(); crash() rolls unflushed lines back (optionally keeping each
//    dirty line with probability eviction_prob, modeling cache eviction).
//
// Thread-safety: alloc/free/persist/pm_read are safe to call concurrently.
// Crash simulation (arm_crash_at / crash) is for single-threaded tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/counters.h"
#include "pmcheck/pmcheck.h"
#include "pmem/block_alloc.h"
#include "pmem/latency.h"
#include "pmem/pmdefs.h"
#include "pmem/stats.h"

namespace hart::pmem {

class Arena {
 public:
  struct Options {
    /// Device size in bytes. 0 resolves from the HART_ARENA_MB environment
    /// variable (default 256 MiB) — tests and the service layer use this
    /// so one knob sizes every arena of a run.
    size_t size = size_t{256} << 20;
    LatencyConfig latency = LatencyConfig::off();
    bool shadow = false;  // enable crash simulation (tests)
    /// Enable PMCheck: per-cache-line shadow state detecting unflushed
    /// reads, redundant persists, persists to unallocated PM, and PM races
    /// (see src/pmcheck/pmcheck.h). Test-only; adds a second shadow copy
    /// and a mutex on every persist/pm_read.
    bool check = false;
    pmcheck::Config check_config;
    /// Defer latency injection: persist()/pm_read()/alloc() accumulate the
    /// owed delay instead of busy-waiting, and pay_latency() sleeps it off
    /// in one block. On a time-shared host this lets several arenas
    /// (service shards) overlap their device stalls the way independent PM
    /// devices on dedicated cores would — the busy-wait default occupies
    /// the CPU other shards need. The service worker pays once per
    /// group-commit batch, before releasing the batch's acks.
    bool defer_latency = false;
    /// At crash(), probability that a dirty (unflushed) cache line survives
    /// anyway, modeling uncontrolled cache eviction. 0 = strict model.
    double eviction_prob = 0.0;
    uint64_t crash_seed = 1;
    /// Optional file backing; empty = anonymous memory. An existing file
    /// with a valid header is re-opened (recovered), otherwise initialized.
    /// Only a new or empty file is sized: a file whose length, or whose
    /// header's recorded size, differs from `size` is refused untouched.
    /// A *relative* path is resolved under $HART_ARENA_DIR (or the system
    /// temp directory), see resolve_file_path() — so parallel test runs
    /// can be isolated by pointing HART_ARENA_DIR at distinct directories.
    std::string file_path;
  };

  /// Where relative arena file paths land: $HART_ARENA_DIR when set, else
  /// the system temp directory. The directory is created if missing.
  static std::string arena_dir();
  /// Resolve `path` the way the constructor does: absolute paths pass
  /// through; relative paths are placed under arena_dir(), creating any
  /// intermediate directories.
  static std::string resolve_file_path(const std::string& path);
  /// The size recorded in the arena header of the file at `path`
  /// (resolved as above), or 0 when there is no file or it holds no arena.
  /// Reads the header only; the file is not modified.
  static size_t image_size(const std::string& path);

  explicit Arena(const Options& opts);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] size_t size() const { return opts_.size; }
  [[nodiscard]] bool reopened() const { return reopened_; }
  /// The backing file as opened (resolve_file_path() applied); empty for
  /// an anonymous arena.
  [[nodiscard]] const std::string& file_path() const {
    return opts_.file_path;
  }
  [[nodiscard]] const LatencyConfig& latency() const { return opts_.latency; }
  Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // ---- address translation -------------------------------------------
  template <typename T>
  [[nodiscard]] T* ptr(uint64_t off) const {
    return off == kNullOff
               ? nullptr
               : reinterpret_cast<T*>(base_ + off);
  }
  template <typename T>
  [[nodiscard]] T* ptr(POff<T> o) const {
    return ptr<T>(o.raw);
  }
  [[nodiscard]] uint64_t off(const void* p) const {
    return p == nullptr
               ? kNullOff
               : static_cast<uint64_t>(reinterpret_cast<const std::byte*>(p) -
                                       base_);
  }
  template <typename T>
  [[nodiscard]] POff<T> poff(const T* p) const {
    return POff<T>{off(p)};
  }

  /// The user root object, stored inside the arena header. Zero-initialized
  /// on a fresh arena; preserved when re-opening a file-backed arena. The
  /// index stores its magic, chunk-list heads and micro-logs here.
  template <typename T>
  [[nodiscard]] T* root() const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= kArenaHeaderSize - 128,
                  "root object too large for the header area");
    return reinterpret_cast<T*>(base_ + 128);
  }

  // ---- allocation ------------------------------------------------------
  /// Allocate `bytes` of PM with the given alignment; returns the offset.
  /// alloc and free each charge one modeled allocator-metadata flush
  /// (Stats::alloc_meta_persists, the PM-write delta; block_alloc.h).
  uint64_t alloc(uint64_t bytes, uint64_t align = kBlockSize);
  void free(uint64_t off, uint64_t bytes, uint64_t align = kBlockSize);

  /// Recovery protocol: mark all of PM free, then re-mark each span
  /// reachable from the index's persistent structures. Anything not marked
  /// is free again — allocator-level leak freedom by construction.
  /// mark_used returns false, and marks nothing, when [off, off + bytes)
  /// leaves the block space or overlaps a span marked already.
  void reset_alloc_map();
  bool mark_used(uint64_t off, uint64_t bytes);

  [[nodiscard]] bool is_allocated(uint64_t off, uint64_t bytes) const {
    return blocks_.is_used(off, bytes);
  }

  // ---- persistence primitive ------------------------------------------
  /// persistent(): flush [p, p+len) (cache-line granular) to the
  /// persistence domain. Injects the PM-write latency delta. If a crash
  /// point is armed and fires, throws CrashPoint *before* flushing.
  void persist(const void* p, size_t len);
  void persist_off(uint64_t o, size_t len) { persist(base_ + o, len); }

  /// Charge the PM read latency delta for a read of [p, p+len).
  void pm_read(const void* p, size_t len) const;

  /// Deferred-latency mode: sleep off the accumulated device-latency debt
  /// (clock_nanosleep, so the CPU is yielded to other shards' workers) and
  /// reset it. Returns the nanoseconds paid. No-op returning 0 when the
  /// debt is zero or Options::defer_latency is off.
  uint64_t pay_latency();
  /// Nanoseconds of injected latency accumulated and not yet paid.
  [[nodiscard]] uint64_t owed_latency_ns() const {
    return owed_ns_.load(std::memory_order_relaxed);
  }

  // ---- PMCheck ---------------------------------------------------------
  /// Annotate a PM store of [p, p+len) for the race checker. No-op unless
  /// Options::check; call *after* the store, before the matching persist().
  void trace_store(const void* p, size_t len) {
    if (check_) check_->on_store(off(p), len);
  }
  /// Notify the checker of sub-block object reuse (EPallocator slots).
  void note_object_alloc(uint64_t o, uint64_t bytes) {
    if (check_) check_->on_object_alloc(o, bytes);
  }
  /// The active checker, or nullptr when Options::check is off.
  [[nodiscard]] pmcheck::PmCheck* checker() const { return check_.get(); }
  /// Violation report; empty when Options::check is off.
  [[nodiscard]] pmcheck::Report pm_report() const {
    return check_ ? check_->report() : pmcheck::Report{};
  }

  // ---- crash simulation -------------------------------------------------
  /// Arm: the nth persist() from now (1-based) throws CrashPoint and does
  /// not flush. Automatically disarmed when it fires.
  void arm_crash_after(uint64_t nth_persist);
  void disarm_crash();
  /// Lose all unflushed stores (requires Options::shadow). Each dirty line
  /// independently survives with eviction_prob.
  void crash();
  /// Crash-state enumeration (test-only; requires Options::shadow): the
  /// offsets of the cache lines whose contents differ from the persisted
  /// image, ascending.
  [[nodiscard]] std::vector<uint64_t> unflushed_lines() const;
  /// crash() with an explicit survivor set instead of eviction_prob: the
  /// unflushed lines listed in `survivors` reach PM, every other
  /// unflushed line is lost.
  void crash_keeping(const std::vector<uint64_t>& survivors);
  /// Number of persist() calls since construction (to size crash sweeps).
  [[nodiscard]] uint64_t persist_count() const {
    return stats_.persist_calls.load(std::memory_order_relaxed);
  }

 private:
  void map_memory();
  /// Inject `ns` of device latency: spin now, or bank it for pay_latency().
  void charge_latency(uint64_t ns) const {
    if (ns == 0) return;
    stats_.injected_ns.fetch_add(ns, std::memory_order_relaxed);
    if (opts_.defer_latency) {
      owed_ns_.fetch_add(ns, std::memory_order_relaxed);
    } else {
      spin_ns(ns);
    }
  }

  Options opts_;
  std::byte* base_ = nullptr;
  std::unique_ptr<std::byte[]> shadow_;
  std::unique_ptr<pmcheck::PmCheck> check_;
  bool file_backed_ = false;
  bool reopened_ = false;
  int fd_ = -1;
  BlockAllocator blocks_;
  Stats stats_;
  mutable std::atomic<uint64_t> owed_ns_{0};
  std::atomic<bool> crash_armed_{false};
  std::atomic<int64_t> crash_countdown_{0};
  common::Rng crash_rng_;
  // HARTscope: this arena's Stats, scraped as cumulative pm_* metrics.
  // Registered last / destroyed first, so the source never outlives the
  // Stats it reads; unregistering folds the final sample into the global
  // registry, keeping scrape totals monotonic across arena lifetimes.
  obs::SourceHandle obs_source_;
};

}  // namespace hart::pmem
