#include "pmem/arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace hart::pmem {

namespace {
constexpr uint64_t kArenaMagic = 0x48415254'41524E41ULL;  // "HARTARNA"

struct ArenaHeader {
  uint64_t magic;
  uint64_t size;
};

/// The arena header of the open file `fd`, or a zeroed one when the file
/// is too short to hold it.
ArenaHeader read_header(int fd) {
  ArenaHeader hdr{};
  if (::pread(fd, &hdr, sizeof(hdr), 0) != static_cast<ssize_t>(sizeof(hdr)))
    hdr = ArenaHeader{};
  return hdr;
}

Arena::Options resolve_options(Arena::Options o) {
  if (o.size == 0) {
    size_t mb = 256;
    if (const char* v = std::getenv("HART_ARENA_MB"); v != nullptr)
      mb = std::strtoull(v, nullptr, 10);
    o.size = mb << 20;
  }
  if (!o.file_path.empty()) o.file_path = Arena::resolve_file_path(o.file_path);
  return o;
}
}  // namespace

std::string Arena::arena_dir() {
  std::filesystem::path dir;
  if (const char* v = std::getenv("HART_ARENA_DIR");
      v != nullptr && v[0] != '\0') {
    dir = v;
  } else {
    dir = std::filesystem::temp_directory_path();
  }
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string Arena::resolve_file_path(const std::string& path) {
  std::filesystem::path p(path);
  if (p.is_absolute()) {
    std::filesystem::create_directories(p.parent_path());
    return path;
  }
  std::filesystem::path full = std::filesystem::path(arena_dir()) / p;
  std::filesystem::create_directories(full.parent_path());
  return full.string();
}

size_t Arena::image_size(const std::string& path) {
  const int fd = ::open(resolve_file_path(path).c_str(), O_RDONLY);
  if (fd < 0) return 0;
  const ArenaHeader hdr = read_header(fd);
  ::close(fd);
  return hdr.magic == kArenaMagic ? hdr.size : 0;
}

Arena::Arena(const Options& opts)
    : opts_(resolve_options(opts)),
      blocks_(kArenaHeaderSize, opts_.size - kArenaHeaderSize),
      crash_rng_(opts.crash_seed) {
  if (opts_.size < kArenaHeaderSize * 2 ||
      (opts_.size % kBlockSize) != 0) {
    throw std::invalid_argument("arena size too small or unaligned");
  }
  map_memory();

  auto* hdr = reinterpret_cast<ArenaHeader*>(base_);
  if (file_backed_ && hdr->magic == kArenaMagic) {
    reopened_ = true;  // map_memory checked the recorded size
  } else {
    std::memset(base_, 0, kArenaHeaderSize);
    hdr->magic = kArenaMagic;
    hdr->size = opts_.size;
  }

  if (opts_.shadow) {
    shadow_ = std::make_unique<std::byte[]>(opts_.size);
    std::memcpy(shadow_.get(), base_, opts_.size);
  }
  if (opts_.check) {
    check_ = std::make_unique<pmcheck::PmCheck>(
        base_, opts_.size, kArenaHeaderSize, reopened_, opts_.check_config);
  }

  // HARTscope: expose this arena's device-model counters as scrape-time
  // pm_* metrics. A pull-source, not per-event counter bumps — the hot
  // persist/pm_read paths pay nothing beyond the Stats updates they
  // already do; aggregation happens only when the registry is scraped.
  obs_source_ = obs::SourceHandle([this](obs::Registry::Sample* out) {
    const StatsSnapshot s = stats_.snapshot();
    out->emplace_back("pm_persist_calls_total", s.persist_calls);
    out->emplace_back("pm_persisted_bytes_total", s.persisted_bytes);
    out->emplace_back("pm_read_lines_total", s.pm_read_lines);
    out->emplace_back("pm_alloc_calls_total", s.alloc_calls);
    out->emplace_back("pm_free_calls_total", s.free_calls);
    out->emplace_back("pm_alloc_meta_persists_total", s.alloc_meta_persists);
    out->emplace_back("pm_injected_ns_total", s.injected_ns);
    out->emplace_back("pm_deferred_paid_ns_total", s.deferred_paid_ns);
  });
}

void Arena::map_memory() {
  if (!opts_.file_path.empty()) {
    fd_ = ::open(opts_.file_path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) throw std::runtime_error("cannot open arena file");
    // Check before sizing: truncating first would destroy the data of an
    // arena opened with the wrong size, which is then refused anyway.
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot stat arena file");
    }
    const ArenaHeader hdr = read_header(fd_);
    const bool mismatch =
        st.st_size != 0 &&
        (static_cast<uint64_t>(st.st_size) != opts_.size ||
         (hdr.magic == kArenaMagic && hdr.size != opts_.size));
    if (mismatch) {
      ::close(fd_);
      throw std::runtime_error("arena file size mismatch");
    }
    if (st.st_size == 0 &&
        ::ftruncate(fd_, static_cast<off_t>(opts_.size)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot size arena file");
    }
    void* p = ::mmap(nullptr, opts_.size, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
    if (p == MAP_FAILED) {
      ::close(fd_);
      throw std::runtime_error("cannot mmap arena file");
    }
    base_ = static_cast<std::byte*>(p);
    file_backed_ = true;
  } else {
    void* p = ::mmap(nullptr, opts_.size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("cannot mmap arena");
    base_ = static_cast<std::byte*>(p);
  }
}

Arena::~Arena() {
  // Drop the scrape source before unmapping; the fold-on-unregister keeps
  // process-wide pm_* totals monotonic after this arena is gone.
  obs_source_ = obs::SourceHandle();
  if (base_ != nullptr) {
    if (file_backed_) ::msync(base_, opts_.size, MS_SYNC);
    ::munmap(base_, opts_.size);
  }
  if (fd_ >= 0) ::close(fd_);
}

uint64_t Arena::alloc(uint64_t bytes, uint64_t align) {
  const uint64_t off = blocks_.alloc(bytes, align);
  stats_.alloc_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.pm_live_bytes.fetch_add(bytes, std::memory_order_relaxed);
  stats_.pm_block_bytes.store(blocks_.used_block_bytes(),
                              std::memory_order_relaxed);
  stats_.alloc_meta_persists.fetch_add(1, std::memory_order_relaxed);
  charge_latency(opts_.latency.extra_write_ns());
  if (check_) check_->on_alloc(off, bytes);
  return off;
}

void Arena::free(uint64_t off, uint64_t bytes, uint64_t align) {
  blocks_.free(off, bytes, align);
  if (check_) check_->on_free(off, bytes);
  stats_.free_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.pm_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  stats_.pm_block_bytes.store(blocks_.used_block_bytes(),
                              std::memory_order_relaxed);
  stats_.alloc_meta_persists.fetch_add(1, std::memory_order_relaxed);
  charge_latency(opts_.latency.extra_write_ns());
}

void Arena::reset_alloc_map() {
  blocks_.reset_all_free();
  if (check_) check_->on_reset_alloc_map();
  stats_.pm_live_bytes.store(0, std::memory_order_relaxed);
  stats_.pm_block_bytes.store(0, std::memory_order_relaxed);
}

bool Arena::mark_used(uint64_t off, uint64_t bytes) {
  if (!blocks_.mark_used(off, bytes)) return false;
  if (check_) check_->on_mark_used(off, bytes);
  stats_.pm_live_bytes.fetch_add(bytes, std::memory_order_relaxed);
  stats_.pm_block_bytes.store(blocks_.used_block_bytes(),
                              std::memory_order_relaxed);
  return true;
}

void Arena::persist(const void* p, size_t len) {
  stats_.persist_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.persisted_bytes.fetch_add(len, std::memory_order_relaxed);

  // Acquire pairs with the release in arm_crash_after(): a thread that
  // observes the armed flag also observes the freshly stored countdown
  // (without it, a stale countdown could make the crash point fire at the
  // wrong persist — or never). The fetch_sub itself hands exactly one
  // thread the value 1, so concurrent persists cannot double-fire.
  if (crash_armed_.load(std::memory_order_acquire)) {
    if (crash_countdown_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      crash_armed_.store(false, std::memory_order_relaxed);
      throw CrashPoint{};
    }
  }

  if (check_) check_->on_persist(off(p), len);

  // CLFLUSH granularity: the flush covers whole cache lines.
  const uint64_t start = off(p) & ~(kCacheLine - 1);
  uint64_t end = off(p) + len;
  end = (end + kCacheLine - 1) & ~(kCacheLine - 1);
  if (shadow_) {
    std::memcpy(shadow_.get() + start, base_ + start, end - start);
  }
  // One CLFLUSH per line; each pays the PM-write delta (the paper charges
  // the delta per persistent() invocation, whose common case is one line).
  charge_latency(opts_.latency.extra_write_ns() * ((end - start) / kCacheLine));
}

void Arena::pm_read(const void* p, size_t len) const {
  if (check_) check_->on_read(off(p), len);
  const uint64_t start = off(p) & ~(kCacheLine - 1);
  uint64_t end = off(p) + len;
  end = (end + kCacheLine - 1) & ~(kCacheLine - 1);
  const uint64_t lines = (end - start) / kCacheLine;
  stats_.pm_read_lines.fetch_add(lines, std::memory_order_relaxed);
  const uint32_t extra = opts_.latency.extra_read_ns();
  if (extra != 0) charge_latency(uint64_t{extra} * lines);
}

uint64_t Arena::pay_latency() {
  const uint64_t ns = owed_ns_.exchange(0, std::memory_order_relaxed);
  if (ns == 0) return 0;
  stats_.deferred_paid_ns.fetch_add(ns, std::memory_order_relaxed);
  struct timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  ts.tv_nsec += static_cast<long>(ns % 1000000000);
  ts.tv_sec += static_cast<time_t>(ns / 1000000000);
  if (ts.tv_nsec >= 1000000000) {
    ts.tv_nsec -= 1000000000;
    ++ts.tv_sec;
  }
  // Absolute deadline so EINTR restarts do not stretch the stall.
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
  return ns;
}

void Arena::arm_crash_after(uint64_t nth_persist) {
  crash_countdown_.store(static_cast<int64_t>(nth_persist),
                         std::memory_order_relaxed);
  // Release: publishes the countdown to any thread that sees armed == true
  // (see the acquire load in persist()).
  crash_armed_.store(true, std::memory_order_release);
}

void Arena::disarm_crash() {
  crash_armed_.store(false, std::memory_order_relaxed);
}

void Arena::crash() {
  if (!shadow_) throw std::logic_error("crash() requires Options::shadow");
  disarm_crash();
  for (uint64_t line = 0; line < opts_.size; line += kCacheLine) {
    if (std::memcmp(base_ + line, shadow_.get() + line, kCacheLine) == 0)
      continue;
    if (opts_.eviction_prob > 0.0 &&
        crash_rng_.next_bool(opts_.eviction_prob)) {
      // This dirty line happened to be evicted before the crash: it is
      // persistent after all.
      std::memcpy(shadow_.get() + line, base_ + line, kCacheLine);
    } else {
      std::memcpy(base_ + line, shadow_.get() + line, kCacheLine);
    }
  }
  if (check_) check_->on_crash();
}

std::vector<uint64_t> Arena::unflushed_lines() const {
  if (!shadow_) throw std::logic_error("unflushed_lines() requires shadow");
  std::vector<uint64_t> out;
  for (uint64_t line = 0; line < opts_.size; line += kCacheLine)
    if (std::memcmp(base_ + line, shadow_.get() + line, kCacheLine) != 0)
      out.push_back(line);
  return out;
}

void Arena::crash_keeping(const std::vector<uint64_t>& survivors) {
  if (!shadow_) throw std::logic_error("crash_keeping() requires shadow");
  disarm_crash();
  for (const uint64_t line : survivors)
    std::memcpy(shadow_.get() + line, base_ + line, kCacheLine);
  for (const uint64_t line : unflushed_lines())
    std::memcpy(base_ + line, shadow_.get() + line, kCacheLine);
  if (check_) check_->on_crash();
}

}  // namespace hart::pmem
