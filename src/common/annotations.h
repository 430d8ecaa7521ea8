// Clang Thread Safety Analysis surface for the whole tree.
//
// Two things live here:
//
//  1. The TSA attribute macro set (CAPABILITY, GUARDED_BY, REQUIRES, ...).
//     Under clang these expand to the thread-safety attributes and the
//     `clang-thread-safety` CI job builds src/ with -Werror=thread-safety;
//     under GCC (the default local toolchain) they expand to nothing, so
//     annotated code compiles identically everywhere.
//
//  2. Annotated lock wrappers. libstdc++'s std::mutex / std::shared_mutex
//     carry no capability attributes, so TSA cannot see std::lock_guard /
//     std::unique_lock acquisitions. Guarded state therefore uses
//     common::Mutex / common::SharedMutex plus the scoped lockers below
//     (MutexLock, WriterLock, ReaderLock) and common::CondVar. The wrappers
//     are zero-cost shims over the std types.
//
// Annotation conventions for this tree (see DESIGN.md §8):
//   * Every member a mutex protects is GUARDED_BY(that mutex).
//   * `*_locked()` helpers declare REQUIRES(mu) instead of re-locking.
//     Capability expressions may be parameter-relative: REQUIRES(st.mu).
//   * Condition-variable waits are explicit while-loops around
//     CondVar::wait(mu) — TSA analyzes lambdas as separate functions, so
//     the predicate-lambda form of std::condition_variable::wait() would
//     hide the capability and is not used in annotated code.
//   * Data read by optimistic/seqlock readers (ART node words, the leaf value
//     word, Partition::tree under version validation) is deliberately NOT
//     GUARDED_BY — those protocols are checked by tools/hartlint instead.
//   * NO_THREAD_SAFETY_ANALYSIS is a last resort and needs a comment.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HART_TSA(x) __attribute__((x))
#endif
#endif
#ifndef HART_TSA
#define HART_TSA(x)  // no-op: GCC and pre-TSA clang
#endif

#define CAPABILITY(x) HART_TSA(capability(x))
#define SCOPED_CAPABILITY HART_TSA(scoped_lockable)
#define GUARDED_BY(x) HART_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) HART_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) HART_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) HART_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) HART_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) HART_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) HART_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) HART_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) HART_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) HART_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) HART_TSA(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) HART_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  HART_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) HART_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) HART_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) HART_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS HART_TSA(no_thread_safety_analysis)

// ---- hartlint markers (tools/hartlint) ------------------------------------
//
// HARTLINT_SUPPRESS("RULE: reason") — placed on (or on the line before) the
// flagged statement; hartlint skips the finding but records the suppression
// so `hartlint.py --list-suppressions` stays auditable. Expands to nothing.
#define HARTLINT_SUPPRESS(reason)

// REQUIRES_EBR_PIN — declares that a function may only be called while the
// calling thread holds a live ebr::Guard (rule HL003 unpinned-retire).
// hartlint treats the body of a REQUIRES_EBR_PIN function as pinned and
// checks that every *call site* is lexically inside a Guard scope or inside
// another REQUIRES_EBR_PIN function. Expands to nothing in normal builds;
// the optional AST-based checker (tools/hartlint/clang) compiles with
// -DHARTLINT_AST_PASS and sees it as an annotate attribute.
#if defined(HARTLINT_AST_PASS)
#define REQUIRES_EBR_PIN __attribute__((annotate("hart::requires_ebr_pin")))
#else
#define REQUIRES_EBR_PIN
#endif

namespace hart::common {

// Annotated exclusive mutex. Use with MutexLock or lock()/unlock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Escape hatch for CondVar: the underlying std::mutex. Callers other
  /// than CondVar should never need this.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Annotated reader/writer mutex. Use with WriterLock / ReaderLock.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive lock on a Mutex (annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive lock on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  // Generic release: a scoped capability's destructor releases whatever
  // mode its constructor acquired.
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable usable with Mutex under TSA. wait() declares
// REQUIRES(mu): the caller holds mu (via MutexLock), wait() borrows it for
// the duration of the block through adopt/release so the capability is held
// again on return — exactly what the analysis assumes.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // caller still holds mu
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(lk, d);
    lk.release();
    return st;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hart::common
