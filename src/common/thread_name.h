// Thread naming: every long-lived hartd thread names itself after its role,
// so per-thread tools (top -H, perf, /proc/<pid>/task/*/comm and the
// per-thread context-switch and CPU counters next to it) attribute cost by
// role without a benchmark harness.
#pragma once

#include <pthread.h>

#include <string>

namespace hart::common {

/// Linux caps a thread name at 15 characters; longer names are cut.
inline constexpr size_t kMaxThreadName = 15;

/// Names the calling thread, e.g. "hartd-shard-3".
inline void set_thread_name(const std::string& name) {
#ifdef __linux__
  ::pthread_setname_np(::pthread_self(),
                       name.substr(0, kMaxThreadName).c_str());
#else
  (void)name;
#endif
}

}  // namespace hart::common
