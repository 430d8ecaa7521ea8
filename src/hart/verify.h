// Offline integrity verifier ("fsck") for a HART persistent-memory image.
//
// Walks the raw persistent structures — the leaf chunk list, its bitmaps,
// the leaves, the value chunks they name, the recycle log — and checks
// every invariant the recovery path relies on, without mutating anything.
// Useful after a crash, in tests (the crash sweeps assert a clean report),
// and as executable documentation of the on-PM format.
//
// Checked invariants:
//   V1  the root carries the HART magic, this build's format version and
//       a sane hash_key_len;
//   V2  the leaf chunk list is acyclic, in-bounds, stride-aligned, and its
//       chunk headers have a consistent full-indicator / bitmap / hint;
//   V3  every live leaf has a well-formed key (1..24 bytes, NUL-padded to
//       24) and a well-formed value reference: an object slot of the
//       recorded class, a length that fits it, in a stride-aligned chunk
//       (value chunks are on no list) that lies in the arena and overlaps
//       no leaf chunk and no other class's chunk;
//   V4  no two live leaves share a value object;
//   V5  no two live leaves carry the same key;
//   V6  the recycle log is either empty or internally consistent.
// A value is live exactly when a live leaf names it, so a crashed image
// holds no orphaned or half-committed value to tolerate: the checks are
// the same before and after recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pmem/arena.h"

namespace hart::core {

struct VerifyIssue {
  enum class Severity { kError, kWarning };
  Severity severity;
  std::string what;
};

struct VerifyReport {
  std::vector<VerifyIssue> issues;
  uint64_t live_leaves = 0;
  uint64_t live_values = 0;  // values named by a live leaf
  uint64_t chunks = 0;

  [[nodiscard]] bool ok() const {
    for (const auto& i : issues)
      if (i.severity == VerifyIssue::Severity::kError) return false;
    return true;
  }
  [[nodiscard]] std::string summary() const;
};

/// Verify the HART image in `arena`. Read-only; safe on any arena, even a
/// corrupted one (structural walks are bounds-checked and cycle-guarded).
VerifyReport verify_hart_image(const pmem::Arena& arena);

}  // namespace hart::core
