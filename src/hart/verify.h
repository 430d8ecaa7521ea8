// Offline integrity verifier ("fsck") for a HART persistent-memory image.
//
// Walks the raw persistent structures — chunk lists, bitmaps, leaves,
// values, the recycle log — and checks every invariant the recovery path relies
// on, without mutating anything. Useful after a crash, in tests (the crash
// sweeps assert a clean report), and as executable documentation of the
// on-PM format.
//
// Checked invariants:
//   V1  the root carries the HART magic, this build's format version and
//       a sane hash_key_len;
//   V2  every chunk list is acyclic, in-bounds, stride-aligned, and chunk
//       headers have a consistent full-indicator / bitmap / hint;
//   V3  every live leaf has a well-formed key (1..24 bytes, no NUL) and a
//       well-formed value reference (in a chunk of the recorded class,
//       with the value bit set);
//   V4  no two live leaves share a value object; a committed value object
//       that nothing references is counted in orphaned_values and is an
//       error, except in an image verified as ImageState::kCrashed (a
//       crash mid-update leaves one; recovery frees it), and dangling
//       committed values are benign pending reclamations when referenced
//       by a *free* leaf slot (V5);
//   V5  stale value references from free leaf slots point at either a
//       cleared-bit slot or a committed value pending lazy reclamation;
//   V6  the recycle log is either empty or internally consistent.
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
  uint64_t live_values = 0;
  uint64_t chunks = 0;
  uint64_t pending_reclamations = 0;  // benign dangling values (V5)
  uint64_t orphaned_values = 0;       // unreferenced committed values (V4)

  [[nodiscard]] bool ok() const {
    for (const auto& i : issues)
      if (i.severity == VerifyIssue::Severity::kError) return false;
    return true;
  }
  [[nodiscard]] std::string summary() const;
};

/// What the caller knows of the image it verifies. A live or recovered
/// image holds no orphaned value; one straight from a crash, not yet
/// recovered, may.
enum class ImageState { kQuiescent, kCrashed };

/// Verify the HART image in `arena`. Read-only; safe on any arena, even a
/// corrupted one (structural walks are bounds-checked and cycle-guarded).
VerifyReport verify_hart_image(const pmem::Arena& arena,
                               ImageState state = ImageState::kQuiescent);

}  // namespace hart::core
