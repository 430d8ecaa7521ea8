// Persistent micro-log of EPallocator (paper Section III.A.6, Algorithm 6).
// It lives in the index's root object inside the arena header.
//
// Deviations from the paper, documented in DESIGN.md §1: there is no
// update log (Algorithm 3). HART commits an update with one store to the
// leaf's packed value word, and values have no persistent bit, so a crash
// on either side of that store leaves nothing to repair. And only leaf
// chunks form a persistent list (corrections 1 and 6), so the recycle log
// always names a leaf chunk and records no object type.
#pragma once

#include <cstdint>

namespace hart::epalloc {

/// Recycle log (Algorithm 6) of the leaf chunk list; in use iff pcurrent != 0.
struct RecycleLog {
  uint64_t pprev = 0;
  uint64_t pcurrent = 0;
};
static_assert(sizeof(RecycleLog) == 16);

/// Persistent EPallocator state embedded in the index root: the head of
/// the leaf chunk list and its recycle log.
struct EPRoot {
  uint64_t leaf_head;
  RecycleLog rlog;
};

}  // namespace hart::epalloc
