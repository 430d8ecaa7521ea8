// Persistent micro-log of EPallocator (paper Section III.A.6, Algorithm 6).
// It lives in the index's root object inside the arena header.
//
// Deviation from the paper, documented in DESIGN.md §1: there is no
// update log (Algorithm 3). HART commits an update with one store to the
// leaf's packed value word, and values have no persistent bit, so a crash
// on either side of that store leaves nothing to repair.
#pragma once

#include <cstdint>

#include "epalloc/chunk.h"

namespace hart::epalloc {

/// Recycle log (Algorithm 6). In use iff pcurrent != 0. `type_plus1`
/// records which chunk list is being modified (written with pcurrent).
struct RecycleLog {
  uint64_t pprev = 0;
  uint64_t pcurrent = 0;
  uint64_t type_plus1 = 0;

  [[nodiscard]] ObjType type() const {
    return static_cast<ObjType>(type_plus1 - 1);
  }
};
static_assert(sizeof(RecycleLog) == 24);

/// Persistent EPallocator state embedded in the index root: one chunk-list
/// head per object type and the recycle log.
struct EPRoot {
  uint64_t heads[kNumObjTypes];
  RecycleLog rlog;
};

}  // namespace hart::epalloc
