// Persistent micro-logs of EPallocator (paper Section III.A.6, Algorithms 3
// and 6). They live in the index's root object inside the arena header.
//
// Deviation from the paper, documented in DESIGN.md: UpdateLog carries one
// extra `meta` word recording the new value's length and the old/new value
// size classes. The paper's three-pointer log is sufficient only when all
// values share one size class; with two classes (8 B / 16 B) the recovery
// path must know which class each pointer belongs to and what length to
// restore into the leaf.
#pragma once

#include <cstdint>

#include "epalloc/chunk.h"

namespace hart::epalloc {

/// Update log (Algorithm 3). A record is complete iff pleaf != 0 and
/// pnewv != 0; recovery replays complete records and zeroes every other
/// non-empty slot. Write/persist order during an update:
///   (new value written + persisted) -> pleaf, poldv, meta -> pnewv ->
///   one flush of the record -> ... work ... -> all four zeroed
///   (LogReclaim).
/// The single flush is failure-atomic only because the slot lies inside
/// one cache line (see line_contained_ulog_slots).
struct UpdateLog {
  uint64_t pleaf = 0;  // leaf being updated
  uint64_t poldv = 0;  // old value object
  uint64_t pnewv = 0;  // new value object (validity gate for redo)
  uint64_t meta = 0;   // packed: new_len | old_class<<8 | new_class<<16

  static uint64_t pack_meta(uint32_t new_len, ObjType old_cls,
                            ObjType new_cls) {
    return uint64_t{new_len} | (uint64_t{static_cast<uint8_t>(old_cls)} << 8) |
           (uint64_t{static_cast<uint8_t>(new_cls)} << 16);
  }
  [[nodiscard]] uint32_t new_len() const {
    return static_cast<uint32_t>(meta & 0xff);
  }
  [[nodiscard]] ObjType old_class() const {
    return static_cast<ObjType>((meta >> 8) & 0xff);
  }
  [[nodiscard]] ObjType new_class() const {
    return static_cast<ObjType>((meta >> 16) & 0xff);
  }
};
static_assert(sizeof(UpdateLog) == 32);

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

/// Number of update-log slots. Only the slots that fit inside one cache
/// line are handed out (16 with HartRoot's layout), which bounds the number
/// of concurrently in-flight update operations (one per writer thread).
inline constexpr uint32_t kUpdateLogSlots = 32;

/// Persistent EPallocator state embedded in the index root: one chunk-list
/// head per object type, the recycle log, and the update-log slot pool.
struct EPRoot {
  uint64_t heads[kNumObjTypes];
  RecycleLog rlog;
  UpdateLog ulogs[kUpdateLogSlots];
};

/// Bitmask of the ulogs[] slots that lie inside one cache line, for an
/// array starting at arena offset `ulogs_off`. A slot that straddles a line
/// cannot hold a record that one flush makes durable all-or-nothing, so
/// acquire_ulog hands out only these.
inline uint32_t line_contained_ulog_slots(uint64_t ulogs_off) {
  uint32_t mask = 0;
  for (uint32_t i = 0; i < kUpdateLogSlots; ++i) {
    const uint64_t o = ulogs_off + uint64_t{i} * sizeof(UpdateLog);
    if (o % pmem::kCacheLine + sizeof(UpdateLog) <= pmem::kCacheLine)
      mask |= uint32_t{1} << i;
  }
  return mask;
}

}  // namespace hart::epalloc
