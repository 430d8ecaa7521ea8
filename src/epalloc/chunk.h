// Memory-chunk layout of EPallocator (paper Fig. 2 / Fig. 3).
//
// A chunk is: [ 8-byte chunk header | 8-byte PNext | 48 bytes unused |
// 56 objects ]. The first cache line holds only the header and PNext, so
// objects start on a line boundary; every object size (32-byte leaves,
// 8/16/32/64-byte values) divides 64, so no object straddles two lines and
// one persist of an object flushes exactly one line. The chunk header
// packs, in one failure-atomically updatable 64-bit word:
//   bits  0..55  object bitmap (1 = used)
//   bits 56..61  index of the next free object (allocation hint)
//   bits 62..63  full indicator: 00 = has a free object, 01 = full,
//                10/11 reserved
// Only leaf chunks use the first line: a value chunk is on no list and has
// no persistent bits (DESIGN.md §1, correction 1), so it never writes it.
//
// Chunks of a given object size are allocated at a power-of-two stride and
// alignment, so MemChunkOf(object) is the object's offset masked down to the
// stride — this is how Algorithm 3/5/6 and recovery find the chunk a value
// or leaf belongs to without any per-object back-pointer.
#pragma once

#include <bit>
#include <cstdint>

#include "pmem/pmdefs.h"

namespace hart::epalloc {

inline constexpr uint32_t kObjectsPerChunk = 56;

/// Object types managed by EPallocator: tree leaf nodes plus the value
/// size classes (Section III.A.5 — the paper ships 8 B and 16 B and calls
/// out the extension to more classes; 32 B and 64 B are that extension).
enum class ObjType : uint8_t {
  kLeaf = 0,
  kValue8 = 1,
  kValue16 = 2,
  kValue32 = 3,
  kValue64 = 4,
};
inline constexpr int kNumObjTypes = 5;

/// Smallest value class that fits `len` bytes.
inline ObjType value_class_for_len(size_t len) {
  if (len <= 8) return ObjType::kValue8;
  if (len <= 16) return ObjType::kValue16;
  if (len <= 32) return ObjType::kValue32;
  return ObjType::kValue64;
}
inline uint32_t value_class_size(ObjType t) {
  return uint32_t{8} << (static_cast<uint8_t>(t) - 1);
}
/// Whether objects of type `t` keep their used bit in the PM chunk header
/// and their chunks on the persistent list. Only leaves do: a value is
/// live exactly when a live leaf names it.
constexpr bool has_persistent_bit(ObjType t) { return t == ObjType::kLeaf; }

inline constexpr uint64_t kBitmapMask = (uint64_t{1} << kObjectsPerChunk) - 1;

/// Full-indicator values (bits 62..63 of the header word).
enum : uint64_t { kIndAvailable = 0, kIndFull = 1 };

struct ChunkHdr {
  static uint64_t bitmap(uint64_t w) { return w & kBitmapMask; }
  static uint32_t next_free(uint64_t w) {
    return static_cast<uint32_t>((w >> 56) & 0x3f);
  }
  static uint64_t indicator(uint64_t w) { return w >> 62; }
  static bool full(uint64_t w) { return indicator(w) == kIndFull; }

  static uint64_t make(uint64_t bm, uint32_t nf, uint64_t ind) {
    return (bm & kBitmapMask) | (uint64_t{nf & 0x3f} << 56) | (ind << 62);
  }

  /// Header value after setting/clearing bit `i` in `w`, with the hint and
  /// full indicator recomputed. One 8-byte store + persist = crash-atomic.
  static uint64_t with_bit(uint64_t w, uint32_t i, bool set) {
    uint64_t bm = bitmap(w);
    if (set)
      bm |= (uint64_t{1} << i);
    else
      bm &= ~(uint64_t{1} << i);
    const bool is_full = (bm == kBitmapMask);
    const uint32_t nf =
        is_full ? 0 : static_cast<uint32_t>(std::countr_one(bm));
    return make(bm, nf, is_full ? kIndFull : kIndAvailable);
  }
};

/// The persistent chunk object. Objects start at the next cache line.
struct MemChunk {
  uint64_t header;  // see ChunkHdr (leaf chunks only)
  uint64_t pnext;   // next leaf chunk in the list; 0 = end (leaf chunks only)

  static constexpr uint64_t kObjectsOffset = pmem::kCacheLine;
};
static_assert(sizeof(MemChunk) == 16);

/// Geometry of one object type: object size, total chunk bytes, and the
/// power-of-two stride/alignment enabling MemChunkOf by masking.
struct TypeGeometry {
  uint32_t obj_size = 0;
  uint64_t chunk_bytes = 0;
  uint64_t stride = 0;

  static constexpr TypeGeometry for_obj_size(uint32_t obj_size) {
    TypeGeometry g;
    g.obj_size = obj_size;
    g.chunk_bytes = MemChunk::kObjectsOffset +
                    static_cast<uint64_t>(obj_size) * kObjectsPerChunk;
    g.stride = std::bit_ceil(g.chunk_bytes);
    return g;
  }

  [[nodiscard]] constexpr uint64_t object_off(uint64_t chunk_off,
                                              uint32_t idx) const {
    return chunk_off + MemChunk::kObjectsOffset +
           static_cast<uint64_t>(idx) * obj_size;
  }
  [[nodiscard]] constexpr uint64_t chunk_of(uint64_t obj_off) const {
    return obj_off & ~(stride - 1);
  }
  [[nodiscard]] constexpr uint32_t index_of(uint64_t obj_off) const {
    return static_cast<uint32_t>(
        (obj_off - chunk_of(obj_off) - MemChunk::kObjectsOffset) / obj_size);
  }
};

}  // namespace hart::epalloc
