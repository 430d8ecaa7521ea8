// HART's persistent leaf node (paper Fig. 1 / Fig. 3).
//
// Only leaf nodes (and value objects) live in PM; the complete key is stored
// in the leaf "for the purpose of failure recovery" (Section III.A.1) even
// though the ART path already encodes it. The value is out-of-leaf: the
// leaf holds one 8-byte word naming a value object in one of the
// EPallocator value size classes, which is what enables variable-size
// values (Section III.A.5). That word is also the only record that the
// value is in use: value objects have no persistent allocation bit, and
// recovery marks a value used exactly when a live leaf names it
// (DESIGN.md §1, correction 1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/index.h"
#include "epalloc/chunk.h"
#include "pmem/arena.h"

namespace hart::core {

/// The leaf's value word (`HartLeaf::p_value`). The value object's arena
/// offset, its length and its size class share one 8-byte word, so a
/// single release store publishes all three to lock-free readers and a
/// single 8-byte persist makes them durable together. That one store is
/// the commit point of an update (DESIGN.md §1, correction 3). Layout:
///   bits  0..47  arena offset of the value object (0 = no value)
///   bits 48..55  value length, 1..64
///   bits 56..63  value class tag, 0..3 = 8/16/32/64 B
/// The word is 8-byte aligned in every leaf slot, so it never straddles a
/// cache line.
struct ValueRef {
  static constexpr int kLenShift = 48;
  static constexpr int kClassShift = 56;
  static constexpr uint64_t kOffMask = (uint64_t{1} << kLenShift) - 1;

  static uint64_t pack(uint64_t off, size_t len, epalloc::ObjType cls) {
    assert(off <= kOffMask && len <= 0xff);
    const uint64_t tag = uint64_t{static_cast<uint8_t>(cls)} - 1;
    return off | (uint64_t{len} << kLenShift) | (tag << kClassShift);
  }
  static uint64_t off(uint64_t w) { return w & kOffMask; }
  static uint32_t len(uint64_t w) {
    return static_cast<uint32_t>((w >> kLenShift) & 0xff);
  }
  /// Raw class tag; only 0..3 are valid (a torn slot may hold anything).
  static uint32_t class_tag(uint64_t w) {
    return static_cast<uint32_t>(w >> kClassShift);
  }
  static epalloc::ObjType cls(uint64_t w) {
    return static_cast<epalloc::ObjType>(class_tag(w) + 1);
  }
};

/// A leaf is 32 bytes: the key, NUL-padded to kMaxKeyLen, and the value
/// word. Chunk objects start on a cache line and 32 divides 64, so a leaf
/// never straddles two lines: its persist flushes one line, and a key read
/// touches one. Keys never contain NUL (common::validate_key), so the key's
/// length is its strnlen, and no length or fingerprint byte is stored; the
/// fingerprint tags in DRAM are derived from the key bytes.
struct HartLeaf {
  char key[common::kMaxKeyLen];  // complete key (hash prefix + ART key)
  // The packed value word (ValueRef). Written with one atomic store.
  uint64_t p_value;
};
static_assert(sizeof(HartLeaf) == 32);
static_assert(pmem::kCacheLine % sizeof(HartLeaf) == 0);
static_assert(offsetof(HartLeaf, p_value) % alignof(uint64_t) == 0);
static_assert(std::is_trivially_copyable_v<HartLeaf>);

/// The leaf's complete key: the bytes before its NUL padding.
inline std::string_view leaf_key(const HartLeaf* l) {
  return {l->key, ::strnlen(l->key, common::kMaxKeyLen)};
}

inline epalloc::ObjType value_class_for(size_t len) {
  return epalloc::value_class_for_len(len);
}

/// The leaf's value word, read with one acquire load: the value object's
/// bytes are visible once its word is (writers publish with release).
inline uint64_t load_value_ref(const HartLeaf* l) {
  return std::atomic_ref<uint64_t>(const_cast<HartLeaf*>(l)->p_value)
      .load(std::memory_order_acquire);
}

}  // namespace hart::core
