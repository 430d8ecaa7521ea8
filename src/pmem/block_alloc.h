// Persistent block allocator under EPallocator and the PM-resident trees.
//
// The arena's block space is carved into kBlockSize granules tracked by a
// *volatile* bitmap plus per-size free lists. The metadata being volatile is
// deliberate: on recovery the bitmap is rebuilt from the index's reachable
// persistent structures (Arena::reset_alloc_map + mark_used), so any span
// that became unreachable due to a crash is free again by construction —
// the allocator itself can never leak persistent memory.
//
// Real PM allocators must flush their (persistent) metadata on every
// allocation; that is exactly the cost the paper's EPallocator amortizes by
// handing out 56-object chunks. Arena::alloc/free model it with one
// metadata-flush charge each (Stats::alloc_meta_persists), so the
// EPallocator-vs-naive ablation measures the same effect as the paper.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "pmem/pmdefs.h"

namespace hart::pmem {

class BlockAllocator {
 public:
  /// Manages [first_byte, first_byte + span_bytes) of the arena.
  BlockAllocator(uint64_t first_byte, uint64_t span_bytes);

  /// Allocate `bytes` with the given power-of-two alignment (in bytes,
  /// >= kBlockSize). Returns the arena offset. Throws std::bad_alloc when
  /// the span is exhausted.
  uint64_t alloc(uint64_t bytes, uint64_t align);

  /// Free a span previously returned by alloc() (or marked by mark_used()).
  /// `bytes` and `align` must match the original request.
  void free(uint64_t off, uint64_t bytes, uint64_t align = kBlockSize);

  /// Recovery: mark everything free, then re-mark reachable spans.
  /// mark_used returns false, and marks nothing, when the span leaves the
  /// managed space or overlaps a used block.
  void reset_all_free();
  bool mark_used(uint64_t off, uint64_t bytes);

  /// Physical bytes currently allocated (block-rounded).
  [[nodiscard]] uint64_t used_block_bytes() const;
  /// True iff the span [off, off+bytes) is fully allocated.
  [[nodiscard]] bool is_used(uint64_t off, uint64_t bytes) const;

 private:
  uint64_t blocks_of(uint64_t bytes) const {
    return (bytes + kBlockSize - 1) / kBlockSize;
  }
  bool test_bit(uint64_t b) const REQUIRES_SHARED(mu_) {
    return (bitmap_[b >> 6] >> (b & 63)) & 1;
  }
  void set_bits(uint64_t first, uint64_t n) REQUIRES(mu_);
  void clear_bits(uint64_t first, uint64_t n) REQUIRES(mu_);
  bool span_free(uint64_t first, uint64_t n) const REQUIRES_SHARED(mu_);

  uint64_t first_byte_;
  uint64_t num_blocks_;
  std::vector<uint64_t> bitmap_ GUARDED_BY(mu_);  // 1 = used
  // Exact-size free lists: key packs (blocks, align_blocks).
  std::unordered_map<uint64_t, std::vector<uint64_t>> free_lists_
      GUARDED_BY(mu_);
  uint64_t hint_block_ GUARDED_BY(mu_) = 0;  // rolling first-fit position
  uint64_t used_blocks_ GUARDED_BY(mu_) = 0;
  mutable common::Mutex mu_;
};

}  // namespace hart::pmem
