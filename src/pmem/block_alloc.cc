#include "pmem/block_alloc.h"

#include "common/annotations.h"

#include <new>
#include <stdexcept>

namespace hart::pmem {

namespace {
uint64_t pack_key(uint64_t blocks, uint64_t align_blocks) {
  return (blocks << 20) | align_blocks;
}
}  // namespace

BlockAllocator::BlockAllocator(uint64_t first_byte, uint64_t span_bytes)
    : first_byte_(first_byte), num_blocks_(span_bytes / kBlockSize) {
  bitmap_.assign((num_blocks_ + 63) / 64, 0);
}

void BlockAllocator::set_bits(uint64_t first, uint64_t n) {
  for (uint64_t b = first; b < first + n; ++b)
    bitmap_[b >> 6] |= (1ULL << (b & 63));
  used_blocks_ += n;
}

void BlockAllocator::clear_bits(uint64_t first, uint64_t n) {
  for (uint64_t b = first; b < first + n; ++b)
    bitmap_[b >> 6] &= ~(1ULL << (b & 63));
  used_blocks_ -= n;
}

bool BlockAllocator::span_free(uint64_t first, uint64_t n) const {
  if (first + n > num_blocks_) return false;
  for (uint64_t b = first; b < first + n; ++b)
    if (test_bit(b)) return false;
  return true;
}

uint64_t BlockAllocator::alloc(uint64_t bytes, uint64_t align) {
  if (bytes == 0) throw std::invalid_argument("alloc of 0 bytes");
  if (align < kBlockSize) align = kBlockSize;
  const uint64_t n = blocks_of(bytes);
  const uint64_t align_blocks = align / kBlockSize;

  common::MutexLock lk(mu_);
  auto& fl = free_lists_[pack_key(n, align_blocks)];
  if (!fl.empty()) {
    const uint64_t off = fl.back();
    fl.pop_back();
    set_bits((off - first_byte_) / kBlockSize, n);
    return off;
  }

  // First-fit scan from the rolling hint; wrap once.
  auto aligned_up = [&](uint64_t block) {
    const uint64_t byte = first_byte_ + block * kBlockSize;
    const uint64_t abyte = (byte + align - 1) & ~(align - 1);
    return (abyte - first_byte_) / kBlockSize;
  };
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t b = aligned_up(pass == 0 ? hint_block_ : 0);
    const uint64_t limit = num_blocks_;
    while (b + n <= limit) {
      if (span_free(b, n)) {
        set_bits(b, n);
        hint_block_ = b + n;
        return first_byte_ + b * kBlockSize;
      }
      // Skip past the first used block in the window, then re-align.
      uint64_t skip = b;
      while (skip < b + n && !test_bit(skip)) ++skip;
      b = aligned_up(skip + 1);
    }
  }
  throw std::bad_alloc();
}

void BlockAllocator::free(uint64_t off, uint64_t bytes, uint64_t align) {
  if (align < kBlockSize) align = kBlockSize;
  const uint64_t n = blocks_of(bytes);
  const uint64_t first = (off - first_byte_) / kBlockSize;
  common::MutexLock lk(mu_);
  clear_bits(first, n);
  free_lists_[pack_key(n, align / kBlockSize)].push_back(off);
}

void BlockAllocator::reset_all_free() {
  common::MutexLock lk(mu_);
  bitmap_.assign(bitmap_.size(), 0);
  free_lists_.clear();
  hint_block_ = 0;
  used_blocks_ = 0;
}

bool BlockAllocator::mark_used(uint64_t off, uint64_t bytes) {
  if (off < first_byte_) return false;
  const uint64_t n = blocks_of(bytes);
  const uint64_t first = (off - first_byte_) / kBlockSize;
  common::MutexLock lk(mu_);
  if (!span_free(first, n)) return false;  // also refuses a span past the end
  set_bits(first, n);
  if (first + n > hint_block_) hint_block_ = first + n;
  return true;
}

uint64_t BlockAllocator::used_block_bytes() const {
  common::MutexLock lk(mu_);
  return used_blocks_ * kBlockSize;
}

bool BlockAllocator::is_used(uint64_t off, uint64_t bytes) const {
  const uint64_t n = blocks_of(bytes);
  const uint64_t first = (off - first_byte_) / kBlockSize;
  common::MutexLock lk(mu_);
  for (uint64_t b = first; b < first + n; ++b)
    if (!test_bit(b)) return false;
  return true;
}

}  // namespace hart::pmem
