#include "hart/verify.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "epalloc/chunk.h"
#include "epalloc/micrologs.h"
#include "hart/hart.h"
#include "hart/hart_leaf.h"

namespace hart::core {

namespace {

struct Ctx {
  const pmem::Arena& arena;
  VerifyReport* report;

  void error(std::string what) {
    report->issues.push_back(
        {VerifyIssue::Severity::kError, std::move(what)});
  }
  void warn(std::string what) {
    report->issues.push_back(
        {VerifyIssue::Severity::kWarning, std::move(what)});
  }
};

std::string hex(uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool in_bounds(const pmem::Arena& arena, uint64_t off, uint64_t bytes) {
  return off >= pmem::kArenaHeaderSize && off + bytes <= arena.size();
}

/// Walk the leaf chunk list; returns its chunk offsets (cut short on
/// fatal structural damage, which is reported).
std::vector<uint64_t> walk_leaf_list(Ctx& ctx, uint64_t head,
                                     const epalloc::TypeGeometry& g) {
  std::vector<uint64_t> chunks;
  std::set<uint64_t> seen;
  uint64_t off = head;
  while (off != pmem::kNullOff) {
    if (!in_bounds(ctx.arena, off, g.chunk_bytes)) {
      ctx.error("leaf chunk " + hex(off) + " out of bounds");
      return chunks;
    }
    if (off % g.stride != 0) {
      ctx.error("leaf chunk " + hex(off) + " not aligned to stride " +
                std::to_string(g.stride));
      return chunks;
    }
    if (!seen.insert(off).second) {
      ctx.error("cycle in the leaf chunk list at " + hex(off));
      return chunks;
    }
    chunks.push_back(off);
    const auto* c = ctx.arena.ptr<epalloc::MemChunk>(off);

    // V2: header internal consistency.
    const uint64_t bm = epalloc::ChunkHdr::bitmap(c->header);
    const bool full = epalloc::ChunkHdr::full(c->header);
    if (full != (bm == epalloc::kBitmapMask))
      ctx.error("chunk " + hex(off) +
                ": full indicator disagrees with bitmap");
    if (!full) {
      const uint32_t hint = epalloc::ChunkHdr::next_free(c->header);
      if (hint >= epalloc::kObjectsPerChunk ||
          ((bm >> hint) & 1) != 0)
        ctx.error("chunk " + hex(off) + ": next-free hint " +
                  std::to_string(hint) + " points at a used slot");
    }
    off = c->pnext;
  }
  return chunks;
}

}  // namespace

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << (ok() ? "OK" : "CORRUPT") << ": " << live_leaves << " leaves, "
     << live_values << " values, " << chunks << " chunks";
  size_t errors = 0, warnings = 0;
  for (const auto& i : issues)
    (i.severity == VerifyIssue::Severity::kError ? errors : warnings)++;
  os << ", " << errors << " errors, " << warnings << " warnings";
  return os.str();
}

VerifyReport verify_hart_image(const pmem::Arena& arena) {
  VerifyReport report;
  Ctx ctx{arena, &report};

  const auto* root = arena.root<HartRoot>();
  // V1: root sanity.
  if (root->magic != kHartRootMagic) {
    ctx.error("root magic mismatch: " + hex(root->magic));
    return report;
  }
  if (root->format != kHartFormatVersion) {
    // Another on-media layout: its leaves cannot be interpreted here.
    ctx.error("unsupported image format " + std::to_string(root->format) +
              " (this build reads " + std::to_string(kHartFormatVersion) +
              ")");
    return report;
  }
  if (root->hash_key_len > 8)
    ctx.error("hash_key_len out of range: " +
              std::to_string(root->hash_key_len));

  // V2: the leaf chunk list.
  const epalloc::TypeGeometry geoms[epalloc::kNumObjTypes] = {
      epalloc::TypeGeometry::for_obj_size(sizeof(HartLeaf)),
      epalloc::TypeGeometry::for_obj_size(8),
      epalloc::TypeGeometry::for_obj_size(16),
      epalloc::TypeGeometry::for_obj_size(32),
      epalloc::TypeGeometry::for_obj_size(64)};
  const std::vector<uint64_t> leaf_chunks =
      walk_leaf_list(ctx, root->ep.leaf_head, geoms[0]);
  // The chunk spans recovery marks used, start -> (end, type), in its
  // order: the leaf chunks, then each value chunk when a live leaf first
  // names it (value chunks are on no list). The spans are disjoint.
  std::map<uint64_t, std::pair<uint64_t, int>> spans;
  for (const uint64_t c : leaf_chunks)
    spans[c] = {c + geoms[0].chunk_bytes, 0};
  auto value_chunk_ok = [&](int cls, uint64_t c, uint64_t leaf_off) {
    if (auto it = spans.find(c); it != spans.end() && it->second.second == cls)
      return true;
    const uint64_t end = c + geoms[cls].chunk_bytes;
    const auto next = spans.lower_bound(end);
    std::string why = " out of bounds";
    if (in_bounds(arena, c, geoms[cls].chunk_bytes)) {
      if (next == spans.begin() || std::prev(next)->second.first <= c)
        return spans.emplace(c, std::pair{end, cls}).second;
      why = " overlaps chunk " + hex(std::prev(next)->first);
    }
    ctx.error("leaf " + hex(leaf_off) + ": value chunk " + hex(c) + why);
    return false;
  };

  // V3/V4/V5: live leaves, their keys and their value references.
  std::map<uint64_t, uint64_t> value_owner;    // value off -> leaf off
  std::map<std::string, uint64_t> key_owner;  // key -> leaf off
  for (const uint64_t c_off : leaf_chunks) {
    const auto* c = arena.ptr<epalloc::MemChunk>(c_off);
    uint64_t bm = epalloc::ChunkHdr::bitmap(c->header);
    while (bm != 0) {
      const auto i = static_cast<uint32_t>(std::countr_zero(bm));
      bm &= bm - 1;
      const uint64_t leaf_off = geoms[0].object_off(c_off, i);
      const auto* leaf = arena.ptr<HartLeaf>(leaf_off);
      ++report.live_leaves;
      const std::string_view key = leaf_key(leaf);
      if (key.empty()) {
        ctx.error("leaf " + hex(leaf_off) + ": empty key");
      } else if (std::any_of(leaf->key + key.size(),
                             leaf->key + common::kMaxKeyLen,
                             [](char ch) { return ch != 0; })) {
        // V3: the length is the strnlen, so a stray byte after the first
        // NUL would be a key no insert wrote.
        ctx.error("leaf " + hex(leaf_off) + ": key padding is not NUL");
      } else {
        // V5: one live leaf per key.
        auto [it, fresh] = key_owner.emplace(std::string(key), leaf_off);
        if (!fresh)
          ctx.error("key \"" + it->first + "\" carried by two live leaves " +
                    hex(it->second) + " and " + hex(leaf_off));
      }
      const uint64_t w = leaf->p_value;
      if (ValueRef::class_tag(w) > 3) {
        ctx.error("leaf " + hex(leaf_off) + ": bad value class " +
                  std::to_string(ValueRef::class_tag(w)));
        continue;
      }
      const int cls = static_cast<int>(ValueRef::class_tag(w)) + 1;
      if (ValueRef::len(w) == 0 ||
          ValueRef::len(w) > epalloc::value_class_size(
                                 static_cast<epalloc::ObjType>(cls)))
        ctx.error("leaf " + hex(leaf_off) + ": value length " +
                  std::to_string(ValueRef::len(w)) + " exceeds its class");
      // The value's chunk follows from its offset (stride-aligned chunks).
      const uint64_t voff = ValueRef::off(w);
      const auto& vg = geoms[cls];
      const uint64_t vc = vg.chunk_of(voff);
      const uint32_t vi = vg.index_of(voff);
      if (vi >= epalloc::kObjectsPerChunk || vg.object_off(vc, vi) != voff) {
        ctx.error("leaf " + hex(leaf_off) + ": value reference " + hex(w) +
                  " names no object of its class");
        continue;
      }
      if (!value_chunk_ok(cls, vc, leaf_off)) continue;
      // V4: one live leaf per value.
      auto [it, fresh] = value_owner.emplace(voff, leaf_off);
      if (!fresh)
        ctx.error("value " + hex(voff) + " referenced by two live leaves " +
                  hex(it->second) + " and " + hex(leaf_off));
    }
  }
  report.live_values = value_owner.size();
  report.chunks = spans.size();

  // V6: the recycle log.
  const auto& rlog = root->ep.rlog;
  if (rlog.pcurrent != 0) {
    if (!in_bounds(arena, rlog.pcurrent, sizeof(epalloc::MemChunk)))
      ctx.error("recycle log PCurrent out of bounds");
    else
      ctx.warn("recycle log in flight (recovery will finish it)");
  } else if (rlog.pprev != 0) {
    ctx.error("recycle log partially cleared");
  }

  return report;
}

}  // namespace hart::core
