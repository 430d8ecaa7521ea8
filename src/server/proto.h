// hartd wire protocol — a small binary request/response format shared by
// the in-process transport and the TCP loopback listener.
//
// Framing: every message is `u32 body_len` followed by `body_len` bytes of
// body. All integers are host byte order (the protocol is loopback /
// same-host only; keys and values are raw bytes, NUL-safe).
//
//   request body : u64 id | u8 op | u8 key_len | u16 val_len | key | value
//   response body: u64 id | u8 status | u8 pad | u16 val_len | u64 epoch
//                  | value
//
// Trace context (optional, backward compatible): a sampled request sets
// the high bit of the op byte (kTraceFlag) and inserts a u64 trace id
// between the fixed header and the key. Old clients never set the bit and
// old servers reject flagged ops as out of range — compatibility only has
// to hold in the old-client -> new-server direction, which is unchanged
// byte-for-byte. The same convention extends each kReplBatch entry, so a
// sampled write keeps its id across the replication hop.
//
// `id` is a client-chosen correlation token: the pipelined client sends
// many requests without waiting and matches responses by id (per-shard
// batching means responses can complete out of submission order across
// shards).
//
// `epoch` is the group-commit epoch that made the write durable (see
// Hart::flush_epoch); 0 for reads and unfenced responses.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hart::server {

enum class OpCode : uint8_t {
  kPut = 1,     // insert-or-update
  kGet = 2,
  kUpdate = 3,  // update-only (miss -> kNotFound)
  kDelete = 4,
  kPing = 5,
  /// Scrape the server's HARTscope metrics. The request value selects the
  /// format ("json", anything else = Prometheus text); the response value
  /// carries the rendered snapshot. Answered directly by the dispatcher,
  /// never routed to a shard, so it does not perturb per-shard op counts.
  kStats = 6,
  /// Batched point lookups. The request key is empty; the value carries an
  /// encoded key list (encode_mget_keys). The response value carries one
  /// (found, value) entry per requested key, in request order
  /// (encode_mget_result). Answered on the dispatcher thread via HART's
  /// optimistic read path — the batch is grouped by shard and each group
  /// served with one Hart::multi_get, never queued behind writes.
  kMget = 7,
  /// Ordered range scan. The request key is the inclusive start key; the
  /// value is a u32 entry limit (encode_scan_limit). The response value
  /// carries up to `limit` (key, value) pairs in ascending key order,
  /// merged across shards (encode_scan_result). Dispatcher-served, like
  /// kMget.
  kScan = 8,
  /// REPL_BATCH — primary -> follower on a replication stream: one durable
  /// shard batch (encode_repl_batch in the request value: stream id, seq,
  /// epoch, entries). The follower applies every entry through its normal
  /// shard path and responds only after the entries' own group-commit
  /// fence completed, carrying its updated position for the stream
  /// (encode_repl_positions) — the response IS the fence confirmation the
  /// primary's quorum ack policy waits on. Idempotent: replaying a batch
  /// is harmless (PUT/UPDATE re-apply the same value, DELETE tolerates
  /// kNotFound), so reconnect resend needs no dedup.
  kReplBatch = 9,
  /// REPL_ACK — replication position query. Empty request; the response
  /// value reports the node's per-stream applied positions
  /// (encode_repl_positions): on a follower the last applied (seq, epoch)
  /// per primary shard stream, on a primary its batch-log tail. A
  /// (re)connecting replication link sends this first and resumes
  /// shipping from the follower's confirmed position.
  kReplAck = 10,
  /// PROMOTE — operator -> follower: finish applying every queued
  /// replication batch (tail replay through the shard queues), fence, and
  /// switch to the primary role; client writes are accepted from the
  /// response onward. Idempotent; on a node that is already primary it
  /// just reports kOk. The response value carries the final per-stream
  /// positions (encode_repl_positions).
  kPromote = 11,
};

enum class Status : uint8_t {
  kOk = 0,            // applied; for kPut: inserted a fresh key
  kUpdated = 1,       // kPut hit an existing key and updated it in place
  kNotFound = 2,      // kGet / kUpdate / kDelete missed
  kBadRequest = 3,    // malformed frame or invalid key/value
  kShardFailed = 4,   // shard hit a (simulated) crash point; NOT acked
  kShuttingDown = 5,  // submitted after graceful shutdown began
  kNetError = 6,      // client-side only: transport failed before a reply
  kNotPrimary = 7,    // write (or REPL_BATCH) sent to the wrong role
  /// Frame-level protocol violation (oversized or unparseable stream).
  /// The server sends this as a terminal response, then closes the
  /// connection — the stream position is no longer trustworthy.
  kProtocolError = 8,
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUpdated: return "updated";
    case Status::kNotFound: return "not-found";
    case Status::kBadRequest: return "bad-request";
    case Status::kShardFailed: return "shard-failed";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kNetError: return "net-error";
    case Status::kNotPrimary: return "not-primary";
    default: return "protocol-error";
  }
}

/// An acked write: the server persisted it before replying.
inline bool is_acked_write(Status s) {
  return s == Status::kOk || s == Status::kUpdated;
}

/// Wire status -> Index API v2 status (the inverse of shard.h's
/// wire_status, for client-side APIs that report common::Status).
/// Server-/transport-side failures — crash points, shutdown, net errors,
/// wrong role, protocol violations — all collapse to kUnavailable: from
/// the caller's view the service could not answer, and the wire status
/// string (status_name) is the diagnostic channel.
inline common::Status common_status(Status s) {
  switch (s) {
    case Status::kOk: return common::Status::kOk;
    case Status::kUpdated: return common::Status::kUpdated;
    case Status::kNotFound: return common::Status::kNotFound;
    case Status::kBadRequest: return common::Status::kInvalidArgument;
    default: return common::Status::kUnavailable;
  }
}

inline bool is_write(OpCode op) {
  return op == OpCode::kPut || op == OpCode::kUpdate || op == OpCode::kDelete;
}

struct Request {
  OpCode op = OpCode::kPing;
  std::string key;
  std::string value;
  /// Nonzero = this request is trace-sampled: every stage it crosses
  /// records a span carrying this id (obs::TraceEvent::trace_id).
  uint64_t trace_id = 0;
};

struct Response {
  Status status = Status::kOk;
  std::string value;
  uint64_t epoch = 0;
};

/// KV frames are tiny (key <= 24, value <= 64), but a kStats response
/// carries a rendered metrics snapshot whose size is bounded by the u16
/// val_len field (<= 65535 bytes, see Hartd's truncation). Anything bigger
/// than this cap is a corrupt or hostile stream and the connection drops.
inline constexpr uint32_t kMaxFrameBody = 128 * 1024;
inline constexpr size_t kRequestFixed = 8 + 1 + 1 + 2;
inline constexpr size_t kResponseFixed = 8 + 1 + 1 + 2 + 8;

/// High bit of the op byte: a u64 trace id follows the fixed request (or
/// repl-entry) header. Ops stay < 0x80 so the flag never collides.
inline constexpr uint8_t kTraceFlag = 0x80;

namespace detail {
template <typename T>
void append_int(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}
template <typename T>
T read_int(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
}  // namespace detail

inline void encode_request(uint64_t id, const Request& r, std::string* out) {
  const size_t trace = r.trace_id != 0 ? 8 : 0;
  const uint32_t body = static_cast<uint32_t>(kRequestFixed + trace +
                                              r.key.size() + r.value.size());
  detail::append_int(out, body);
  detail::append_int(out, id);
  detail::append_int(out, static_cast<uint8_t>(
                              static_cast<uint8_t>(r.op) |
                              (trace != 0 ? kTraceFlag : 0)));
  detail::append_int(out, static_cast<uint8_t>(r.key.size()));
  detail::append_int(out, static_cast<uint16_t>(r.value.size()));
  if (trace != 0) detail::append_int(out, r.trace_id);
  out->append(r.key);
  out->append(r.value);
}

inline bool decode_request(const char* p, size_t n, uint64_t* id,
                           Request* r) {
  if (n < kRequestFixed) return false;
  *id = detail::read_int<uint64_t>(p);
  const auto raw_op = detail::read_int<uint8_t>(p + 8);
  const bool traced = (raw_op & kTraceFlag) != 0;
  const auto op = static_cast<uint8_t>(raw_op & ~kTraceFlag);
  const size_t klen = detail::read_int<uint8_t>(p + 9);
  const size_t vlen = detail::read_int<uint16_t>(p + 10);
  size_t off = kRequestFixed;
  r->trace_id = 0;
  if (traced) {
    if (n < off + 8) return false;
    r->trace_id = detail::read_int<uint64_t>(p + off);
    off += 8;
  }
  if (op < static_cast<uint8_t>(OpCode::kPut) ||
      op > static_cast<uint8_t>(OpCode::kPromote) ||
      n != off + klen + vlen)
    return false;
  r->op = static_cast<OpCode>(op);
  r->key.assign(p + off, klen);
  r->value.assign(p + off + klen, vlen);
  return true;
}

inline void encode_response(uint64_t id, const Response& r,
                            std::string* out) {
  const uint32_t body =
      static_cast<uint32_t>(kResponseFixed + r.value.size());
  detail::append_int(out, body);
  detail::append_int(out, id);
  detail::append_int(out, static_cast<uint8_t>(r.status));
  detail::append_int(out, static_cast<uint8_t>(0));
  detail::append_int(out, static_cast<uint16_t>(r.value.size()));
  detail::append_int(out, r.epoch);
  out->append(r.value);
}

inline bool decode_response(const char* p, size_t n, uint64_t* id,
                            Response* r) {
  if (n < kResponseFixed) return false;
  *id = detail::read_int<uint64_t>(p);
  const auto st = detail::read_int<uint8_t>(p + 8);
  const size_t vlen = detail::read_int<uint16_t>(p + 10);
  if (st > static_cast<uint8_t>(Status::kProtocolError) ||
      n != kResponseFixed + vlen)
    return false;
  r->status = static_cast<Status>(st);
  r->epoch = detail::read_int<uint64_t>(p + 12);
  r->value.assign(p + kResponseFixed, vlen);
  return true;
}

// ---- kMget / kScan payload codecs ---------------------------------------
//
// Batch payloads ride inside the ordinary request/response value field, so
// they are bounded by its u16 length prefix (65535 bytes). With keys <= 24
// and values <= 64 bytes the worst-case per-entry footprint is 91 bytes;
// kMaxBatchEntries keeps every legal batch comfortably inside the field.

inline constexpr size_t kMaxBatchEntries = 512;

/// kMget request value: u16 n | (u8 key_len, key bytes) * n.
inline bool encode_mget_keys(const std::vector<std::string>& keys,
                             std::string* out) {
  if (keys.size() > kMaxBatchEntries) return false;
  out->clear();
  detail::append_int(out, static_cast<uint16_t>(keys.size()));
  for (const std::string& k : keys) {
    if (k.size() > 255) return false;
    detail::append_int(out, static_cast<uint8_t>(k.size()));
    out->append(k);
  }
  return true;
}

inline bool decode_mget_keys(std::string_view payload,
                             std::vector<std::string>* keys) {
  keys->clear();
  if (payload.size() < 2) return false;
  const size_t n = detail::read_int<uint16_t>(payload.data());
  if (n > kMaxBatchEntries) return false;
  size_t off = 2;
  keys->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (off + 1 > payload.size()) return false;
    const size_t klen = detail::read_int<uint8_t>(payload.data() + off);
    off += 1;
    if (off + klen > payload.size()) return false;
    keys->emplace_back(payload.substr(off, klen));
    off += klen;
  }
  return off == payload.size();
}

/// kMget response value: u16 n | (u8 found, u16 val_len, value bytes) * n,
/// entry i answering request key i.
inline bool encode_mget_result(const std::vector<std::string>& values,
                               const std::vector<bool>& found,
                               std::string* out) {
  if (values.size() != found.size() || values.size() > kMaxBatchEntries)
    return false;
  out->clear();
  detail::append_int(out, static_cast<uint16_t>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) {
    detail::append_int(out, static_cast<uint8_t>(found[i] ? 1 : 0));
    detail::append_int(out, static_cast<uint16_t>(values[i].size()));
    out->append(values[i]);
  }
  return true;
}

inline bool decode_mget_result(std::string_view payload,
                               std::vector<std::string>* values,
                               std::vector<bool>* found) {
  values->clear();
  found->clear();
  if (payload.size() < 2) return false;
  const size_t n = detail::read_int<uint16_t>(payload.data());
  if (n > kMaxBatchEntries) return false;
  size_t off = 2;
  values->reserve(n);
  found->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (off + 3 > payload.size()) return false;
    const bool hit = detail::read_int<uint8_t>(payload.data() + off) != 0;
    const size_t vlen = detail::read_int<uint16_t>(payload.data() + off + 1);
    off += 3;
    if (off + vlen > payload.size()) return false;
    found->push_back(hit);
    values->emplace_back(payload.substr(off, vlen));
    off += vlen;
  }
  return off == payload.size();
}

/// kScan request value: u32 entry limit (clamped server-side to
/// kMaxBatchEntries).
inline void encode_scan_limit(uint32_t limit, std::string* out) {
  out->clear();
  detail::append_int(out, limit);
}

inline bool decode_scan_limit(std::string_view payload, uint32_t* limit) {
  if (payload.size() != 4) return false;
  *limit = detail::read_int<uint32_t>(payload.data());
  return true;
}

/// kScan response value: u16 n | (u8 key_len, key, u16 val_len, value) * n
/// in ascending key order.
inline bool encode_scan_result(
    const std::vector<std::pair<std::string, std::string>>& entries,
    std::string* out) {
  if (entries.size() > kMaxBatchEntries) return false;
  out->clear();
  detail::append_int(out, static_cast<uint16_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    if (k.size() > 255) return false;
    detail::append_int(out, static_cast<uint8_t>(k.size()));
    out->append(k);
    detail::append_int(out, static_cast<uint16_t>(v.size()));
    out->append(v);
  }
  return true;
}

inline bool decode_scan_result(
    std::string_view payload,
    std::vector<std::pair<std::string, std::string>>* entries) {
  entries->clear();
  if (payload.size() < 2) return false;
  const size_t n = detail::read_int<uint16_t>(payload.data());
  if (n > kMaxBatchEntries) return false;
  size_t off = 2;
  entries->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (off + 1 > payload.size()) return false;
    const size_t klen = detail::read_int<uint8_t>(payload.data() + off);
    off += 1;
    if (off + klen + 2 > payload.size()) return false;
    std::string key(payload.substr(off, klen));
    off += klen;
    const size_t vlen = detail::read_int<uint16_t>(payload.data() + off);
    off += 2;
    if (off + vlen > payload.size()) return false;
    entries->emplace_back(std::move(key),
                          std::string(payload.substr(off, vlen)));
    off += vlen;
  }
  return off == payload.size();
}

// ---- kReplBatch / kReplAck payload codecs -------------------------------
//
// Replication payloads ride in the ordinary request/response value field
// (u16-bounded, 65535 bytes). A shard batch that would not fit is split by
// the replicator into several wire batches sharing one epoch — each gets
// its own seq, and a follower confirming seq S has, by stream ordering,
// applied every seq <= S.

/// One replicated write, in shard apply order. A nonzero `trace_id`
/// travels with the entry (kTraceFlag on the entry op byte + appended
/// u64) so the follower's apply span joins the originating request's
/// trace.
struct ReplEntry {
  OpCode op = OpCode::kPut;
  std::string key;
  std::string value;
  uint64_t trace_id = 0;
};

/// A node's applied position on one replication stream (= one primary
/// shard). `seq` is the last wire batch applied, `epoch` the group-commit
/// epoch that made it durable on the reporting node.
struct ReplPosition {
  uint32_t stream = 0;
  uint64_t seq = 0;
  uint64_t epoch = 0;
};

inline constexpr size_t kReplBatchFixed = 4 + 8 + 8 + 2;
inline constexpr size_t kReplEntryFixed = 1 + 1 + 2;

/// Wire footprint of one entry inside a kReplBatch payload.
inline size_t repl_entry_wire_size(const ReplEntry& e) {
  return kReplEntryFixed + (e.trace_id != 0 ? 8 : 0) + e.key.size() +
         e.value.size();
}

/// kReplBatch request value:
///   u32 stream | u64 seq | u64 epoch | u16 n
///   | n * (u8 op, u8 key_len, u16 val_len, key, value)
/// Fails (false) when the batch would overflow the u16 value field or an
/// entry is unencodable — the caller must split first.
inline bool encode_repl_batch(uint32_t stream, uint64_t seq, uint64_t epoch,
                              const std::vector<ReplEntry>& entries,
                              std::string* out) {
  if (entries.size() > kMaxBatchEntries) return false;
  size_t need = kReplBatchFixed;
  for (const ReplEntry& e : entries) {
    if (e.key.size() > 255 || e.value.size() > 65535 || !is_write(e.op))
      return false;
    need += repl_entry_wire_size(e);
  }
  if (need > 65535) return false;
  out->clear();
  out->reserve(need);
  detail::append_int(out, stream);
  detail::append_int(out, seq);
  detail::append_int(out, epoch);
  detail::append_int(out, static_cast<uint16_t>(entries.size()));
  for (const ReplEntry& e : entries) {
    detail::append_int(out, static_cast<uint8_t>(
                                static_cast<uint8_t>(e.op) |
                                (e.trace_id != 0 ? kTraceFlag : 0)));
    detail::append_int(out, static_cast<uint8_t>(e.key.size()));
    detail::append_int(out, static_cast<uint16_t>(e.value.size()));
    if (e.trace_id != 0) detail::append_int(out, e.trace_id);
    out->append(e.key);
    out->append(e.value);
  }
  return true;
}

inline bool decode_repl_batch(std::string_view payload, uint32_t* stream,
                              uint64_t* seq, uint64_t* epoch,
                              std::vector<ReplEntry>* entries) {
  entries->clear();
  if (payload.size() < kReplBatchFixed) return false;
  const char* p = payload.data();
  *stream = detail::read_int<uint32_t>(p);
  *seq = detail::read_int<uint64_t>(p + 4);
  *epoch = detail::read_int<uint64_t>(p + 12);
  const size_t n = detail::read_int<uint16_t>(p + 20);
  if (n > kMaxBatchEntries) return false;
  size_t off = kReplBatchFixed;
  entries->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (off + kReplEntryFixed > payload.size()) return false;
    const auto raw_op = detail::read_int<uint8_t>(p + off);
    const bool traced = (raw_op & kTraceFlag) != 0;
    const auto op = static_cast<uint8_t>(raw_op & ~kTraceFlag);
    const size_t klen = detail::read_int<uint8_t>(p + off + 1);
    const size_t vlen = detail::read_int<uint16_t>(p + off + 2);
    off += kReplEntryFixed;
    if (!is_write(static_cast<OpCode>(op))) return false;
    ReplEntry e;
    if (traced) {
      if (off + 8 > payload.size()) return false;
      e.trace_id = detail::read_int<uint64_t>(p + off);
      off += 8;
    }
    if (off + klen + vlen > payload.size()) return false;
    e.op = static_cast<OpCode>(op);
    e.key.assign(p + off, klen);
    e.value.assign(p + off + klen, vlen);
    entries->push_back(std::move(e));
    off += klen + vlen;
  }
  return off == payload.size();
}

/// Position report (kReplBatch / kReplAck / kPromote response value):
///   u16 n | n * (u32 stream, u64 seq, u64 epoch)
inline bool encode_repl_positions(const std::vector<ReplPosition>& pos,
                                  std::string* out) {
  if (pos.size() > kMaxBatchEntries) return false;
  out->clear();
  detail::append_int(out, static_cast<uint16_t>(pos.size()));
  for (const ReplPosition& p : pos) {
    detail::append_int(out, p.stream);
    detail::append_int(out, p.seq);
    detail::append_int(out, p.epoch);
  }
  return true;
}

inline bool decode_repl_positions(std::string_view payload,
                                  std::vector<ReplPosition>* pos) {
  pos->clear();
  if (payload.size() < 2) return false;
  const size_t n = detail::read_int<uint16_t>(payload.data());
  if (n > kMaxBatchEntries) return false;
  if (payload.size() != 2 + n * 20) return false;
  pos->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* p = payload.data() + 2 + i * 20;
    ReplPosition r;
    r.stream = detail::read_int<uint32_t>(p);
    r.seq = detail::read_int<uint64_t>(p + 4);
    r.epoch = detail::read_int<uint64_t>(p + 12);
    pos->push_back(r);
  }
  return true;
}

/// Find the next complete frame in a receive buffer without copying it.
/// `*pos` is the read cursor: on +1, `*body` views the frame body inside
/// `buf` and `*pos` has moved past the frame; 0 means more bytes are
/// needed, -1 a malformed stream. The views stay valid until `buf`
/// changes, so a reader decodes a whole recv() worth of frames in place
/// and then drops the consumed prefix once (`buf.erase(0, pos)`), not
/// once per frame.
inline int take_frame(std::string_view buf, size_t* pos,
                      std::string_view* body) {
  const size_t avail = buf.size() - *pos;
  if (avail < 4) return 0;
  const uint32_t len = detail::read_int<uint32_t>(buf.data() + *pos);
  if (len > kMaxFrameBody) return -1;
  if (avail < 4 + static_cast<size_t>(len)) return 0;
  *body = buf.substr(*pos + 4, len);
  *pos += 4 + static_cast<size_t>(len);
  return 1;
}

/// Key -> shard partitioning hash (FNV-1a over the whole key; independent
/// of both the HashDir slot hash and the hash-key prefix, so shard
/// balance does not correlate with partition balance).
inline uint64_t shard_hash(std::string_view key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace hart::server
