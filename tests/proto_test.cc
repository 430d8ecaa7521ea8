// Wire-protocol codec tests (src/server/proto.h): round trips for every
// opcode and status, frame extraction (partial / oversized / malformed),
// and the replication payload codecs (kReplBatch / positions) including
// truncated- and garbage-input rejection. These are the negative cases the
// TCP dispatcher's kProtocolError path relies on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "server/proto.h"

namespace hart::server {
namespace {

// Encode a request, pull it back through take_frame, and decode the body.
void roundtrip_request(uint64_t id, const Request& in) {
  std::string buf;
  encode_request(id, in, &buf);
  size_t pos = 0;
  std::string_view body;
  ASSERT_EQ(take_frame(buf, &pos, &body), 1);
  EXPECT_EQ(pos, buf.size());

  uint64_t got_id = 0;
  Request out;
  ASSERT_TRUE(decode_request(body.data(), body.size(), &got_id, &out));
  EXPECT_EQ(got_id, id);
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.value, in.value);
}

TEST(ProtoTest, RequestRoundTripAllOps) {
  const OpCode ops[] = {OpCode::kPut,     OpCode::kGet,     OpCode::kUpdate,
                        OpCode::kDelete,  OpCode::kPing,    OpCode::kStats,
                        OpCode::kMget,    OpCode::kScan,    OpCode::kReplBatch,
                        OpCode::kReplAck, OpCode::kPromote};
  uint64_t id = 7;
  for (OpCode op : ops) {
    roundtrip_request(id++, {op, "some-key", "some-value"});
  }
}

TEST(ProtoTest, RequestRoundTripBinaryAndEmpty) {
  roundtrip_request(1, {OpCode::kPing, "", ""});
  roundtrip_request(2, {OpCode::kPut, std::string("k\0ey", 4),
                        std::string("v\0al\xff", 5)});
  roundtrip_request(3, {OpCode::kPut, std::string(255, 'k'),
                        std::string(65535, 'v')});
}

TEST(ProtoTest, DecodeRequestRejectsBadOpByte) {
  std::string buf;
  encode_request(1, {OpCode::kPut, "k", "v"}, &buf);
  size_t pos = 0;
  std::string_view body;
  ASSERT_EQ(take_frame(buf, &pos, &body), 1);

  uint64_t id;
  Request r;
  for (uint8_t bad : {uint8_t{0}, uint8_t{12}, uint8_t{0xff}}) {
    std::string mangled(body);
    mangled[8] = static_cast<char>(bad);  // op byte
    EXPECT_FALSE(decode_request(mangled.data(), mangled.size(), &id, &r))
        << "op byte " << int(bad) << " must be rejected";
  }
}

TEST(ProtoTest, DecodeRequestRejectsLengthMismatch) {
  std::string buf;
  encode_request(9, {OpCode::kPut, "key", "value"}, &buf);
  size_t pos = 0;
  std::string_view body;
  ASSERT_EQ(take_frame(buf, &pos, &body), 1);

  uint64_t id;
  Request r;
  // Every truncation of the body must be rejected, down to the empty body.
  for (size_t n = 0; n < body.size(); ++n) {
    EXPECT_FALSE(decode_request(body.data(), n, &id, &r))
        << "truncated to " << n << " bytes";
  }
  // Trailing garbage: declared key/value lengths no longer match the body.
  std::string padded = std::string(body) + "x";
  EXPECT_FALSE(decode_request(padded.data(), padded.size(), &id, &r));
}

TEST(ProtoTest, ResponseRoundTripAllStatuses) {
  const Status statuses[] = {Status::kOk,           Status::kUpdated,
                             Status::kNotFound,     Status::kBadRequest,
                             Status::kShardFailed,  Status::kShuttingDown,
                             Status::kNetError,     Status::kNotPrimary,
                             Status::kProtocolError};
  uint64_t id = 100;
  for (Status st : statuses) {
    std::string buf;
    encode_response(id, {st, "payload", 42}, &buf);
    size_t pos = 0;
    std::string_view body;
    ASSERT_EQ(take_frame(buf, &pos, &body), 1);

    uint64_t got_id = 0;
    Response out;
    ASSERT_TRUE(decode_response(body.data(), body.size(), &got_id, &out));
    EXPECT_EQ(got_id, id);
    EXPECT_EQ(out.status, st);
    EXPECT_EQ(out.value, "payload");
    EXPECT_EQ(out.epoch, 42u);
    ++id;
  }
}

TEST(ProtoTest, DecodeResponseRejectsBadStatusAndTruncation) {
  std::string buf;
  encode_response(5, {Status::kOk, "vv", 9}, &buf);
  size_t pos = 0;
  std::string_view body;
  ASSERT_EQ(take_frame(buf, &pos, &body), 1);

  uint64_t id;
  Response r;
  std::string mangled(body);
  mangled[8] = 9;  // one past kProtocolError
  EXPECT_FALSE(decode_response(mangled.data(), mangled.size(), &id, &r));
  for (size_t n = 0; n < body.size(); ++n)
    EXPECT_FALSE(decode_response(body.data(), n, &id, &r));
}

TEST(ProtoTest, TakeFrameNeedsMoreBytes) {
  std::string buf;
  encode_request(1, {OpCode::kPing, "", ""}, &buf);
  const std::string full = buf;

  // Every strict prefix yields 0 (need more) and leaves the cursor alone.
  for (size_t n = 0; n < full.size(); ++n) {
    const std::string partial = full.substr(0, n);
    size_t pos = 0;
    std::string_view body;
    EXPECT_EQ(take_frame(partial, &pos, &body), 0) << "prefix " << n;
    EXPECT_EQ(pos, 0u);
  }
}

TEST(ProtoTest, TakeFrameExtractsBackToBackFrames) {
  std::string buf;
  encode_request(1, {OpCode::kPut, "a", "1"}, &buf);
  encode_request(2, {OpCode::kGet, "b", ""}, &buf);

  size_t pos = 0;
  std::string_view body;
  ASSERT_EQ(take_frame(buf, &pos, &body), 1);
  uint64_t id;
  Request r;
  ASSERT_TRUE(decode_request(body.data(), body.size(), &id, &r));
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(r.key, "a");

  ASSERT_EQ(take_frame(buf, &pos, &body), 1);
  ASSERT_TRUE(decode_request(body.data(), body.size(), &id, &r));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(r.op, OpCode::kGet);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(take_frame(buf, &pos, &body), 0);

  // Many frames in one buffer, decoded in place, then one that arrives
  // split across two appends: the reader compacts between appends the way
  // a recv() loop does, and the split frame decodes whole.
  buf.clear();
  pos = 0;
  constexpr uint64_t kFrames = 1000;
  for (uint64_t i = 1; i <= kFrames; ++i)
    encode_request(i, {OpCode::kPut, "k" + std::to_string(i), "v"}, &buf);
  std::string split;
  encode_request(kFrames + 1, {OpCode::kPut, "split-key", "split-value"},
                 &split);
  const size_t cut = split.size() / 2;
  buf.append(split, 0, cut);
  for (uint64_t i = 1; i <= kFrames; ++i) {
    ASSERT_EQ(take_frame(buf, &pos, &body), 1) << "frame " << i;
    ASSERT_TRUE(decode_request(body.data(), body.size(), &id, &r));
    EXPECT_EQ(id, i);
    EXPECT_EQ(r.key, "k" + std::to_string(i));
  }
  EXPECT_EQ(take_frame(buf, &pos, &body), 0);
  buf.erase(0, pos);
  pos = 0;
  EXPECT_EQ(buf, split.substr(0, cut));
  buf.append(split, cut);
  ASSERT_EQ(take_frame(buf, &pos, &body), 1);
  ASSERT_TRUE(decode_request(body.data(), body.size(), &id, &r));
  EXPECT_EQ(id, kFrames + 1);
  EXPECT_EQ(r.key, "split-key");
  EXPECT_EQ(r.value, "split-value");
  EXPECT_EQ(pos, buf.size());
}

TEST(ProtoTest, TakeFrameRejectsOversizedLength) {
  std::string buf;
  const uint32_t huge = kMaxFrameBody + 1;
  buf.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  buf.append("whatever");
  size_t pos = 0;
  std::string_view body;
  EXPECT_EQ(take_frame(buf, &pos, &body), -1);
}

TEST(ProtoTest, TakeFrameAcceptsMaxSizedLength) {
  std::string buf;
  const uint32_t len = kMaxFrameBody;
  buf.append(reinterpret_cast<const char*>(&len), sizeof(len));
  buf.append(kMaxFrameBody, 'x');
  size_t pos = 0;
  std::string_view body;
  EXPECT_EQ(take_frame(buf, &pos, &body), 1);
  EXPECT_EQ(body.size(), size_t{kMaxFrameBody});
}

// ---- replication payloads ------------------------------------------------

std::vector<ReplEntry> sample_entries() {
  std::vector<ReplEntry> e;
  e.push_back({OpCode::kPut, "alpha", "one"});
  e.push_back({OpCode::kUpdate, std::string("b\0in", 4), "two"});
  e.push_back({OpCode::kDelete, "gone", ""});
  return e;
}

TEST(ProtoTest, ReplBatchRoundTrip) {
  std::string payload;
  ASSERT_TRUE(encode_repl_batch(3, 17, 99, sample_entries(), &payload));

  uint32_t stream = 0;
  uint64_t seq = 0, epoch = 0;
  std::vector<ReplEntry> out;
  ASSERT_TRUE(decode_repl_batch(payload, &stream, &seq, &epoch, &out));
  EXPECT_EQ(stream, 3u);
  EXPECT_EQ(seq, 17u);
  EXPECT_EQ(epoch, 99u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].op, OpCode::kPut);
  EXPECT_EQ(out[0].key, "alpha");
  EXPECT_EQ(out[0].value, "one");
  EXPECT_EQ(out[1].key, std::string("b\0in", 4));
  EXPECT_EQ(out[2].op, OpCode::kDelete);
  EXPECT_TRUE(out[2].value.empty());
}

TEST(ProtoTest, ReplBatchRoundTripEmpty) {
  std::string payload;
  ASSERT_TRUE(encode_repl_batch(0, 1, 5, {}, &payload));
  uint32_t stream;
  uint64_t seq, epoch;
  std::vector<ReplEntry> out;
  ASSERT_TRUE(decode_repl_batch(payload, &stream, &seq, &epoch, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(seq, 1u);
}

TEST(ProtoTest, EncodeReplBatchRefusesUnencodable) {
  std::string payload;
  // Non-write op.
  EXPECT_FALSE(encode_repl_batch(0, 1, 1, {{OpCode::kGet, "k", ""}},
                                 &payload));
  // Oversized key / value.
  EXPECT_FALSE(encode_repl_batch(
      0, 1, 1, {{OpCode::kPut, std::string(256, 'k'), "v"}}, &payload));
  EXPECT_FALSE(encode_repl_batch(
      0, 1, 1, {{OpCode::kPut, "k", std::string(65536, 'v')}}, &payload));
  // Too many entries.
  std::vector<ReplEntry> many(kMaxBatchEntries + 1,
                              {OpCode::kPut, "k", "v"});
  EXPECT_FALSE(encode_repl_batch(0, 1, 1, many, &payload));
  // Individually legal entries whose sum overflows the u16 value field.
  std::vector<ReplEntry> fat(2, {OpCode::kPut, "k", std::string(40000, 'v')});
  EXPECT_FALSE(encode_repl_batch(0, 1, 1, fat, &payload));
}

TEST(ProtoTest, DecodeReplBatchRejectsEveryTruncation) {
  std::string payload;
  ASSERT_TRUE(encode_repl_batch(1, 2, 3, sample_entries(), &payload));

  uint32_t stream;
  uint64_t seq, epoch;
  std::vector<ReplEntry> out;
  // The declared entry count fixes the exact payload size, so every strict
  // prefix must be rejected — a truncated batch may never half-apply.
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(decode_repl_batch(payload.substr(0, n), &stream, &seq,
                                   &epoch, &out))
        << "truncated to " << n << " bytes";
  }
  EXPECT_FALSE(
      decode_repl_batch(payload + "x", &stream, &seq, &epoch, &out));
}

TEST(ProtoTest, DecodeReplBatchRejectsGarbage) {
  uint32_t stream;
  uint64_t seq, epoch;
  std::vector<ReplEntry> out;

  // A batch whose entry carries a non-write opcode.
  std::string payload;
  ASSERT_TRUE(encode_repl_batch(0, 1, 1, {{OpCode::kPut, "k", "v"}},
                                &payload));
  payload[kReplBatchFixed] = static_cast<char>(OpCode::kGet);
  EXPECT_FALSE(decode_repl_batch(payload, &stream, &seq, &epoch, &out));

  // An absurd declared entry count.
  std::string huge(kReplBatchFixed, '\0');
  const uint16_t n = 60000;
  std::memcpy(huge.data() + 20, &n, sizeof(n));
  EXPECT_FALSE(decode_repl_batch(huge, &stream, &seq, &epoch, &out));

  // Plain noise.
  EXPECT_FALSE(decode_repl_batch("not a batch at all, sorry", &stream, &seq,
                                 &epoch, &out));
}

TEST(ProtoTest, ReplPositionsRoundTrip) {
  std::vector<ReplPosition> in = {{0, 12, 100}, {1, 0, 0}, {7, 999, 4242}};
  std::string payload;
  ASSERT_TRUE(encode_repl_positions(in, &payload));

  std::vector<ReplPosition> out;
  ASSERT_TRUE(decode_repl_positions(payload, &out));
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].stream, in[i].stream);
    EXPECT_EQ(out[i].seq, in[i].seq);
    EXPECT_EQ(out[i].epoch, in[i].epoch);
  }

  // Empty report is legal (a follower that has applied nothing).
  ASSERT_TRUE(encode_repl_positions({}, &payload));
  ASSERT_TRUE(decode_repl_positions(payload, &out));
  EXPECT_TRUE(out.empty());
}

TEST(ProtoTest, DecodeReplPositionsRejectsBadSizes) {
  std::vector<ReplPosition> out;
  std::string payload;
  ASSERT_TRUE(encode_repl_positions({{0, 1, 2}, {1, 3, 4}}, &payload));

  for (size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(decode_repl_positions(payload.substr(0, n), &out));
  EXPECT_FALSE(decode_repl_positions(payload + "x", &out));

  // Declared count larger than the cap.
  std::string huge(2, '\0');
  const uint16_t n = kMaxBatchEntries + 1;
  std::memcpy(huge.data(), &n, sizeof(n));
  EXPECT_FALSE(decode_repl_positions(huge, &out));
}

}  // namespace
}  // namespace hart::server
