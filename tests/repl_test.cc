// hartrepl integration tests (DESIGN.md §9): batch-log bookkeeping, the
// promotion state machine, role-aware dispatch, primary->follower delivery
// over a real TCP loopback link, the quorum ack ordering guarantee
// (an acked write is already durable on the follower), client endpoint
// rotation across a failover, and the TCP dispatcher's kProtocolError
// handling of malformed frames.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "repl/batch_log.h"
#include "repl/promotion.h"
#include "server/client.h"
#include "server/hartd.h"
#include "server/proto.h"
#include "server/tcp.h"

namespace hart::server {
namespace {

Hartd::Options base_opts(size_t shards) {
  Hartd::Options o;
  o.shards = shards;
  o.batch_size = 8;
  o.arena_mb = 32;
  return o;
}

Hartd::Options follower_opts(size_t shards) {
  Hartd::Options o = base_opts(shards);
  o.follow = true;
  return o;
}

Hartd::Options primary_opts(size_t shards, uint16_t follower_port,
                            repl::AckPolicy policy) {
  Hartd::Options o = base_opts(shards);
  o.replicate_to = {"127.0.0.1:" + std::to_string(follower_port)};
  o.ack_policy = policy;
  return o;
}

// Poll until `pred` holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---- BatchLog ------------------------------------------------------------

TEST(BatchLogTest, AssignsMonotoneSeqPerStream) {
  repl::BatchLog log(2, 16);
  EXPECT_EQ(log.streams(), 2u);
  EXPECT_EQ(log.tail_seq(0), 0u);
  EXPECT_EQ(log.base_seq(0), 0u);

  EXPECT_EQ(log.append(0, 10, {{OpCode::kPut, "a", "1"}}), 1u);
  EXPECT_EQ(log.append(0, 11, {{OpCode::kPut, "b", "2"}}), 2u);
  EXPECT_EQ(log.append(1, 12, {{OpCode::kPut, "c", "3"}}), 1u);
  EXPECT_EQ(log.tail_seq(0), 2u);
  EXPECT_EQ(log.tail_seq(1), 1u);
  EXPECT_EQ(log.base_seq(0), 1u);
}

TEST(BatchLogTest, ReadAfterReturnsOnlyNewerRecords) {
  repl::BatchLog log(1, 16);
  for (int i = 0; i < 5; ++i)
    log.append(0, 100 + i, {{OpCode::kPut, "k" + std::to_string(i), "v"}});

  std::vector<repl::BatchLog::Record> out;
  EXPECT_EQ(log.read_after(0, 2, 10, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(out[2].seq, 5u);
  EXPECT_EQ(out[0].epoch, 102u);

  out.clear();
  EXPECT_EQ(log.read_after(0, 2, 2, &out), 2u);  // max honored
  out.clear();
  EXPECT_EQ(log.read_after(0, 5, 10, &out), 0u);  // caught up
}

TEST(BatchLogTest, BoundedRetentionEvictsOldest) {
  repl::BatchLog log(1, 3);
  for (int i = 0; i < 10; ++i)
    log.append(0, i, {{OpCode::kPut, "k", "v"}});
  EXPECT_EQ(log.tail_seq(0), 10u);
  EXPECT_EQ(log.base_seq(0), 8u);  // only the last 3 retained

  // A reader behind the retained window sees the gap: the first available
  // record's seq is not its position + 1.
  std::vector<repl::BatchLog::Record> out;
  ASSERT_GT(log.read_after(0, 2, 10, &out), 0u);
  EXPECT_EQ(out.front().seq, 8u);
  EXPECT_NE(out.front().seq, 3u);
}

TEST(BatchLogTest, TailPositionsCoverEveryStream) {
  repl::BatchLog log(3, 8);
  log.append(1, 77, {{OpCode::kPut, "k", "v"}});
  const auto pos = log.tail_positions();
  ASSERT_EQ(pos.size(), 3u);
  EXPECT_EQ(pos[0].seq, 0u);
  EXPECT_EQ(pos[1].stream, 1u);
  EXPECT_EQ(pos[1].seq, 1u);
  EXPECT_EQ(pos[1].epoch, 77u);
  EXPECT_EQ(pos[2].seq, 0u);
}

// ---- PromotionMachine ----------------------------------------------------

TEST(PromotionTest, FollowerPromotesExactlyOnce) {
  repl::PromotionMachine m(repl::Role::kFollower);
  EXPECT_FALSE(m.accepts_writes());
  EXPECT_TRUE(m.accepts_repl_batches());

  int drains = 0;
  EXPECT_TRUE(m.promote([&] {
    ++drains;
    EXPECT_EQ(m.role(), repl::Role::kPromoting);
    EXPECT_FALSE(m.accepts_repl_batches());  // no new batches mid-drain
  }));
  EXPECT_EQ(drains, 1);
  EXPECT_EQ(m.role(), repl::Role::kPrimary);
  EXPECT_TRUE(m.accepts_writes());

  // Idempotent: the second promote is a no-op that does not drain again.
  EXPECT_FALSE(m.promote([&] { ++drains; }));
  EXPECT_EQ(drains, 1);
}

TEST(PromotionTest, ConcurrentPromotesDrainOnce) {
  repl::PromotionMachine m(repl::Role::kFollower);
  std::atomic<int> drains{0};
  std::atomic<int> winners{0};
  std::vector<std::thread> ts;
  ts.reserve(4);
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      if (m.promote([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            drains.fetch_add(1);
          }))
        winners.fetch_add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(drains.load(), 1);
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(m.role(), repl::Role::kPrimary);
}

TEST(PromotionTest, PrimaryStartsAcceptingWrites) {
  repl::PromotionMachine m(repl::Role::kPrimary);
  EXPECT_TRUE(m.accepts_writes());
  EXPECT_FALSE(m.accepts_repl_batches());
  EXPECT_FALSE(m.promote([] { FAIL() << "primary must not drain"; }));
}

// ---- role-aware dispatch -------------------------------------------------

TEST(ReplTest, FollowerRejectsClientWritesServesReads) {
  Hartd db(follower_opts(2));
  EXPECT_EQ(db.role(), repl::Role::kFollower);
  EXPECT_EQ(db.execute({OpCode::kPut, "k", "v"}).status,
            Status::kNotPrimary);
  EXPECT_EQ(db.execute({OpCode::kUpdate, "k", "v"}).status,
            Status::kNotPrimary);
  EXPECT_EQ(db.execute({OpCode::kDelete, "k", ""}).status,
            Status::kNotPrimary);
  // Reads stay served (stale-tolerant), as do pings.
  EXPECT_EQ(db.execute({OpCode::kGet, "k", ""}).status, Status::kNotFound);
  EXPECT_EQ(db.execute({OpCode::kPing, "", ""}).status, Status::kOk);
  db.shutdown();
}

TEST(ReplTest, FollowerAnswersStatsWithHealthGauges) {
  Hartd db(follower_opts(2));
  ASSERT_EQ(db.role(), repl::Role::kFollower);

  // A rejected client write is visible in the counters, not just in the
  // per-request status.
  EXPECT_EQ(db.execute({OpCode::kPut, "k", "v"}).status,
            Status::kNotPrimary);

  // STATS is answered on a follower (it is dispatched before the role
  // gate) and carries the replication health gauges under the same names
  // the primary emits.
  const Response st = db.execute({OpCode::kStats, "", ""});
  ASSERT_EQ(st.status, Status::kOk);
  const std::string& text = st.value;
  EXPECT_NE(text.find("hartd_repl_role 1"), std::string::npos) << text;
  EXPECT_NE(text.find("hartd_repl_lag_seq 0"), std::string::npos);
  EXPECT_NE(text.find("hartd_repl_lag_bytes 0"), std::string::npos);
  EXPECT_NE(text.find("hartd_repl_last_confirm_age_ms 0"),
            std::string::npos);

  // Anchor to line start: a bare find() would hit the "# TYPE" line.
  const size_t pos = text.find("\nhartd_write_rejected_total ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GE(std::strtoull(text.c_str() + pos +
                              std::strlen("\nhartd_write_rejected_total "),
                          nullptr, 10),
            1u);
  db.shutdown();
}

TEST(ReplTest, PromoteFlipsFollowerToPrimary) {
  Hartd db(follower_opts(2));
  const Response r = db.execute({OpCode::kPromote, "", ""});
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(db.role(), repl::Role::kPrimary);

  // The response value carries the node's per-stream applied positions.
  std::vector<ReplPosition> pos;
  EXPECT_TRUE(decode_repl_positions(r.value, &pos));

  // Idempotent, and writes are accepted from the response onward.
  EXPECT_EQ(db.execute({OpCode::kPromote, "", ""}).status, Status::kOk);
  EXPECT_TRUE(is_acked_write(db.execute({OpCode::kPut, "k", "v"}).status));
  EXPECT_EQ(db.execute({OpCode::kGet, "k", ""}).value, "v");
  db.shutdown();
}

TEST(ReplTest, PrimaryRejectsReplBatches) {
  Hartd db(base_opts(1));
  std::string payload;
  ASSERT_TRUE(
      encode_repl_batch(0, 1, 1, {{OpCode::kPut, "k", "v"}}, &payload));
  EXPECT_EQ(db.execute({OpCode::kReplBatch, "", payload}).status,
            Status::kNotPrimary);
  db.shutdown();
}

// ---- primary -> follower over TCP ----------------------------------------

TEST(ReplTest, LocalPolicyDeliversWritesToFollower) {
  Hartd follower(follower_opts(2));
  TcpServer fsrv(follower, 0);

  Hartd primary(primary_opts(2, fsrv.port(), repl::AckPolicy::kLocal));
  for (int i = 0; i < 200; ++i) {
    const std::string k = "key-" + std::to_string(i);
    ASSERT_TRUE(is_acked_write(
        primary.execute({OpCode::kPut, k, "val-" + std::to_string(i)})
            .status));
  }

  // Local acks do not wait for the follower, so poll for convergence.
  ASSERT_TRUE(eventually([&] {
    return follower.execute({OpCode::kGet, "key-199", ""}).status ==
           Status::kOk;
  }));
  for (int i = 0; i < 200; ++i) {
    const std::string k = "key-" + std::to_string(i);
    ASSERT_TRUE(eventually([&] {
      return follower.execute({OpCode::kGet, k, ""}).status == Status::kOk;
    })) << "follower never applied " << k;
    EXPECT_EQ(follower.execute({OpCode::kGet, k, ""}).value,
              "val-" + std::to_string(i));
  }

  ASSERT_NE(follower.applier(), nullptr);
  const auto pos = follower.applier()->positions();
  uint64_t applied = 0;
  for (const auto& p : pos) applied += p.seq;
  EXPECT_GT(applied, 0u);

  primary.shutdown();
  fsrv.stop();
  follower.shutdown();
}

TEST(ReplTest, QuorumAckImpliesFollowerDurable) {
  Hartd follower(follower_opts(2));
  TcpServer fsrv(follower, 0);

  Hartd primary(primary_opts(2, fsrv.port(), repl::AckPolicy::kQuorum));
  ASSERT_NE(primary.replicator(), nullptr);
  EXPECT_EQ(primary.replicator()->quorum_needed(), 1u);

  // With quorum acks, the primary releases a write's ack only after the
  // follower confirmed the batch's fence — so the key must already be
  // readable on the follower the instant the primary's execute returns.
  for (int i = 0; i < 150; ++i) {
    const std::string k = "qk-" + std::to_string(i);
    const Response w = primary.execute({OpCode::kPut, k, "qv"});
    ASSERT_TRUE(is_acked_write(w.status)) << k;
    const Response r = follower.execute({OpCode::kGet, k, ""});
    EXPECT_EQ(r.status, Status::kOk)
        << "quorum-acked " << k << " missing on follower";
  }

  // Deletes ride the same stream with the same guarantee.
  ASSERT_TRUE(is_acked_write(
      primary.execute({OpCode::kDelete, "qk-0", ""}).status));
  EXPECT_EQ(follower.execute({OpCode::kGet, "qk-0", ""}).status,
            Status::kNotFound);

  primary.shutdown();
  fsrv.stop();
  follower.shutdown();
}

TEST(ReplTest, ReplAckReportsPositionsOnBothRoles) {
  Hartd follower(follower_opts(2));
  TcpServer fsrv(follower, 0);
  Hartd primary(primary_opts(2, fsrv.port(), repl::AckPolicy::kQuorum));

  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(is_acked_write(
        primary.execute({OpCode::kPut, "pk-" + std::to_string(i), "v"})
            .status));

  // Primary reports its batch-log tail, one stream per shard.
  const Response pr = primary.execute({OpCode::kReplAck, "", ""});
  ASSERT_EQ(pr.status, Status::kOk);
  std::vector<ReplPosition> ppos;
  ASSERT_TRUE(decode_repl_positions(pr.value, &ppos));
  ASSERT_EQ(ppos.size(), primary.shard_count());
  uint64_t ptail = 0;
  for (const auto& p : ppos) ptail += p.seq;
  EXPECT_GT(ptail, 0u);

  // Follower reports applied positions; quorum acks mean it cannot be
  // behind the primary's tail once all writes are acked.
  const Response fr = follower.execute({OpCode::kReplAck, "", ""});
  ASSERT_EQ(fr.status, Status::kOk);
  std::vector<ReplPosition> fpos;
  ASSERT_TRUE(decode_repl_positions(fr.value, &fpos));
  uint64_t fapplied = 0;
  for (const auto& p : fpos) fapplied += p.seq;
  EXPECT_EQ(fapplied, ptail);

  primary.shutdown();
  fsrv.stop();
  follower.shutdown();
}

TEST(ReplTest, FailoverPreservesQuorumAckedWrites) {
  Hartd follower(follower_opts(2));
  TcpServer fsrv(follower, 0);

  std::vector<std::string> acked;
  {
    Hartd primary(primary_opts(2, fsrv.port(), repl::AckPolicy::kQuorum));
    for (int i = 0; i < 100; ++i) {
      const std::string k = "fk-" + std::to_string(i);
      if (is_acked_write(
              primary.execute({OpCode::kPut, k, "fv"}).status))
        acked.push_back(k);
    }
    // Destructor tears the primary down; no graceful replication drain is
    // required for quorum-acked writes — they are already on the follower.
  }
  ASSERT_EQ(acked.size(), 100u);

  ASSERT_EQ(follower.execute({OpCode::kPromote, "", ""}).status,
            Status::kOk);
  EXPECT_EQ(follower.role(), repl::Role::kPrimary);
  for (const auto& k : acked)
    EXPECT_EQ(follower.execute({OpCode::kGet, k, ""}).status, Status::kOk)
        << "acked write " << k << " lost across failover";

  // The promoted node serves writes again.
  EXPECT_TRUE(is_acked_write(
      follower.execute({OpCode::kPut, "post", "v"}).status));

  fsrv.stop();
  follower.shutdown();
}

// ---- client reconnection / redirect --------------------------------------

TEST(ClientReconnectTest, RotatesPastDeadEndpoint) {
  Hartd db(base_opts(2));
  TcpServer srv(db, 0);

  // Endpoint 0 refuses connections (nothing listens on port 1); the
  // rotating dial must land on the live endpoint.
  Client c({{"127.0.0.1", 1}, {"127.0.0.1", srv.port()}},
           {.max_attempts = 6, .backoff_base_ms = 5, .backoff_max_ms = 40});
  EXPECT_TRUE(is_acked_write(c.put("rk", "rv").status));
  EXPECT_EQ(c.get("rk").value, "rv");

  srv.stop();
  db.shutdown();
}

TEST(ClientReconnectTest, RedirectsToPromotedFollower) {
  Hartd follower(follower_opts(2));
  TcpServer fsrv(follower, 0);

  auto primary = std::make_unique<Hartd>(
      primary_opts(2, fsrv.port(), repl::AckPolicy::kQuorum));
  auto psrv = std::make_unique<TcpServer>(*primary, 0);

  Client c({{"127.0.0.1", psrv->port()}, {"127.0.0.1", fsrv.port()}},
           {.max_attempts = 8, .backoff_base_ms = 5, .backoff_max_ms = 40});
  ASSERT_TRUE(is_acked_write(c.put("before", "1").status));

  // Fail the primary over, then promote the follower.
  psrv->stop();
  primary->shutdown();
  psrv.reset();
  primary.reset();
  ASSERT_EQ(follower.execute({OpCode::kPromote, "", ""}).status,
            Status::kOk);

  // The client's next sends redial the endpoint list and land on the
  // promoted follower. In-flight / raced requests surface kNetError (the
  // client never silently retries a write); callers retry explicitly.
  Response r{Status::kNetError, {}, 0};
  for (int i = 0; i < 50 && !is_acked_write(r.status); ++i) {
    r = c.put("after", "2");
    if (!is_acked_write(r.status)) {
      EXPECT_EQ(r.status, Status::kNetError);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(is_acked_write(r.status));
  EXPECT_EQ(c.get("before").status, Status::kOk);  // replicated pre-failover
  EXPECT_EQ(c.get("after").value, "2");

  fsrv.stop();
  follower.shutdown();
}

// ---- TCP protocol-error handling -----------------------------------------

int dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Read one response frame; returns false on EOF / error. The server may
// coalesce several responses into one write, so a caller expecting more
// than one passes the same `buf` to every call to keep the bytes already
// received beyond the first frame.
bool read_response(int fd, uint64_t* id, Response* resp,
                   std::string* buf = nullptr) {
  std::string local;
  if (buf == nullptr) buf = &local;
  char tmp[512];
  while (true) {
    size_t pos = 0;
    std::string_view body;
    const int got = take_frame(*buf, &pos, &body);
    if (got < 0) return false;
    if (got > 0) {
      const bool ok = decode_response(body.data(), body.size(), id, resp);
      buf->erase(0, pos);
      return ok;
    }
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf->append(tmp, static_cast<size_t>(n));
  }
}

TEST(TcpProtocolTest, OversizedFrameGetsErrorThenClose) {
  Hartd db(base_opts(1));
  TcpServer srv(db, 0);
  const int fd = dial(srv.port());

  std::string wire;
  const uint32_t huge = kMaxFrameBody + 1;
  wire.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_TRUE(send_all(fd, wire));

  uint64_t id = 1;
  Response resp;
  ASSERT_TRUE(read_response(fd, &id, &resp));
  EXPECT_EQ(resp.status, Status::kProtocolError);
  EXPECT_EQ(id, 0u);  // no request id is recoverable from a bad frame

  // The stream position is untrustworthy: the server closes it.
  char tmp[16];
  EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);
  ::close(fd);
  srv.stop();
  db.shutdown();
}

TEST(TcpProtocolTest, GarbageBodyGetsErrorAndConnectionKeepsServing) {
  Hartd db(base_opts(1));
  TcpServer srv(db, 0);
  const int fd = dial(srv.port());

  // A well-framed body that decode_request rejects (op byte 0). The id in
  // the first 8 bytes is recoverable, so the error response carries it.
  std::string body;
  const uint64_t bad_id = 7777;
  body.append(reinterpret_cast<const char*>(&bad_id), sizeof(bad_id));
  body.append(4, '\0');
  std::string wire;
  const uint32_t len = static_cast<uint32_t>(body.size());
  wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
  wire += body;
  ASSERT_TRUE(send_all(fd, wire));

  uint64_t id = 0;
  Response resp;
  ASSERT_TRUE(read_response(fd, &id, &resp));
  EXPECT_EQ(resp.status, Status::kProtocolError);
  EXPECT_EQ(id, bad_id);

  // An undecodable body is a per-request failure, not a framing failure:
  // the same connection must keep serving well-formed requests.
  std::string ping;
  encode_request(42, {OpCode::kPing, "", ""}, &ping);
  ASSERT_TRUE(send_all(fd, ping));
  ASSERT_TRUE(read_response(fd, &id, &resp));
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(resp.status, Status::kOk);

  ::close(fd);
  srv.stop();
  db.shutdown();
}

// ---- TCP response coalescing ---------------------------------------------
//
// One send() carrying many frames is parsed as one burst: the server holds
// every response produced meanwhile (inline fast-path gets, protocol
// errors, shard acks) and writes them together. Nothing may be lost,
// duplicated or misattributed in the process.

std::string garbage_frame(uint64_t id) {
  std::string body;
  body.append(reinterpret_cast<const char*>(&id), sizeof(id));
  body.append(4, '\0');  // op byte 0: well framed, undecodable
  std::string wire;
  const uint32_t len = static_cast<uint32_t>(body.size());
  wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
  return wire + body;
}

TEST(TcpProtocolTest, BurstGetsExactlyOneResponsePerFrame) {
  Hartd db(base_opts(2));
  constexpr uint64_t kKeys = 128;
  for (uint64_t k = 0; k < kKeys; ++k)
    ASSERT_EQ(db.execute({OpCode::kPut, "b" + std::to_string(k), "v"}).status,
              Status::kOk);
  TcpServer srv(db, 0);
  const int fd = dial(srv.port());

  // Expected (status, value) per id. Gets alternate hit / miss, updates
  // (answered by shard workers, so possibly mid-burst) alternate hit /
  // miss, and one garbage frame sits in the middle. The burst is larger
  // than the server's receive chunk, so it also spans several reads.
  std::map<uint64_t, std::pair<Status, std::string>> want;
  std::string wire;
  uint64_t id = 1;
  for (uint64_t k = 0; k < kKeys; ++k) {
    encode_request(id, {OpCode::kGet, "b" + std::to_string(k), ""}, &wire);
    want[id++] = {Status::kOk, "v"};
    encode_request(id, {OpCode::kGet, "m" + std::to_string(k), ""}, &wire);
    want[id++] = {Status::kNotFound, ""};
    if (k == kKeys / 2) {
      wire += garbage_frame(id);
      want[id++] = {Status::kProtocolError, ""};
    }
    if (k % 4 == 0) {
      encode_request(id, {OpCode::kUpdate, "b" + std::to_string(k), "v"},
                     &wire);
      want[id++] = {Status::kOk, ""};
      encode_request(id, {OpCode::kUpdate, "m" + std::to_string(k), "v"},
                     &wire);
      want[id++] = {Status::kNotFound, ""};
    }
  }
  ASSERT_GT(wire.size(), 4096u);
  ASSERT_TRUE(send_all(fd, wire));

  std::map<uint64_t, int> seen;
  std::string buf;
  for (size_t i = 0; i < want.size(); ++i) {
    uint64_t got_id = 0;
    Response resp;
    ASSERT_TRUE(read_response(fd, &got_id, &resp, &buf));
    ++seen[got_id];
    ASSERT_EQ(want.count(got_id), 1u) << "unknown id " << got_id;
    EXPECT_EQ(resp.status, want[got_id].first) << "id " << got_id;
    EXPECT_EQ(resp.value, want[got_id].second) << "id " << got_id;
  }
  for (const auto& [wid, expect] : want) EXPECT_EQ(seen[wid], 1) << wid;

  // Nothing else is owed: the next response on the stream is a fresh ping.
  std::string ping;
  encode_request(id, {OpCode::kPing, "", ""}, &ping);
  ASSERT_TRUE(send_all(fd, ping));
  uint64_t got_id = 0;
  Response resp;
  ASSERT_TRUE(read_response(fd, &got_id, &resp, &buf));
  EXPECT_EQ(got_id, id);
  EXPECT_EQ(resp.status, Status::kOk);

  ::close(fd);
  srv.stop();
  db.shutdown();
}

TEST(TcpProtocolTest, OversizedFrameAfterBurstFlushesHeldResponsesFirst) {
  Hartd db(base_opts(1));
  ASSERT_EQ(db.execute({OpCode::kPut, "hit", "hv"}).status, Status::kOk);
  TcpServer srv(db, 0);
  const int fd = dial(srv.port());

  constexpr uint64_t kGets = 40;
  std::string wire;
  for (uint64_t id = 1; id <= kGets; ++id)
    encode_request(id, {OpCode::kGet, id % 2 ? "hit" : "miss", ""}, &wire);
  const uint32_t huge = kMaxFrameBody + 1;
  wire.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_TRUE(send_all(fd, wire));

  // Every get was answered inline before the bad prefix was parsed, so
  // all of them must reach the peer ahead of the terminal error.
  std::string buf;
  for (uint64_t want = 1; want <= kGets; ++want) {
    uint64_t id = 0;
    Response resp;
    ASSERT_TRUE(read_response(fd, &id, &resp, &buf));
    EXPECT_EQ(id, want);
    EXPECT_EQ(resp.status, want % 2 ? Status::kOk : Status::kNotFound);
  }
  uint64_t id = 1;
  Response resp;
  ASSERT_TRUE(read_response(fd, &id, &resp, &buf));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(resp.status, Status::kProtocolError);
  EXPECT_TRUE(buf.empty());
  char tmp[16];
  EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);  // then EOF

  ::close(fd);
  srv.stop();
  db.shutdown();
}

}  // namespace
}  // namespace hart::server
