// hartd service-layer tests: request routing, group-commit epoch acks,
// both transports (in-process and TCP loopback), pipelined completion,
// graceful shutdown, request validation, and PMCheck-cleanliness of the
// whole batched-persist path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_name.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/net.h"
#include "server/stats.h"
#include "server/tcp.h"

namespace hart::server {
namespace {

Hartd::Options small_opts(size_t shards) {
  Hartd::Options o;
  o.shards = shards;
  o.arena_mb = 32;
  return o;
}

TEST(HartdTest, ExecuteBasicOps) {
  Hartd db(small_opts(2));
  EXPECT_EQ(db.execute({OpCode::kPut, "alpha", "one"}).status, Status::kOk);
  EXPECT_EQ(db.execute({OpCode::kPut, "alpha", "two"}).status,
            Status::kUpdated);
  const Response got = db.execute({OpCode::kGet, "alpha", ""});
  EXPECT_EQ(got.status, Status::kOk);
  EXPECT_EQ(got.value, "two");
  EXPECT_EQ(db.execute({OpCode::kUpdate, "alpha", "three"}).status,
            Status::kOk);
  EXPECT_EQ(db.execute({OpCode::kUpdate, "missing", "x"}).status,
            Status::kNotFound);
  EXPECT_EQ(db.execute({OpCode::kDelete, "alpha", ""}).status, Status::kOk);
  EXPECT_EQ(db.execute({OpCode::kGet, "alpha", ""}).status,
            Status::kNotFound);
  EXPECT_EQ(db.execute({OpCode::kPing, "p", ""}).status, Status::kOk);
  EXPECT_EQ(db.total_size(), 0u);
}

TEST(HartdTest, KeysRouteToStableShards) {
  Hartd db(small_opts(4));
  for (int i = 0; i < 200; ++i) {
    const std::string key = "route-" + std::to_string(i);
    EXPECT_EQ(db.shard_of(key), db.shard_of(key));
    EXPECT_LT(db.shard_of(key), db.shard_count());
    EXPECT_EQ(db.execute({OpCode::kPut, key, "v"}).status, Status::kOk);
  }
  EXPECT_EQ(db.total_size(), 200u);
  size_t nonempty = 0;
  for (size_t i = 0; i < db.shard_count(); ++i)
    nonempty += db.shard(i).hart().size() > 0 ? 1 : 0;
  EXPECT_GT(nonempty, 1u) << "FNV routing put every key on one shard";
}

TEST(HartdTest, WriteAcksCarryTheirEpoch) {
  Hartd db(small_opts(1));
  const Response w1 = db.execute({OpCode::kPut, "e1", "v"});
  EXPECT_EQ(w1.status, Status::kOk);
  EXPECT_GE(w1.epoch, 1u);
  const Response w2 = db.execute({OpCode::kPut, "e2", "v"});
  EXPECT_GT(w2.epoch, w1.epoch);  // a later batch fences a later epoch
  // Reads do not fence and carry no epoch.
  EXPECT_EQ(db.execute({OpCode::kGet, "e1", ""}).epoch, 0u);
}

TEST(HartdTest, GroupCommitAmortizesFences) {
  Hartd::Options o = small_opts(1);
  o.batch_size = 16;
  Hartd db(o);
  // A gate write whose ack blocks the shard worker until all 128 puts
  // below are queued: the worker then drains them in full batches, so the
  // fence count does not depend on how the worker races the submitter.
  std::atomic<bool> gate_entered{false};
  std::atomic<bool> gate_open{false};
  std::atomic<bool> gate_done{false};
  ASSERT_TRUE(db.submit({OpCode::kPut, "gc-gate", "v"}, [&](Response r) {
    EXPECT_EQ(r.status, Status::kOk);
    gate_entered.store(true);
    while (!gate_open.load()) std::this_thread::yield();
    gate_done.store(true);
  }));
  while (!gate_entered.load()) std::this_thread::yield();
  Client cl(db);
  std::deque<uint64_t> ids;
  for (int i = 0; i < 128; ++i)
    ids.push_back(cl.send({OpCode::kPut, "gc-" + std::to_string(i), "v"}));
  gate_open.store(true);
  for (const uint64_t id : ids)
    EXPECT_EQ(cl.wait(id).status, Status::kOk);
  EXPECT_TRUE(gate_done.load());
  const auto& st = db.shard(0).stats();
  EXPECT_EQ(st.write_acks.load(), 129u);
  // Pipelined submission must have batched: one fence for the gate's
  // batch, then one per full batch of 16.
  EXPECT_LE(st.epochs.load(), 1u + 128u / 16u);
  EXPECT_GE(st.epochs.load(), st.batches.load() > 0 ? 1u : 0u);
}

TEST(ClientTest, SyncApiInProcess) {
  Hartd db(small_opts(2));
  Client cl(db);
  EXPECT_EQ(cl.put("k", "v").status, Status::kOk);
  const Response r = cl.get("k");
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.value, "v");
  EXPECT_EQ(cl.update("k", "w").status, Status::kOk);
  EXPECT_EQ(cl.get("k").value, "w");
  EXPECT_EQ(cl.del("k").status, Status::kOk);
  EXPECT_EQ(cl.get("k").status, Status::kNotFound);
  EXPECT_EQ(cl.ping().status, Status::kOk);
}

TEST(ClientTest, PipelinedCompletesOutOfOrder) {
  Hartd db(small_opts(4));
  Client cl(db);
  std::vector<uint64_t> ids;
  ids.reserve(256);
  for (int i = 0; i < 256; ++i)
    ids.push_back(cl.send({OpCode::kPut, "p" + std::to_string(i), "v"}));
  // Wait in reverse submission order: the id correlation must not care.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it)
    EXPECT_EQ(cl.wait(*it).status, Status::kOk);
  EXPECT_EQ(cl.outstanding(), 0u);
  EXPECT_EQ(db.total_size(), 256u);
}

TEST(ClientTest, TcpRoundTrip) {
  Hartd db(small_opts(2));
  TcpServer tcp(db, 0);  // ephemeral port
  ASSERT_NE(tcp.port(), 0);
  Client cl("127.0.0.1", tcp.port());
  ASSERT_TRUE(cl.connected());
  EXPECT_EQ(cl.put("net-key", "net-value").status, Status::kOk);
  const Response r = cl.get("net-key");
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.value, "net-value");

  std::deque<uint64_t> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(cl.send({OpCode::kPut, "tcp-" + std::to_string(i), "v"}));
  for (const uint64_t id : ids)
    EXPECT_EQ(cl.wait(id).status, Status::kOk);
  EXPECT_EQ(db.total_size(), 101u);
  tcp.stop();
}

size_t open_fds() {
  namespace fs = std::filesystem;
  return static_cast<size_t>(std::distance(
      fs::directory_iterator("/proc/self/fd"), fs::directory_iterator{}));
}

// A connection the peer closed must release its server-side fd (and its
// thread) while the server keeps running, not only at stop().
TEST(ClientTest, ClosedConnectionsReleaseServerFds) {
  Hartd db(small_opts(2));
  TcpServer tcp(db, 0);
  ASSERT_EQ(db.execute({OpCode::kPut, "fd-key", "v"}).status, Status::kOk);
  const size_t before = open_fds();
  for (int i = 0; i < 200; ++i) {
    Client cl("127.0.0.1", tcp.port());
    ASSERT_EQ(cl.get("fd-key").status, Status::kOk);
  }
  // The last few closes may still be in flight on the server side.
  size_t after = open_fds();
  for (int i = 0; i < 200 && after > before + 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = open_fds();
  }
  EXPECT_LE(after, before + 4);
  tcp.stop();
}

// Several threads pipelining through one shared TCP Client: each
// completion must reach exactly its own waiter, whichever thread waits.
TEST(ClientTest, SharedTcpClientCompletesEveryWaiter) {
  Hartd db(small_opts(4));
  TcpServer tcp(db, 0);
  Client cl("127.0.0.1", tcp.port());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  constexpr size_t kWindow = 16;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cl, t] {
      const auto key = [t](int i) {
        return "s" + std::to_string(t) + "-" + std::to_string(i);
      };
      std::deque<uint64_t> puts;
      for (int i = 0; i < kPerThread; ++i) {
        puts.push_back(cl.send({OpCode::kPut, key(i), key(i)}));
        if (puts.size() >= kWindow || i + 1 == kPerThread) {
          while (!puts.empty()) {
            EXPECT_EQ(cl.wait(puts.front()).status, Status::kOk);
            puts.pop_front();
          }
        }
      }
      std::deque<std::pair<uint64_t, std::string>> gets;
      for (int i = 0; i < kPerThread; ++i) {
        gets.emplace_back(cl.send({OpCode::kGet, key(i), ""}), key(i));
        if (gets.size() >= kWindow || i + 1 == kPerThread) {
          while (!gets.empty()) {
            const Response r = cl.wait(gets.front().first);
            EXPECT_EQ(r.status, Status::kOk);
            EXPECT_EQ(r.value, gets.front().second);
            gets.pop_front();
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  cl.wait_all();
  EXPECT_EQ(cl.outstanding(), 0u);
  EXPECT_EQ(db.total_size(), static_cast<size_t>(kThreads) * kPerThread);
  tcp.stop();
}

TEST(ClientTest, ConcurrentClientsDisjointKeys) {
  Hartd db(small_opts(4));
  constexpr int kClients = 4;
  constexpr int kPerClient = 500;
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c) {
    pool.emplace_back([&db, c] {
      Client cl(db);
      std::deque<uint64_t> ids;
      for (int i = 0; i < kPerClient; ++i) {
        ids.push_back(cl.send({OpCode::kPut,
                               "c" + std::to_string(c) + "-" +
                                   std::to_string(i),
                               "v" + std::to_string(c)}));
        if (ids.size() >= 32) {
          EXPECT_EQ(cl.wait(ids.front()).status, Status::kOk);
          ids.pop_front();
        }
      }
      while (!ids.empty()) {
        EXPECT_EQ(cl.wait(ids.front()).status, Status::kOk);
        ids.pop_front();
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(db.total_size(),
            static_cast<size_t>(kClients) * kPerClient);
  Client check(db);
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(check.get("c" + std::to_string(c) + "-0").value,
              "v" + std::to_string(c));
}

TEST(HartdTest, ShutdownDrainsEveryAck) {
  Hartd db(small_opts(2));
  std::atomic<int> acked{0};
  constexpr int kInflight = 300;
  for (int i = 0; i < kInflight; ++i)
    db.submit({OpCode::kPut, "drain-" + std::to_string(i), "v"},
              [&acked](Response r) {
                EXPECT_TRUE(r.status == Status::kOk ||
                            r.status == Status::kShuttingDown);
                acked.fetch_add(1);
              });
  db.shutdown();
  // Drain guarantee: every submitted request was acked before shutdown()
  // returned — no callback is dropped on the floor.
  EXPECT_EQ(acked.load(), kInflight);
  // After shutdown, submission fails fast with an immediate ack.
  bool immediate = false;
  EXPECT_FALSE(db.submit({OpCode::kPut, "late", "v"}, [&immediate](Response r) {
    EXPECT_EQ(r.status, Status::kShuttingDown);
    immediate = true;
  }));
  EXPECT_TRUE(immediate);
}

TEST(HartdTest, BadRequestsAreRejectedNotFatal) {
  Hartd db(small_opts(2));
  const std::string nul_key{"a\0b", 3};
  EXPECT_EQ(db.execute({OpCode::kPut, nul_key, "v"}).status,
            Status::kBadRequest);
  EXPECT_EQ(db.execute({OpCode::kPut, std::string(64, 'k'), "v"}).status,
            Status::kBadRequest);  // key > kMaxKeyLen
  EXPECT_EQ(db.execute({OpCode::kPut, "ok", ""}).status,
            Status::kBadRequest);  // empty value
  // The shard is still healthy afterwards.
  EXPECT_EQ(db.execute({OpCode::kPut, "ok", "v"}).status, Status::kOk);
  EXPECT_EQ(db.total_size(), 1u);
}

TEST(HartdTest, MgetBatchesAcrossShards) {
  Hartd db(small_opts(4));
  Client cl(db);
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back("mg-" + std::to_string(i));
    ASSERT_EQ(cl.put(keys.back(), "v" + std::to_string(i)).status,
              Status::kOk);
  }
  // Mix in misses and an invalid key: both are plain per-entry misses.
  keys.push_back("absent");
  keys.push_back(std::string("x\0y", 3));
  std::vector<std::string> vals;
  std::vector<bool> found;
  EXPECT_EQ(cl.multi_get(keys, &vals, &found), 100u);
  ASSERT_EQ(vals.size(), keys.size());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(found[i]) << keys[i];
    EXPECT_EQ(vals[i], "v" + std::to_string(i));
  }
  EXPECT_FALSE(found[100]);
  EXPECT_FALSE(found[101]);
  // The batch was dispatcher-served, never queued into a shard.
  EXPECT_GE(db.fastpath_reads(), 1u);
}

TEST(HartdTest, ScanMergesShardsInKeyOrder) {
  Hartd db(small_opts(4));
  Client cl(db);
  for (int i = 0; i < 200; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "sc-%03d", i);
    ASSERT_EQ(cl.put(buf, "v").status, Status::kOk);
  }
  std::vector<std::pair<std::string, std::string>> out;
  // Keys are hash-partitioned over 4 shards, so an ordered scan exercises
  // the dispatcher-side merge.
  EXPECT_EQ(cl.scan("sc-050", 25, &out), 25u);
  ASSERT_EQ(out.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "sc-%03d", 50 + i);
    EXPECT_EQ(out[i].first, buf);
  }
  // Limit past the tail clips to what exists.
  EXPECT_EQ(cl.scan("sc-190", 100, &out), 10u);
  // An invalid start key is rejected, not fatal.
  EXPECT_EQ(cl.scan(std::string("a\0b", 3), 10, &out), 0u);
  EXPECT_EQ(cl.scan("", 10, &out), 0u);
}

TEST(HartdTest, MgetAndScanWorkOverTcp) {
  Hartd db(small_opts(2));
  TcpServer tcp(db, 0);
  Client cl("127.0.0.1", tcp.port());
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("net-" + std::to_string(100 + i));
    ASSERT_EQ(cl.put(keys.back(), "w" + std::to_string(i)).status,
              Status::kOk);
  }
  std::vector<std::string> vals;
  std::vector<bool> found;
  EXPECT_EQ(cl.multi_get(keys, &vals, &found), keys.size());
  EXPECT_EQ(vals[5], "w5");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(cl.scan("net-110", 8, &out), 8u);
  EXPECT_EQ(out.front().first, "net-110");
  EXPECT_EQ(out.back().first, "net-117");
  tcp.stop();
}

TEST(HartdTest, RwlockReadsModeDisablesGetFastpath) {
  Hartd::Options o = small_opts(2);
  o.hart.rwlock_reads = true;  // the read-locking ablation
  Hartd db(o);
  Client cl(db);
  ASSERT_EQ(cl.put("k", "v").status, Status::kOk);
  EXPECT_EQ(cl.get("k").value, "v");
  // Point reads went through the shard queues, not the dispatcher.
  EXPECT_EQ(db.fastpath_reads(), 0u);
  // Batch reads are still served (locked reads are thread-safe).
  std::vector<std::string> vals;
  std::vector<bool> found;
  EXPECT_EQ(cl.multi_get({"k", "missing"}, &vals, &found), 1u);
  EXPECT_TRUE(found[0]);
  EXPECT_FALSE(found[1]);
}

TEST(HartdTest, BatchedPersistPathIsPmCheckClean) {
  Hartd::Options o = small_opts(2);
  o.check = true;  // PMCheck shadows every shard arena
  Hartd db(o);
  {
    Client cl(db);
    std::deque<uint64_t> ids;
    for (int i = 0; i < 400; ++i) {
      const std::string k = "chk-" + std::to_string(i);
      ids.push_back(cl.send({OpCode::kPut, k, "v1"}));
      ids.push_back(cl.send({OpCode::kUpdate, k, "v2"}));
      ids.push_back(cl.send({OpCode::kGet, k, ""}));
      if (i % 3 == 0) ids.push_back(cl.send({OpCode::kDelete, k, ""}));
      while (ids.size() >= 64) {
        cl.wait(ids.front());
        ids.pop_front();
      }
    }
    cl.wait_all();
  }
  db.shutdown();
  for (size_t i = 0; i < db.shard_count(); ++i) {
    const pmcheck::Report rep = db.shard(i).arena().pm_report();
    EXPECT_EQ(rep.total(), 0u) << "shard " << i << ":\n" << rep.to_string();
  }
}

TEST(HartdStats, StatsOpCountsEveryAckedOpExactly) {
  // The per-instance shard counters (not the process-global registry,
  // which other tests in this binary also bump) must equal the number of
  // acked ops — and the STATS op itself must never perturb them.
  Hartd db(small_opts(2));
  Client cli(db);

  constexpr int kPuts = 300;
  uint64_t acked = 0;
  for (int i = 0; i < kPuts; ++i)
    if (is_acked_write(cli.put("stat-" + std::to_string(i), "v").status))
      ++acked;
  for (int i = 0; i < 50; ++i)
    if (cli.get("stat-" + std::to_string(i)).status == Status::kOk) ++acked;
  ASSERT_EQ(acked, kPuts + 50u);

  auto shard_ops = [&db] {
    uint64_t n = 0;
    for (size_t s = 0; s < db.shard_count(); ++s)
      n += db.shard(s).stats().ops.load();
    return n;
  };
  // Writes applied by shard workers; reads served on the dispatcher fast
  // path. Together they account for every acked op exactly.
  EXPECT_EQ(shard_ops(), static_cast<uint64_t>(kPuts));
  EXPECT_EQ(db.fastpath_reads(), 50u);
  EXPECT_EQ(shard_ops() + db.fastpath_reads(), acked);

  // STATS is answered by the dispatcher, not routed to a shard: the op
  // counter must not move, and the payload must carry the right total.
  std::string st;
  ASSERT_EQ(cli.stats(&st), common::Status::kOk);
  EXPECT_EQ(shard_ops() + db.fastpath_reads(), acked);
  EXPECT_NE(st.find("hartd_fastpath_reads_total 50\n"),
            std::string::npos);
  EXPECT_NE(st.find("hartd_ops_total " + std::to_string(acked) + "\n"),
            std::string::npos)
      << st.substr(0, 2000);
  EXPECT_NE(st.find("# TYPE hartd_ops_total counter"), std::string::npos);
  // Per-op latency summaries: every put and get above was timed.
  EXPECT_NE(st.find("hartd_op_latency_ns"), std::string::npos);
  EXPECT_NE(st.find("op=\"insert\""), std::string::npos);

  // JSON variant parses the same totals and the scrape stays monotonic.
  std::string js;
  ASSERT_EQ(cli.stats(&js, "json"), common::Status::kOk);
  EXPECT_NE(js.find("\"hartd_ops_total\":" + std::to_string(acked)),
            std::string::npos)
      << js.substr(0, 2000);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
}

TEST(HartdStats, StatsWorksOverTcpAndAfterMoreWrites) {
  Hartd db(small_opts(2));
  TcpServer tcp(db, 0);
  Client cli("127.0.0.1", tcp.port());
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(is_acked_write(cli.put("t-" + std::to_string(i), "v").status));
  std::string a;
  ASSERT_EQ(cli.stats(&a), common::Status::kOk);
  EXPECT_NE(a.find("hartd_ops_total 64\n"), std::string::npos);

  for (int i = 0; i < 36; ++i)
    ASSERT_TRUE(is_acked_write(cli.put("u-" + std::to_string(i), "v").status));
  std::string b;
  ASSERT_EQ(cli.stats(&b), common::Status::kOk);
  EXPECT_NE(b.find("hartd_ops_total 100\n"), std::string::npos)
      << "ops total not monotonic across scrapes";
  EXPECT_NE(b.find("hartd_live_keys 100\n"), std::string::npos);
}

TEST(HartdStats, ShardGaugesReportTreeFootprint) {
  Hartd db(small_opts(2));
  // Three two-byte prefixes ("aa", "bb", "cc"), whichever shards they land on.
  for (const char* p : {"aa", "bb", "cc"})
    for (int i = 0; i < 20; ++i)
      ASSERT_EQ(db.execute({OpCode::kPut, p + std::to_string(i), "v"}).status,
                Status::kOk);
  const std::string st = stats_prometheus(db);
  uint64_t partitions = 0;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    const std::string lbl = "{shard=\"" + std::to_string(s) + "\"} ";
    const core::Hart& h = db.shard(s).hart();
    EXPECT_NE(st.find("hartd_shard_dram_bytes" + lbl +
                      std::to_string(h.memory_usage().dram_bytes) + "\n"),
              std::string::npos);
    EXPECT_NE(st.find("hartd_shard_partitions" + lbl +
                      std::to_string(h.partition_count()) + "\n"),
              std::string::npos);
    EXPECT_GT(h.memory_usage().dram_bytes, 0u);
    partitions += h.partition_count();
  }
  EXPECT_GE(partitions, 3u);
}


// ---- completion contract: one wake per waiter per shard batch ------------

// A one-shot gate: the shard worker blocks in an ack until the test opens
// it, so requests submitted meanwhile queue up and form the next batch.
struct Gate {
  common::Mutex mu;
  common::CondVar cv;
  bool entered GUARDED_BY(mu) = false;
  bool open GUARDED_BY(mu) = false;

  void block() {
    common::MutexLock lk(mu);
    entered = true;
    cv.notify_all();
    while (!open) cv.wait(mu);
  }
  void wait_entered() {
    common::MutexLock lk(mu);
    while (!entered) cv.wait(mu);
  }
  void release() {
    common::MutexLock lk(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(ShardWakeTest, BatchFiresEveryAckBeforeItsFirstWake) {
  Shard::Options so;
  so.arena.size = size_t{32} << 20;
  so.batch_size = 32;
  Shard shard(so);
  Gate gate;
  ASSERT_TRUE(shard.submit({OpCode::kPing, {}, {}},
                           [&gate](Response, WakeList&) { gate.block(); }));
  gate.wait_entered();

  // K writes queue behind the stalled ping: they form one batch. Each
  // ack marks its request done and queues that request's waiter.
  constexpr int kWrites = 8;
  struct Probe {
    common::Mutex mu;
    int acks GUARDED_BY(mu) = 0;
    int blocked GUARDED_BY(mu) = 0;
    std::vector<bool> done GUARDED_BY(mu) = std::vector<bool>(kWrites);
    std::vector<int> acks_at_wake GUARDED_BY(mu) =
        std::vector<int>(kWrites, -1);
  } probe;
  std::vector<std::shared_ptr<common::CondVar>> cvs;
  for (int i = 0; i < kWrites; ++i)
    cvs.push_back(std::make_shared<common::CondVar>());
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(shard.submit(
        {OpCode::kPut, "w" + std::to_string(i), "v"},
        [&probe, &cvs, i](Response r, WakeList& wake) {
          EXPECT_EQ(r.status, Status::kOk);
          common::MutexLock lk(probe.mu);
          probe.done[i] = true;
          ++probe.acks;
          wake.add(cvs[i]);
        }));
  }
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWrites; ++i) {
    waiters.emplace_back([&probe, &cvs, i] {
      common::MutexLock lk(probe.mu);
      ++probe.blocked;
      while (!probe.done[i]) cvs[i]->wait(probe.mu);
      probe.acks_at_wake[i] = probe.acks;
    });
  }
  // Release the worker only once every waiter sleeps on its request.
  for (;;) {
    {
      common::MutexLock lk(probe.mu);
      if (probe.blocked == kWrites) break;
    }
    std::this_thread::yield();
  }
  gate.release();
  for (auto& t : waiters) t.join();
  common::MutexLock lk(probe.mu);
  for (int i = 0; i < kWrites; ++i)
    EXPECT_EQ(probe.acks_at_wake[i], kWrites)
        << "waiter " << i << " woke before its batch's last ack";
}

TEST(ClientTest, WaitOnOldestIdReturnsWithItsWholeBatchComplete) {
  Hartd db(small_opts(1));
  Client cl(db);
  Gate stall;
  Gate mid;
  db.submit({OpCode::kPing, {}, {}}, [&stall](Response) { stall.block(); });
  stall.wait_entered();
  // One batch: the client's oldest write, a foreign write whose ack holds
  // the worker mid-batch, then the client's remaining writes. A waiter
  // woken by its own ack alone would see the later ones still pending.
  std::vector<uint64_t> ids{cl.send({OpCode::kPut, "c0", "v"})};
  db.submit({OpCode::kPut, "mid", "v"}, [&mid](Response) { mid.block(); });
  for (int i = 1; i < 8; ++i)
    ids.push_back(cl.send({OpCode::kPut, "c" + std::to_string(i), "v"}));
  std::thread releaser([&] {
    // Let the main thread block in wait(ids[0]) first: a waiter that
    // arrives after its id completed never sleeps, so nothing is checked.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stall.release();
    mid.wait_entered();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    mid.release();
  });
  EXPECT_EQ(cl.wait(ids[0]).status, Status::kOk);
  EXPECT_EQ(cl.outstanding(), 0u);
  for (size_t i = 1; i < ids.size(); ++i)
    EXPECT_EQ(cl.wait(ids[i]).status, Status::kOk);
  releaser.join();
}

TEST(ClientTest, CrashMidBatchFailsALaterWaiterWithoutHanging) {
  Hartd::Options o = small_opts(1);
  o.shadow = true;  // crash simulation
  Hartd db(o);
  Client cl(db);
  Gate stall;
  db.submit({OpCode::kPing, {}, {}}, [&stall](Response) { stall.block(); });
  stall.wait_entered();
  // The batch's first persist throws: its first write fails on the crash
  // point, every later one is refused by the failed shard.
  db.shard(0).arena().arm_crash_after(1);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(cl.send({OpCode::kPut, "x" + std::to_string(i), "v"}));
  Response last;
  std::thread waiter([&] { last = cl.wait(ids.back()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stall.release();
  waiter.join();
  EXPECT_EQ(last.status, Status::kShardFailed);
  for (size_t i = 0; i + 1 < ids.size(); ++i)
    EXPECT_EQ(cl.wait(ids[i]).status, Status::kShardFailed);
  EXPECT_TRUE(db.shard(0).failed());
}

// ---- TCP client write path, against a fake listener -----------------------

/// A loopback listener that accepts connections and never answers unless
/// the test writes to them. Its small receive buffer (inherited by every
/// accepted socket) makes a peer that stops reading push back on the
/// client after a few MB at most.
class FakeListener {
 public:
  FakeListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~FakeListener() { ::close(fd_); }
  FakeListener(const FakeListener&) = delete;
  FakeListener& operator=(const FakeListener&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }
  int accept() { return ::accept(fd_, nullptr, nullptr); }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Pipelines 60 KB puts through `cl` from `threads` threads until told to
/// stop or until `limit` sends have returned; `sent` counts the send()
/// calls that returned.
class Flooder {
 public:
  static constexpr size_t kFrameBytes = 60000;
  explicit Flooder(Client& cl, uint64_t limit = UINT64_MAX, int threads = 1) {
    for (int t = 0; t < threads; ++t) {
      th_.emplace_back([this, &cl, limit] {
        const std::string big(kFrameBytes, 'v');
        while (!stop_.load() && sent.load() < limit) {
          cl.send({OpCode::kPut, "k", big});
          sent.fetch_add(1);
        }
      });
    }
  }
  ~Flooder() { join(); }
  Flooder(const Flooder&) = delete;
  Flooder& operator=(const Flooder&) = delete;

  /// Returns once `sent` has not moved for 300 ms: send() is blocked.
  void wait_stalled() const {
    uint64_t last = sent.load();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      const uint64_t now = sent.load();
      if (now == last) return;
      last = now;
    }
  }
  void stop() { stop_.store(true); }
  void join() {
    for (auto& t : th_)
      if (t.joinable()) t.join();
  }

  std::atomic<uint64_t> sent{0};

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> th_;
};

/// Reads what `fd` has buffered until `quiet_ms` pass without new bytes
/// or `want` frames have arrived, and returns the request ids in order.
std::vector<uint64_t> read_request_ids(int fd, size_t want, int quiet_ms) {
  std::vector<uint64_t> ids;
  std::string buf;
  size_t pos = 0;
  std::string_view body;
  char chunk[65536];
  while (ids.size() < want) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, quiet_ms) <= 0) break;
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    buf.erase(0, pos);
    pos = 0;
    buf.append(chunk, static_cast<size_t>(r));
    while (take_frame(buf, &pos, &body) > 0) {
      uint64_t id = 0;
      Request req;
      EXPECT_TRUE(decode_request(body.data(), body.size(), &id, &req));
      ids.push_back(id);
    }
  }
  return ids;
}

// A peer that stops reading blocks send() once the client has queued its
// cap (on top of the socket buffers); reading again releases it, and
// every frame arrives exactly once, in send order.
TEST(ClientWritePathTest, SendBlocksAtTheQueueCapUntilThePeerReads) {
  FakeListener lis;
  Client cl("127.0.0.1", lis.port());
  const int peer = lis.accept();
  ASSERT_GE(peer, 0);
  constexpr uint64_t kFrames = 400;  // 24 MB: more than the socket buffers
  Flooder flood(cl, kFrames);
  flood.wait_stalled();
  const uint64_t at_stall = flood.sent.load();
  EXPECT_LT(at_stall, kFrames) << "send() never blocked";
  EXPECT_GE(at_stall * Flooder::kFrameBytes, Client::kMaxQueuedBytes);

  const std::vector<uint64_t> ids = read_request_ids(peer, kFrames, 5000);
  flood.join();
  EXPECT_EQ(flood.sent.load(), kFrames);
  ASSERT_EQ(ids.size(), kFrames);
  for (uint64_t i = 0; i < kFrames; ++i) EXPECT_EQ(ids[i], i + 1);

  // The peer never answered: hanging up fails every id with kNetError.
  ::close(peer);
  for (uint64_t id = 1; id <= kFrames; ++id)
    EXPECT_EQ(cl.wait(id).status, Status::kNetError);
  EXPECT_EQ(cl.outstanding(), 0u);
}

// Frames still queued when their stream dies are dropped with it: they
// fail with kNetError and are never written to the reconnected stream.
// More senders are blocked on the full queue than the queue can hold, so
// every one of them must be released by the stream's death itself.
TEST(ClientWritePathTest, FrameQueuedForADeadStreamNeverReachesTheNextOne) {
  FakeListener lis;
  Client cl({{"127.0.0.1", lis.port()}}, ReconnectPolicy{.max_attempts = 3});
  const int peer = lis.accept();
  ASSERT_GE(peer, 0);
  constexpr int kSenders = 8;
  static_assert(kSenders * Flooder::kFrameBytes > Client::kMaxQueuedBytes);
  Flooder flood(cl, UINT64_MAX, kSenders);
  flood.wait_stalled();  // frames are queued in the client now
  flood.stop();
  // Hanging up with unread data resets the stream; the blocked sends
  // return and the flooder exits.
  ::close(peer);
  flood.join();
  const uint64_t last_old = flood.sent.load();
  for (uint64_t id = 1; id <= last_old; ++id)
    EXPECT_EQ(cl.wait(id).status, Status::kNetError) << "id " << id;
  EXPECT_FALSE(cl.connected());

  const uint64_t fresh = cl.send({OpCode::kPing, {}, {}});
  EXPECT_GT(fresh, last_old);
  const int peer2 = lis.accept();
  ASSERT_GE(peer2, 0);
  const std::vector<uint64_t> ids = read_request_ids(peer2, SIZE_MAX, 300);
  EXPECT_EQ(ids, std::vector<uint64_t>{fresh});
  std::string reply;
  encode_response(fresh, {Status::kOk, {}, 0}, &reply);
  ASSERT_TRUE(send_all(peer2, reply.data(), reply.size()));
  EXPECT_EQ(cl.wait(fresh).status, Status::kOk);
  ::close(peer2);
}

// Destroying a Client while megabytes of its frames are still on their
// way to a peer that stopped reading returns promptly and fails every one
// of them: each id completes exactly once, which records one "client"
// trace span, and the peer answered none. The frames sit in the socket
// buffers and, depending on how much room the kernel leaves, in the
// client's own queue.
TEST(ClientWritePathTest, DestroyWithQueuedFramesFailsThemAndDoesNotHang) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.enable();
  FakeListener lis;
  auto cl = std::make_unique<Client>("127.0.0.1", lis.port());
  cl->set_trace_sampling(1);
  const int peer = lis.accept();
  ASSERT_GE(peer, 0);
  uint64_t total = 0;
  {
    Flooder flood(*cl);
    flood.wait_stalled();
    flood.stop();
    // Read just enough for the blocked send() to return, then stop
    // reading again.
    const uint64_t at_stall = flood.sent.load();
    char chunk[4096];
    while (flood.sent.load() == at_stall)
      ASSERT_GT(::recv(peer, chunk, sizeof(chunk), 0), 0);
    flood.join();
    total = flood.sent.load();
  }
  const auto t0 = std::chrono::steady_clock::now();
  cl.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  tr.disable();
  size_t spans = 0;
  std::set<uint64_t> traced;
  for (const auto& e : tr.events()) {
    if (std::string(e.name) != "client") continue;
    ++spans;
    traced.insert(e.trace_id);
  }
  EXPECT_EQ(spans, total);
  EXPECT_EQ(traced.size(), total);
  ::close(peer);
}

// ---- thread names ----------------------------------------------------------

// Names of this process's live threads, from /proc/self/task/*/comm.
std::multiset<std::string> thread_names() {
  std::multiset<std::string> names;
  for (const auto& t :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream f(t.path() / "comm");
    std::string name;
    if (std::getline(f, name)) names.insert(name);
  }
  return names;
}

TEST(ThreadNamesTest, EveryLongLivedThreadNamesItsRole) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc thread list on this platform";
  Hartd::Options fo = small_opts(2);
  fo.follow = true;
  Hartd follower(fo);
  TcpServer srv(follower, 0);
  Hartd::Options po = small_opts(1);
  po.replicate_to = {"127.0.0.1:" + std::to_string(srv.port())};
  Hartd primary(po);
  Client cl("127.0.0.1", srv.port());
  ASSERT_EQ(cl.ping().status, Status::kOk);

  // Threads name themselves as they start, so poll briefly.
  const std::vector<std::string> roles{
      "hartd-shard-0", "hartd-shard-1", "hartd-accept", "hartd-conn",
      "hart-client-io", "hartd-repl-0", "hartd-repl-rd"};
  std::vector<std::string> missing = roles;
  for (int i = 0; i < 500 && !missing.empty(); ++i) {
    const auto names = thread_names();
    missing.clear();
    for (const auto& r : roles)
      if (names.count(r) == 0) missing.push_back(r);
    if (!missing.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (const auto& r : missing) ADD_FAILURE() << "no thread named " << r;
  // One connection thread per live stream: the client's and the
  // replication link's.
  EXPECT_GE(thread_names().count("hartd-conn"), 2u);
  for (const auto& n : thread_names())
    EXPECT_LE(n.size(), common::kMaxThreadName);
  primary.shutdown();
  srv.stop();
}

}  // namespace
}  // namespace hart::server
