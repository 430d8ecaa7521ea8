// The two hartd workloads. Both run the service with its shipped defaults
// (4 shards, batch 32, batched allocator metadata, deferred-latency sleep
// per batch) at 600/300 ns PM latency, driven by two clients in this
// process, each owning a disjoint key slice:
//
//   svc_write_churn  in-process hart::Client; 25% put of a fresh key, 25%
//                    delete, 40% update, 10% get, Uniform over a preloaded
//                    live set whose size stays constant.
//   svc_read_zipf    hart::Client over TCP loopback; 90% get, 10% update,
//                    Zipfian (theta 0.99) over a fixed preloaded key space
//                    with hot ranks scattered by a seeded permutation; a
//                    quarter of the gets ask for never-inserted keys. Set-up
//                    preloads file-backed arenas, shuts down and reopens.
//
// Each run has two timed phases: an open loop at a fixed offered rate
// (latencies, timed from each request's scheduled send to its response's
// arrival) and a closed loop with a fixed window per client (throughput).
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "server/client.h"
#include "server/hartd.h"
#include "server/tcp.h"
#include "workload/keygen.h"

namespace perfbench {
namespace {

using hart::server::Client;
using hart::server::Hartd;
using hart::server::OpCode;
using hart::server::Request;
using hart::server::Response;
using hart::server::Status;

constexpr size_t kShards = 4;
constexpr size_t kBatch = 32;
constexpr size_t kArenaMb = 64;
constexpr size_t kClients = 2;
constexpr double kWindowS = 0.25;   // timed phases are cut into windows
constexpr size_t kSetupReps = 3;    // set-ups per run (setup_s is the median)
constexpr size_t kProbeEvery = 8;   // traced pass: probe every 8th get
constexpr uint64_t kSpinNs = 15000; // open loop: yield, not sleep, this close

struct Spec {
  const char* name;
  bool tcp;
  size_t keys;         // preloaded keys
  size_t extra_keys;   // fresh (churn) or never-inserted (zipf) keys
  double open_rate;    // offered ops/s over both clients, open-loop phase
  double closed_cap;   // generous closed-loop ops/s bound, sizes the inputs
  size_t window;       // closed-loop outstanding requests per client
};

constexpr Spec kChurn{"svc_write_churn", false, 100000, 100000, 75000, 900000,
                      256};
constexpr Spec kZipf{"svc_read_zipf", true, 100000, 100000, 60000, 250000, 64};

OpCode opcode(uint8_t t) {
  switch (t) {
    case kPut: return OpCode::kPut;
    case kGet: return OpCode::kGet;
    case kUpdate: return OpCode::kUpdate;
    default: return OpCode::kDelete;
  }
}

// ---- inputs -------------------------------------------------------------

/// YCSB's Zipfian generator (Gray et al.) over a fixed item count; the zeta
/// constants are computed once.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t next(hart::common::Rng* rng) const {
    const double u = rng->next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<uint64_t>(double(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

struct Inputs {
  std::vector<std::string> keys;
  std::vector<bool> preloaded;
  std::vector<std::vector<Op>> streams;          // per client
  std::vector<std::vector<uint64_t>> schedule;   // open-loop send offsets, ns
  KeyModel model;
};

void shuffle(std::vector<uint32_t>* v, hart::common::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i)
    std::swap((*v)[i - 1], (*v)[rng->next_below(i)]);
}

Inputs make_inputs(const Spec& spec, uint64_t seed, double open_s,
                   double closed_s) {
  Inputs in;
  hart::common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  const size_t nkeys = spec.keys + spec.extra_keys;
  std::vector<std::string> words = hart::workload::make_dictionary(nkeys, seed);
  std::vector<uint32_t> perm(nkeys);
  std::iota(perm.begin(), perm.end(), 0u);
  shuffle(&perm, &rng);
  in.keys.resize(nkeys);
  for (size_t i = 0; i < nkeys; ++i) in.keys[i] = std::move(words[perm[i]]);
  in.preloaded.assign(nkeys, false);
  for (size_t k = 0; k < spec.keys; ++k) in.preloaded[k] = true;

  in.streams.resize(kClients);
  in.schedule.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    hart::common::Rng r(seed * 1000003 + 17 * c + 5);
    // Open-loop schedule: Poisson arrivals at this client's share.
    const double mean_gap_ns = 1e9 * kClients / spec.open_rate;
    for (double t = 0;;) {
      t += -std::log(1.0 - r.next_double()) * mean_gap_ns;
      if (t >= open_s * 1e9) break;
      in.schedule[c].push_back(static_cast<uint64_t>(t));
    }
    const size_t n_ops =
        in.schedule[c].size() +
        static_cast<size_t>(spec.closed_cap / kClients * closed_s);
    std::vector<Op>& ops = in.streams[c];
    ops.reserve(n_ops);
    // This client's slice: keys with index % kClients == c.
    std::vector<uint32_t> hits, extra;
    for (uint32_t k = static_cast<uint32_t>(c); k < nkeys; k += kClients)
      (k < spec.keys ? hits : extra).push_back(k);
    if (!spec.tcp) {
      // Write churn: live set = preloaded slice, fresh keys queue behind.
      std::vector<uint32_t> live = hits;
      std::deque<uint32_t> fresh(extra.begin(), extra.end());
      const size_t target = live.size();
      const size_t slack = target / 100;
      for (size_t i = 0; i < n_ops; ++i) {
        const uint64_t roll = r.next_below(100);
        uint8_t type = roll < 25 ? kPut : roll < 50 ? kDelete
                                    : roll < 90 ? kUpdate : kGet;
        if (type == kPut && (fresh.empty() || live.size() > target + slack))
          type = kDelete;
        else if (type == kDelete && live.size() + slack < target)
          type = kPut;
        uint32_t k = 0;
        if (type == kPut) {
          k = fresh.front();
          fresh.pop_front();
          live.push_back(k);
        } else {
          const size_t j = r.next_below(live.size());
          k = live[j];
          if (type == kDelete) {
            live[j] = live.back();
            live.pop_back();
            fresh.push_back(k);
          }
        }
        ops.push_back({k, type, 0});
      }
    } else {
      // Read zipf: ranks map to keys through seeded permutations, so hot
      // keys land on shards by hash.
      shuffle(&hits, &r);
      shuffle(&extra, &r);
      const Zipf zh(hits.size(), 0.99);
      const Zipf zm(extra.size(), 0.99);
      for (size_t i = 0; i < n_ops; ++i) {
        const uint64_t roll = r.next_below(100);
        uint8_t type = roll < 90 ? kGet : kUpdate;
        uint32_t k = 0;
        if (type == kGet && r.next_below(4) == 0)
          k = extra[zm.next(&r)];
        else
          k = hits[zh.next(&r)];
        ops.push_back({k, type, 0});
      }
    }
  }
  in.model.build(nkeys, in.preloaded, &in.streams);
  return in;
}

// ---- one client connection ----------------------------------------------

struct Rec {
  uint64_t t0;  // scheduled (open loop) or actual (closed loop) send time
  uint32_t dt;  // ns until the response arrived
  uint8_t type;
  [[nodiscard]] uint64_t t1() const { return t0 + dt; }
};

struct Pending {
  uint32_t op = 0;
  uint32_t lo = 0;  // gets: newest acked state when sent
  uint64_t id = 0;
  uint64_t t0 = 0;
};

/// One client of the service and its completion lanes. Responses complete
/// in order within a lane, so each lane has a thread that waits for its
/// oldest request and stamps its arrival; the sender never waits for a
/// response it did not just issue.
///
///   in-process  one lane per shard for writes (a shard acks in FIFO
///               order); gets are answered inside send(), so the sender
///               stamps them. Each lane has its own hart::Client: a Client
///               wakes every thread waiting on it at each response, and
///               with one shared Client that herd cut throughput ~3x.
///   TCP         one connection; a lane for writes and one for gets (the
///               dispatcher answers gets in arrival order, ahead of queued
///               writes). A write that completes before an earlier-sent
///               write of another shard is stamped when that one completes;
///               updates are 10% of this mix, so such overlaps are rare.
class Conn {
 public:
  Conn(Hartd* db, uint16_t port, const std::vector<Op>& ops,
       const Inputs& in, KeyModel* model, bool trace)
      : db_(*db), ops_(ops), in_(in), model_(*model), trace_(trace),
        inproc_(port == 0) {
    const size_t lanes = inproc_ ? kShards : 2;
    for (size_t i = 0; i < lanes; ++i) {
      if (inproc_ || i == 0)
        clients_.push_back(port == 0 ? std::make_unique<Client>(*db)
                                     : std::make_unique<Client>("127.0.0.1", port));
      lanes_.push_back(std::make_unique<Lane>());
      lanes_.back()->client = clients_.back().get();
      lanes_.back()->recs.reserve(ops.size() / lanes + 1024);
    }
    if (inproc_) clients_.push_back(std::make_unique<Client>(*db));  // gets
    for (auto& l : lanes_) l->th = std::thread([this, p = l.get()] { lane_loop(p); });
    inline_recs_.reserve(ops.size() / 8);
  }
  ~Conn() {
    for (auto& l : lanes_) {
      {
        std::lock_guard<std::mutex> lk(l->mu);
        l->stop = true;
      }
      l->cv.notify_one();
      l->th.join();
    }
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends ops [0, schedule.size()) at start + schedule[i].
  void run_open(uint64_t start, const std::vector<uint64_t>& schedule) {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const uint64_t due = start + schedule[i];
      // Sleep to just before `due`, then yield until it: a sleep alone
      // wakes ~10 us late and jitters with host load, and a late send
      // counts against the request, which is timed from `due`.
      if (const uint64_t n = now_ns(); n + kSpinNs < due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - n - kSpinNs));
      while (now_ns() < due) std::this_thread::yield();
      late_ns_.push_back(now_ns() - due);
      send_op(i, due);
    }
    next_ = schedule.size();
  }

  /// Keeps `window` requests outstanding until `deadline`.
  void run_closed(uint64_t deadline, size_t window) {
    const int w = static_cast<int>(window);
    while (next_ < ops_.size()) {
      for (int v = inflight_.load(std::memory_order_acquire); v >= w;
           v = inflight_.load(std::memory_order_acquire))
        inflight_.wait(v);
      const uint64_t t = now_ns();
      if (t >= deadline) return;
      send_op(next_++, t);
    }
    std::fprintf(stderr, "perfbench: closed loop ran out of inputs\n");
  }

  void wait_idle() {
    for (int v = inflight_.load(std::memory_order_acquire); v != 0;
         v = inflight_.load(std::memory_order_acquire))
      inflight_.wait(v);
  }

  /// Moves out every completion record since the last call (idle only).
  std::vector<Rec> take_recs() {
    std::vector<Rec> all = std::move(inline_recs_);
    inline_recs_.clear();
    for (auto& l : lanes_) {
      all.insert(all.end(), l->recs.begin(), l->recs.end());
      l->recs.clear();
    }
    return all;
  }

  std::vector<uint64_t> late_ns_, probe_search_ns_, probe_submit_ns_;
  std::atomic<uint64_t> errors{0}, sent{0}, gets{0}, misses{0};

 private:
  struct Lane {
    Client* client = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> q;
    bool stop = false;
    std::vector<Rec> recs;
    std::thread th;
  };

  void send_op(size_t i, uint64_t t0) {
    const Op& op = ops_[i];
    const std::string& req_key = in_.keys[op.key];
    Request req{opcode(op.type), req_key, {}};
    if (op.type == kPut || op.type == kUpdate)
      req.value = value_of(op.key, op.state);
    Pending p{static_cast<uint32_t>(i),
              op.type == kGet ? model_.acked(op.key) : 0, 0, t0};
    inflight_.fetch_add(1, std::memory_order_relaxed);
    sent.fetch_add(1, std::memory_order_relaxed);
    if (op.type == kGet && inproc_) {
      // The dispatcher answers in-process gets inside send().
      Client& c = *clients_.back();
      p.id = c.send(std::move(req));
      Response r = c.wait(p.id);
      finish(p, r, now_ns(), &inline_recs_);
    } else {
      Lane& l = *lanes_[inproc_ ? db_.shard_of(req_key) : op.type == kGet];
      p.id = l.client->send(std::move(req));
      bool was_empty = false;
      {
        std::lock_guard<std::mutex> lk(l.mu);
        was_empty = l.q.empty();
        l.q.push_back(p);
      }
      if (was_empty) l.cv.notify_one();
    }
    if (trace_ && op.type == kGet && ++get_tick_ % kProbeEvery == 0)
      probe(in_.keys[op.key]);
  }

  /// Traced pass: time the same get as a direct Hart::search and as a
  /// direct Hartd::submit (read-only, so the model is unaffected).
  void probe(const std::string& key) {
    std::string out;
    const uint64_t s0 = now_ns();
    db_.shard(db_.shard_of(key)).hart().search(key, &out);
    const uint64_t s1 = now_ns();
    probe_search_ns_.push_back(s1 - s0);
    auto done = std::make_shared<std::atomic<uint64_t>>(0);
    const uint64_t q0 = now_ns();
    db_.submit(Request{OpCode::kGet, key, {}}, [done](Response) {
      done->store(now_ns(), std::memory_order_release);
      done->notify_one();
    });
    done->wait(0, std::memory_order_acquire);
    probe_submit_ns_.push_back(done->load() - q0);
  }

  void lane_loop(Lane* l) {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(l->mu);
        l->cv.wait(lk, [l] { return !l->q.empty() || l->stop; });
        if (l->q.empty()) return;
        p = l->q.front();
        l->q.pop_front();
      }
      Response r = l->client->wait(p.id);
      finish(p, r, now_ns(), &l->recs);
    }
  }

  void finish(const Pending& p, const Response& r, uint64_t t1,
              std::vector<Rec>* recs) {
    const Op& op = ops_[p.op];
    bool ok = false;
    if (op.type == kGet) {
      gets.fetch_add(1, std::memory_order_relaxed);
      if (r.status == Status::kNotFound)
        misses.fetch_add(1, std::memory_order_relaxed);
      ok = (r.status == Status::kOk || r.status == Status::kNotFound) &&
           model_.check_get(op.key, p.lo, op.state, r.status == Status::kOk,
                            r.value);
    } else {
      // The generator only puts absent keys and updates/deletes present
      // ones, and same-key writes apply in send order: each succeeds.
      ok = r.status == Status::kOk;
      if (ok) model_.ack(op.key, op.state);
    }
    if (!ok && errors.fetch_add(1, std::memory_order_relaxed) < 5)
      std::fprintf(stderr,
                   "perfbench: wrong %s result for key '%s': status %s\n",
                   op_name(op.type), in_.keys[op.key].c_str(),
                   hart::server::status_name(r.status));
    recs->push_back({p.t0, static_cast<uint32_t>(std::min<uint64_t>(
                                   t1 - p.t0, UINT32_MAX)),
                     op.type});
    inflight_.fetch_sub(1, std::memory_order_release);
    inflight_.notify_one();
  }

  Hartd& db_;
  const std::vector<Op>& ops_;
  const Inputs& in_;
  KeyModel& model_;
  const bool trace_;
  const bool inproc_;
  // Declared before lanes_: lane threads use the clients until joined.
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<Rec> inline_recs_;
  std::atomic<int> inflight_{0};
  size_t next_ = 0;
  uint64_t get_tick_ = 0;
};

// ---- set-up ---------------------------------------------------------------

Hartd::Options service_options(const std::string& dir) {
  Hartd::Options o;
  o.shards = kShards;
  o.batch_size = kBatch;
  o.arena_mb = kArenaMb;
  o.latency = hart::pmem::LatencyConfig::c600_300();
  o.arena_dir = dir;
  return o;
}

/// Sleeps off every shard's banked device time, shards in parallel (the
/// service only pays it in its workers, after a batch).
void pay_device_time(Hartd* db) {
  std::vector<std::thread> pool;
  for (size_t s = 0; s < db->shard_count(); ++s)
    pool.emplace_back([db, s] { db->shard(s).arena().pay_latency(); });
  for (auto& t : pool) t.join();
}

/// The live service a pass measures, plus what its set-up took.
struct Service {
  std::unique_ptr<Hartd> db;
  std::unique_ptr<hart::server::TcpServer> tcp;
  std::string dir;
  double setup_s = 0;
  double recovery_s = 0;
  uint64_t recovered = 0;
  uint64_t errors = 0;

  ~Service() {
    tcp.reset();  // stop the listener before the service it serves
    db.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

/// Write churn: anonymous arenas; the live set is preloaded straight into
/// each shard's Hart (one thread per shard), so the shard histograms start
/// empty when the timed phases begin.
std::unique_ptr<Service> setup_churn(const Inputs& in) {
  auto svc = std::make_unique<Service>();
  const uint64_t t0 = now_ns();
  svc->db = std::make_unique<Hartd>(service_options(""));
  std::vector<std::thread> pool;
  std::atomic<uint64_t> errors{0};
  for (size_t s = 0; s < kShards; ++s) {
    pool.emplace_back([&, s] {
      auto& tree = svc->db->shard(s).hart();
      for (uint32_t k = 0; k < in.keys.size(); ++k) {
        if (!in.preloaded[k] || svc->db->shard_of(in.keys[k]) != s) continue;
        if (tree.insert(in.keys[k], value_of(k, 0)).code() !=
            hart::common::Status::kInserted)
          errors.fetch_add(1);
      }
      // The deferred-latency arena banked the preload's device time; pay
      // it here, as the worker would have, not in the first timed batch.
      svc->db->shard(s).arena().pay_latency();
    });
  }
  for (auto& t : pool) t.join();
  svc->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  svc->errors = errors.load();
  return svc;
}

/// Read zipf: preload file-backed arenas through a pipelined in-process
/// client, shut down cleanly, reopen (Algorithm 7 recovery), start the
/// TCP listener; then read back every preloaded key (outside setup_s).
std::unique_ptr<Service> setup_zipf(const Inputs& in, const std::string& dir) {
  auto svc = std::make_unique<Service>();
  svc->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const uint64_t t0 = now_ns();
  {
    Hartd db(service_options(dir));
    Client cl(db);
    std::deque<uint64_t> inflight;
    auto drain_one = [&] {
      if (cl.wait(inflight.front()).status != Status::kOk) ++svc->errors;
      inflight.pop_front();
    };
    for (uint32_t k = 0; k < in.keys.size(); ++k) {
      if (!in.preloaded[k]) continue;
      inflight.push_back(cl.send(Request{OpCode::kPut, in.keys[k], value_of(k, 0)}));
      if (inflight.size() >= 256) drain_one();
    }
    while (!inflight.empty()) drain_one();
    db.shutdown();
  }
  const uint64_t r0 = now_ns();
  svc->db = std::make_unique<Hartd>(service_options(dir));
  pay_device_time(svc->db.get());  // recovery's PM reads, shards in parallel
  const uint64_t r1 = now_ns();
  svc->tcp = std::make_unique<hart::server::TcpServer>(*svc->db, 0);
  svc->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  svc->recovery_s = static_cast<double>(r1 - r0) / 1e9;
  svc->recovered = svc->db->recovered_keys();
  size_t preloaded = 0;
  std::string got;
  for (uint32_t k = 0; k < in.keys.size(); ++k) {
    if (!in.preloaded[k]) continue;
    ++preloaded;
    const auto s = svc->db->shard(svc->db->shard_of(in.keys[k]))
                       .hart()
                       .search(in.keys[k], &got);
    if (s.code() != hart::common::Status::kOk || got != value_of(k, 0))
      ++svc->errors;
  }
  if (!svc->db->reopened() || svc->recovered != preloaded) ++svc->errors;
  pay_device_time(svc->db.get());
  return svc;
}

// ---- one measured pass ------------------------------------------------------

struct ShardTotals {
  uint64_t ops = 0, write_acks = 0, batches = 0, epochs = 0, device_ns = 0;
  uint64_t max_shard_ops = 0;
  uint64_t fastpath = 0;
  static ShardTotals read(const Hartd& db) {
    ShardTotals t;
    for (size_t i = 0; i < db.shard_count(); ++i) {
      const auto& st = db.shard(i).stats();
      t.ops += st.ops.load();
      t.write_acks += st.write_acks.load();
      t.batches += st.batches.load();
      t.epochs += st.epochs.load();
      t.device_ns += st.device_ns.load();
    }
    t.fastpath = db.fastpath_reads();
    return t;
  }
};

struct Pass {
  std::vector<double> setup_s, recovery_s;
  uint64_t recovered = 0;
  WindowedLatency open_lat;
  std::vector<double> kops;  // closed-loop throughput per window
  uint64_t attempted = 0, failed = 0;
  // Closed-loop layer accounting.
  uint64_t closed_ops = 0, closed_gets = 0, closed_misses = 0;
  ShardTotals shard;       // deltas
  Counters ctr;
  hart::pmem::StatsSnapshot pm;  // deltas, summed over arenas
  uint64_t cpu_ns = 0;
  // Open-loop stage histograms, merged over shards.
  hart::server::ShardHistograms hist;
  std::vector<uint64_t> late_ns, probe_search_ns, probe_submit_ns, open_get_ns;
  double pm_per_key = 0, dram_per_key = 0;
  uint64_t live_keys = 0;
};

hart::pmem::StatsSnapshot pm_sum(const Hartd& db) {
  hart::pmem::StatsSnapshot s;
  for (size_t i = 0; i < db.shard_count(); ++i) {
    const auto a = db.shard(i).arena().stats().snapshot();
    s.persist_calls += a.persist_calls;
    s.persisted_bytes += a.persisted_bytes;
    s.pm_read_lines += a.pm_read_lines;
    s.injected_ns += a.injected_ns;
    s.pm_block_bytes += a.pm_block_bytes;
  }
  return s;
}

Pass run_pass(const Spec& spec, Inputs* in, const Args& a, double open_s,
              double closed_s, size_t reps, bool trace) {
  Pass out;
  std::unique_ptr<Service> svc;
  for (size_t rep = 0; rep < reps; ++rep) {
    svc.reset();
    svc = spec.tcp ? setup_zipf(*in, a.tmpdir + "/perfbench-" +
                                         std::to_string(::getpid()))
                   : setup_churn(*in);
    out.setup_s.push_back(svc->setup_s);
    out.recovery_s.push_back(svc->recovery_s);
    out.failed += svc->errors;
  }
  out.recovered = svc->recovered;
  Hartd& db = *svc->db;
  in->model.reset_acked();
  {
    std::vector<std::unique_ptr<Conn>> conns;
    for (size_t c = 0; c < kClients; ++c)
      conns.push_back(std::make_unique<Conn>(
          &db, svc->tcp ? svc->tcp->port() : 0, in->streams[c], *in,
          &in->model, trace));
    auto each = [&conns](auto fn) {
      std::vector<std::thread> th;
      for (size_t c = 0; c < conns.size(); ++c)
        th.emplace_back([&, c] { fn(c, *conns[c]); });
      for (auto& t : th) t.join();
      for (auto& c : conns) c->wait_idle();
    };

    // Phase 1: open loop.
    const uint64_t open_start = now_ns() + 1000000;
    const uint64_t open_ns = static_cast<uint64_t>(open_s * 1e9);
    const size_t open_w = std::max<size_t>(5, open_s / kWindowS);
    out.open_lat = WindowedLatency(open_w);
    each([&](size_t c, Conn& conn) {
      conn.run_open(open_start, in->schedule[c]);
    });
    for (auto& conn : conns) {
      for (const Rec& r : conn->take_recs()) {
        const size_t w = std::min<size_t>(
            open_w - 1, (r.t0 - open_start) * open_w / open_ns);
        out.open_lat.w[w][r.type].push_back(r.dt);
        if (r.type == kGet) out.open_get_ns.push_back(r.dt);
      }
    }
    for (size_t i = 0; i < db.shard_count(); ++i) {
      const auto h = db.shard(i).histograms();
      for (size_t t = 0; t < kOpTypes; ++t) out.hist.op[t].merge(h.op[t]);
      out.hist.fence.merge(h.fence);
      out.hist.queue_wait.merge(h.queue_wait);
      out.hist.batch_residency.merge(h.batch_residency);
      out.hist.fence_wait.merge(h.fence_wait);
    }

    // Phase 2: closed loop.
    uint64_t gets0 = 0, misses0 = 0, probes0 = 0;
    for (auto& conn : conns) {
      gets0 += conn->gets.load();
      misses0 += conn->misses.load();
      probes0 += conn->probe_submit_ns_.size();
    }
    std::vector<uint64_t> shard_ops0(db.shard_count());
    for (size_t i = 0; i < db.shard_count(); ++i)
      shard_ops0[i] = db.shard(i).stats().ops.load();
    const ShardTotals st0 = ShardTotals::read(db);
    const Counters c0 = Counters::read();
    const auto pm0 = pm_sum(db);
    const uint64_t cpu0 = process_cpu_ns();
    const uint64_t closed_start = now_ns();
    const uint64_t closed_ns = static_cast<uint64_t>(closed_s * 1e9);
    const size_t closed_w = std::max<size_t>(5, closed_s / kWindowS);
    each([&](size_t, Conn& conn) {
      conn.run_closed(closed_start + closed_ns, spec.window);
    });
    out.cpu_ns = process_cpu_ns() - cpu0;
    out.ctr = Counters::read() - c0;
    const ShardTotals st1 = ShardTotals::read(db);
    const auto pm1 = pm_sum(db);
    out.shard = {st1.ops - st0.ops, st1.write_acks - st0.write_acks,
                 st1.batches - st0.batches, st1.epochs - st0.epochs,
                 st1.device_ns - st0.device_ns, 0, st1.fastpath - st0.fastpath};
    for (size_t i = 0; i < db.shard_count(); ++i) {
      const uint64_t d = db.shard(i).stats().ops.load() - shard_ops0[i];
      out.shard.max_shard_ops = std::max(out.shard.max_shard_ops, d);
    }
    out.pm.persist_calls = pm1.persist_calls - pm0.persist_calls;
    out.pm.persisted_bytes = pm1.persisted_bytes - pm0.persisted_bytes;
    out.pm.pm_read_lines = pm1.pm_read_lines - pm0.pm_read_lines;
    out.pm.injected_ns = pm1.injected_ns - pm0.injected_ns;
    std::vector<uint64_t> per_window(closed_w, 0);
    uint64_t probes1 = 0;
    for (auto& conn : conns) {
      for (const Rec& r : conn->take_recs()) {
        ++out.closed_ops;
        if (r.t1() < closed_start + closed_ns)
          ++per_window[(r.t1() - closed_start) * closed_w / closed_ns];
      }
      out.closed_gets += conn->gets.load();
      out.closed_misses += conn->misses.load();
      probes1 += conn->probe_submit_ns_.size();
      out.attempted += conn->sent.load();
      out.failed += conn->errors.load();
      out.late_ns.insert(out.late_ns.end(), conn->late_ns_.begin(),
                         conn->late_ns_.end());
      out.probe_search_ns.insert(out.probe_search_ns.end(),
                                 conn->probe_search_ns_.begin(),
                                 conn->probe_search_ns_.end());
      out.probe_submit_ns.insert(out.probe_submit_ns.end(),
                                 conn->probe_submit_ns_.begin(),
                                 conn->probe_submit_ns_.end());
    }
    out.closed_gets -= gets0;
    out.closed_misses -= misses0;
    out.shard.fastpath -= probes1 - probes0;
    for (const uint64_t n : per_window)
      out.kops.push_back(static_cast<double>(n) /
                         (static_cast<double>(closed_ns) / closed_w / 1e9) /
                         1e3);
  }

  // Final state: every key must hold its newest acked state.
  std::string got;
  for (uint32_t k = 0; k < in->keys.size(); ++k) {
    const std::string& key = in->keys[k];
    const uint32_t s = in->model.acked(k);
    const auto st = db.shard(db.shard_of(key)).hart().search(key, &got);
    const bool ok = in->model.present(k, s)
                        ? st.code() == hart::common::Status::kOk &&
                              got == value_of(k, s)
                        : st.code() == hart::common::Status::kNotFound;
    if (!ok && out.failed++ < 5)
      std::fprintf(stderr, "perfbench: final state of key '%s' is wrong\n",
                   key.c_str());
  }
  out.attempted += in->keys.size();
  out.live_keys = db.total_size();
  uint64_t dram = 0;
  for (size_t i = 0; i < db.shard_count(); ++i)
    dram += db.shard(i).hart().memory_usage().dram_bytes;
  const double live = static_cast<double>(out.live_keys);
  out.pm_per_key = static_cast<double>(pm_sum(db).pm_block_bytes) / live;
  out.dram_per_key = static_cast<double>(dram) / live;
  return out;
}

}  // namespace

Result run_service(const Args& a) {
  const Spec& spec = a.workload == kChurn.name ? kChurn : kZipf;
  // Both passes of a traced run get half the time; phases split it evenly.
  const double pass_s = a.trace ? a.seconds / 2 : a.seconds;
  Inputs in = make_inputs(spec, a.seed, pass_s / 2, pass_s / 2);

  Result r;
  r.note("shards", std::to_string(kShards));
  r.note("batch", std::to_string(kBatch));
  r.note("arena_mb_per_shard", std::to_string(kArenaMb));
  r.note("latency_model", "deferred, one sleep per batch (hartd default)");
  r.note("transport", spec.tcp ? "tcp loopback" : "in-process");
  r.note("clients", std::to_string(kClients));
  r.note("preloaded_keys", std::to_string(spec.keys));
  r.note(spec.tcp ? "never_inserted_keys" : "fresh_keys",
         std::to_string(spec.extra_keys));
  r.note("value_bytes", "16");
  r.note("open_loop_rate_ops", std::to_string(static_cast<long>(spec.open_rate)));
  r.note("closed_loop_window", std::to_string(spec.window));
  {
    Hartd probe(service_options(""));
    r.note("alloc_kind", probe.shard(0).hart().allocator().kind_name());
    r.note("alloc_stripes",
           std::to_string(probe.shard(0).hart().allocator().stripe_count()));
  }

  if (!a.trace) {
    Pass p = run_pass(spec, &in, a, pass_s / 2, pass_s / 2, kSetupReps, false);
    r.attempted = p.attempted;
    r.failed = p.failed;
    r.add("setup_s", median(p.setup_s), "s", p.setup_s.size());
    if (spec.tcp)
      r.add("recovery_s", median(p.recovery_s), "s", p.recovery_s.size());
    r.add("throughput_kops", median(p.kops), "kops", p.kops.size());
    add_latency_metrics(&p.open_lat, &r);
    r.add("pm_bytes_per_key", p.pm_per_key, "B", p.live_keys);
    r.add("dram_bytes_per_key", p.dram_per_key, "B", p.live_keys);
    r.note("open_loop_gen_late_us_p99",
           std::to_string(percentile(&p.late_ns, 99) / 1e3));
    return r;
  }

  Pass base = run_pass(spec, &in, a, pass_s / 2, pass_s / 2, 1, false);
  Pass p = run_pass(spec, &in, a, pass_s / 2, pass_s / 2, 1, true);
  r.attempted = base.attempted + p.attempted;
  r.failed = base.failed + p.failed;
  const double ops = static_cast<double>(p.closed_ops);
  const double gets = static_cast<double>(p.closed_gets);
  const double misses = static_cast<double>(p.closed_misses);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double search_p50 = percentile(&p.probe_search_ns, 50) / 1e3;
  r.add("server.wire_us_p50.get",
        percentile(&p.open_get_ns, 50) / 1e3 - search_p50, "us",
        p.open_get_ns.size());
  r.add("server.submit_us_p50.get", percentile(&p.probe_submit_ns, 50) / 1e3,
        "us", p.probe_submit_ns.size());
  const auto& h = p.hist;
  r.add("server.queue_wait_us_p50", hist_pct_us(h.queue_wait, 50), "us",
        h.queue_wait.count());
  r.add("server.queue_wait_us_p99", hist_pct_us(h.queue_wait, 99), "us",
        h.queue_wait.count());
  r.add("server.batch_residency_us_p50", hist_pct_us(h.batch_residency, 50),
        "us", h.batch_residency.count());
  r.add("server.batch_residency_us_p99", hist_pct_us(h.batch_residency, 99),
        "us", h.batch_residency.count());
  r.add("server.fence_wait_us_p50", hist_pct_us(h.fence_wait, 50), "us",
        h.fence_wait.count());
  r.add("server.fence_wait_us_p99", hist_pct_us(h.fence_wait, 99), "us",
        h.fence_wait.count());
  r.add("server.fence_us_p50", hist_pct_us(h.fence, 50), "us",
        h.fence.count());
  r.add("server.batch_occupancy",
        ratio(double(p.shard.write_acks), double(p.shard.batches)), "count",
        p.shard.batches);
  r.add("server.fences_per_kop", double(p.shard.epochs) * 1e3 / ops, "count",
        p.closed_ops);
  for (size_t t = 0; t < kOpTypes; ++t) {
    // Fast-path gets never enter a shard queue; their apply time is the
    // direct Hart::search probe.
    const bool probe_get = t == kGet && h.op[t].count() == 0;
    r.add(std::string("server.apply_us_p50.") + op_name(t),
          probe_get ? search_p50 : hist_pct_us(h.op[t], 50), "us",
          probe_get ? p.probe_search_ns.size() : h.op[t].count());
    double cpu_ns = probe_get ? 0.0 : h.op[t].mean_ns();
    if (probe_get && !p.probe_search_ns.empty())
      cpu_ns = std::accumulate(p.probe_search_ns.begin(),
                               p.probe_search_ns.end(), 0.0) /
               double(p.probe_search_ns.size());
    // Deferred-latency arenas bank device time instead of spinning, so a
    // timed apply is Hart CPU time.
    r.add(std::string("hart.cpu_ns_per_op.") + op_name(t), cpu_ns, "ns",
          probe_get ? p.probe_search_ns.size() : h.op[t].count());
  }
  r.add("server.hot_shard_share",
        ratio(double(p.shard.max_shard_ops), double(p.shard.ops)), "ratio",
        p.shard.ops);
  r.add("server.fastpath_read_share", ratio(double(p.shard.fastpath), gets),
        "ratio", p.closed_gets);
  r.add("server.device_us_per_op", double(p.shard.device_ns) / 1e3 / ops, "us",
        p.closed_ops);
  r.add("proc.cpu_us_per_op", double(p.cpu_ns) / 1e3 / ops, "us",
        p.closed_ops);
  if (spec.tcp) {
    // Only this workload asks for never-inserted keys; churn misses are
    // gets racing a delete.
    r.add("hart.fp_skip_ratio", ratio(p.ctr.at(Counters::kFpSkip), misses),
          "ratio", p.closed_misses);
    r.add("hart.fp_false_positives_per_kmiss",
          ratio(p.ctr.at(Counters::kFpFalsePositive) * 1e3, misses), "count",
          p.closed_misses);
    r.add("hart.recovered_keys_per_s",
          double(p.recovered) / median(p.recovery_s), "1/s", p.recovered);
  }
  r.add("art.optimistic_retries_per_kget",
        ratio(p.ctr.at(Counters::kOptRetry) * 1e3, gets), "count",
        p.closed_gets);
  r.add("art.read_fallbacks_per_kget",
        ratio(p.ctr.at(Counters::kReadFallback) * 1e3, gets), "count",
        p.closed_gets);
  r.add("art.simd_cmps_per_get", ratio(p.ctr.at(Counters::kSimdCmp), gets),
        "count", p.closed_gets);
  r.add("epalloc.meta_persists_per_op", p.ctr.at(Counters::kMetaPersists) / ops,
        "count", p.closed_ops);
  r.add("epalloc.stripe_steals_per_kop",
        p.ctr.at(Counters::kStripeSteals) * 1e3 / ops, "count", p.closed_ops);
  r.add("epalloc.meta_flush_batches_per_kop",
        p.ctr.at(Counters::kMetaFlushBatches) * 1e3 / ops, "count",
        p.closed_ops);
  r.add("pmem.persists_per_op.all", double(p.pm.persist_calls) / ops, "count",
        p.closed_ops);
  r.add("pmem.persisted_bytes_per_op.all", double(p.pm.persisted_bytes) / ops,
        "B", p.closed_ops);
  r.add("pmem.read_lines_per_op.all", double(p.pm.pm_read_lines) / ops,
        "count", p.closed_ops);
  r.add("pmem.injected_ns_per_op.all", double(p.pm.injected_ns) / ops, "ns",
        p.closed_ops);
  r.add("common.ebr_deferred_frees_per_kop",
        p.ctr.at(Counters::kEbrDeferredFree) * 1e3 / ops, "count",
        p.closed_ops);
  r.add("bench.gen_late_us_p99", percentile(&p.late_ns, 99) / 1e3, "us",
        p.late_ns.size());
  const double base_kops = median(base.kops);
  r.add("bench.trace_overhead_pct", (base_kops - median(p.kops)) / base_kops * 100,
        "%", p.kops.size());
  return r;
}

}  // namespace perfbench
