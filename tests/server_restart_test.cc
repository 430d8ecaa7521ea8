// hartd crash-safety: the service's contract is "acked => durable".
// Covers (1) graceful restart on file-backed shard arenas, (2) a simulated
// crash point firing inside a shard worker mid-batch (shadow-arena
// rollback + per-shard recovery), (3) a real SIGKILL of a forked
// child process followed by restart on its arena files, and (4) a shard
// arena of an older on-media format, which the open refuses.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "hart/hart.h"
#include "legacy_image.h"
#include "server/client.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HART_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HART_SANITIZED 1
#endif
#endif

namespace hart::server {
namespace {

/// Fresh private directory for this test's shard arena files.
std::string make_test_dir(const char* tag) {
  std::string tmpl = testing::TempDir() + "hart_restart_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* d = ::mkdtemp(buf.data());
  EXPECT_NE(d, nullptr);
  return d != nullptr ? std::string(d) : std::string();
}

Hartd::Options file_backed_opts(const std::string& dir, size_t shards) {
  Hartd::Options o;
  o.shards = shards;
  o.arena_mb = 32;
  o.arena_dir = dir;
  return o;
}

TEST(RestartTest, OlderFormatShardIsRefusedWithATypedStatus) {
  const std::string dir = make_test_dir("format");
  const size_t bytes = testutil::write_legacy_image(dir + "/shard-0.arena");
  Hartd::Options o = file_backed_opts(dir, 1);
  o.arena_mb = bytes >> 20;
  try {
    Hartd db(o);
    ADD_FAILURE() << "hartd opened a format-0 shard arena";
  } catch (const core::FormatError& e) {
    EXPECT_EQ(e.status(), common::Status::kUnsupportedFormat);
    EXPECT_EQ(e.found_format(), 0u);
  }
  std::remove((dir + "/shard-0.arena").c_str());
  ::rmdir(dir.c_str());
}

TEST(RestartTest, GracefulRestartRecoversEveryShard) {
  const std::string dir = make_test_dir("graceful");
  constexpr int kKeys = 1000;
  {
    Hartd db(file_backed_opts(dir, 3));
    EXPECT_FALSE(db.reopened());
    Client cl(db);
    std::deque<uint64_t> ids;
    for (int i = 0; i < kKeys; ++i)
      ids.push_back(cl.send(
          {OpCode::kPut, "rk-" + std::to_string(i), "val-" + std::to_string(i)}));
    for (const uint64_t id : ids)
      EXPECT_TRUE(is_acked_write(cl.wait(id).status));
    db.shutdown();
  }
  {
    Hartd::Options o = file_backed_opts(dir, 3);
    o.check = true;  // recovery replay must be PMCheck-clean too
    Hartd db(o);
    EXPECT_TRUE(db.reopened());
    EXPECT_EQ(db.total_size(), static_cast<size_t>(kKeys));
    Client cl(db);
    for (int i = 0; i < kKeys; ++i) {
      const Response r = cl.get("rk-" + std::to_string(i));
      EXPECT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.value, "val-" + std::to_string(i));
    }
    // The restarted service accepts new writes.
    EXPECT_EQ(cl.put("post-restart", "v").status, Status::kOk);
    db.shutdown();
    for (size_t i = 0; i < db.shard_count(); ++i)
      EXPECT_EQ(db.shard(i).arena().pm_report().total(), 0u);
  }
}

TEST(RestartTest, CrashPointMidBatchKeepsAckedWrites) {
  Hartd::Options o;
  o.shards = 1;
  o.arena_mb = 32;
  o.shadow = true;  // crash simulation needs the shadow copy
  Hartd db(o);
  Client cl(db);

  // Establish an acked baseline (each write waited to completion, so its
  // batch's epoch fence — the durability point under batched metadata
  // persists — has run), then arm a crash a few persists ahead while a
  // pipelined burst is in flight.
  std::set<std::string> acked;
  for (int i = 0; i < 50; ++i) {
    const std::string k = "pre-" + std::to_string(i);
    ASSERT_TRUE(is_acked_write(cl.put(k, "v").status));
    acked.insert(k);
  }
  struct Sent {
    uint64_t id;
    std::string key;
  };
  std::vector<Sent> sent;
  db.shard(0).arena().arm_crash_after(40);
  for (int i = 0; i < 200; ++i) {
    const std::string k = "burst-" + std::to_string(i);
    sent.push_back({cl.send({OpCode::kPut, k, "v"}), k});
  }

  size_t failed = 0;
  for (const auto& s : sent) {
    const Response r = cl.wait(s.id);
    if (is_acked_write(r.status)) {
      acked.insert(s.key);
    } else {
      EXPECT_TRUE(r.status == Status::kShardFailed ||
                  r.status == Status::kShuttingDown)
          << status_name(r.status);
      ++failed;
    }
  }
  ASSERT_TRUE(db.shard(0).failed()) << "crash point never fired";
  EXPECT_GT(failed, 0u);
  EXPECT_FALSE(acked.empty());

  // Simulate the crash (unflushed lines are lost), recover the shard's
  // HART from PM, and verify the acked set — the service's contract.
  db.shutdown();
  db.shard(0).arena().crash();
  db.shard(0).hart().recover();
  std::string v;
  for (const auto& key : acked)
    EXPECT_EQ(db.shard(0).hart().search(key, &v), common::Status::kOk)
        << "acked write lost: " << key;
}

TEST(RestartTest, SigkillThenRestartLosesNoAckedWrite) {
#ifdef HART_SANITIZED
  GTEST_SKIP() << "fork + SIGKILL interplay is noisy under sanitizers; "
                  "tools/svc_smoke.sh covers the real-process path";
#else
  const std::string dir = make_test_dir("sigkill");
  const std::string log_path = dir + "/acked.log";
  constexpr int kAckedBeforeKill = 400;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: file-backed service; log each key only AFTER its ack, then
    // die without any cleanup. One write(2) per line, O_APPEND — the log
    // is a subset of the acked set even at the instant of death.
    Hartd db(file_backed_opts(dir, 2));
    FILE* log = std::fopen(log_path.c_str(), "a");
    if (log == nullptr) ::_exit(3);
    ::setvbuf(log, nullptr, _IONBF, 0);
    for (int i = 0; i < kAckedBeforeKill; ++i) {
      const std::string key = "sk-" + std::to_string(i);
      const Response r = db.execute({OpCode::kPut, key, "v"});
      if (!is_acked_write(r.status)) ::_exit(4);
      std::fprintf(log, "%s\n", key.c_str());
    }
    ::kill(::getpid(), SIGKILL);  // no drain, no shutdown, no msync
    ::_exit(5);                   // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited with " << status << " instead of dying by SIGKILL";

  // Restart on the child's arena files and replay its acked log.
  Hartd::Options o = file_backed_opts(dir, 2);
  o.check = true;
  Hartd db(o);
  EXPECT_TRUE(db.reopened());
  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open());
  Client cl(db);
  std::string key;
  int replayed = 0;
  while (std::getline(log, key)) {
    if (key.empty()) continue;
    const Response r = cl.get(key);
    EXPECT_EQ(r.status, Status::kOk) << "acked write lost: " << key;
    EXPECT_EQ(r.value, "v");
    ++replayed;
  }
  EXPECT_EQ(replayed, kAckedBeforeKill);
  db.shutdown();
  for (size_t i = 0; i < db.shard_count(); ++i)
    EXPECT_EQ(db.shard(i).arena().pm_report().total(), 0u);
#endif
}

}  // namespace
}  // namespace hart::server
