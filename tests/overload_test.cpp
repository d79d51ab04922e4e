// Overload-protection lane (docs/OVERLOAD.md): bounded admission, typed
// shed with retry-after hints, and graceful brownout across the stack —
// the AdmissionGate in isolation, the admit_* spec keys on real
// strategies, the loop host's shard budgets under 2x saturation and its
// run-queue backstop, and the HTTP server's 503 + Retry-After shed path.
//
// Ordering note: the shard-budget saturation fixture is defined FIRST in
// this file because it must set AFS_LOOP_MAX_QUEUE_BYTES before anything
// instantiates the process-wide loop host (gtest runs suites in
// definition order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "afs.hpp"
#include "common/faultpoint.hpp"
#include "core/loop_host.hpp"
#include "core/overload.hpp"
#include "net/http_server.hpp"
#include "test_util.hpp"

namespace afs {
namespace {

using core::AdmissionGate;
using core::OverloadPolicy;
using sentinel::SentinelSpec;
using test::TempDir;

// ---- shard budgets under 2x saturation (must run first; see header) -------

TEST(LoopSaturationTest, ShardBudgetShedsUnderSaturationAndDrainsToZero) {
  // A shard byte budget of 1 admits any op into an EMPTY gate (oversized
  // ops are never unservable) but sheds every op that finds another one
  // resident — so hammering many sessions concurrently MUST shed, and
  // every shed must carry kOverloaded, never a hang or a poisoned handle.
  ASSERT_EQ(::setenv("AFS_LOOP_MAX_QUEUE_BYTES", "1", 1), 0);

  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "loop";
  ASSERT_OK(manager.CreateActiveFile("sat.af", spec,
                                     AsBytes("0123456789abcdef")));

  obs::Counter& shed_counter =
      obs::Registry::Global().GetCounter("core.overload.shed");
  obs::Gauge& queue_bytes =
      obs::Registry::Global().GetGauge("core.overload.queue_bytes");
  const std::uint64_t shed_before = shed_counter.Value();

  // 2x saturation: twice as many concurrent sessions as a budget of
  // "one resident op per shard" can ever serve simultaneously.
  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 200;
  std::atomic<std::uint64_t> ok_ops{0};
  std::atomic<std::uint64_t> shed_ops{0};
  std::atomic<std::uint64_t> other_ops{0};
  // Open the sessions sequentially (a lone op always fits an empty gate),
  // then saturate them concurrently.
  std::vector<vfs::HandleId> handles;
  for (int t = 0; t < kThreads; ++t) {
    auto handle = api.OpenFile("sat.af", vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    handles.push_back(*handle);
  }
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Buffer out(4);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Status status =
            api.ReadFile(handles[t], MutableByteSpan(out)).status();
        if (status.ok()) {
          ok_ops.fetch_add(1);
        } else if (status.code() == ErrorCode::kOverloaded) {
          shed_ops.fetch_add(1);
          // Every shed advertises when to come back.
          EXPECT_GT(RetryAfterHintMs(status), 0) << status.ToString();
        } else {
          other_ops.fetch_add(1);
          ADD_FAILURE() << "unexpected op failure: " << status.ToString();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (vfs::HandleId handle : handles) EXPECT_OK(api.CloseHandle(handle));

  // Saturation was handled, not queued: work was admitted, work was shed,
  // and nothing failed with a non-overload code.
  EXPECT_GT(ok_ops.load(), 0u);
  EXPECT_GT(shed_counter.Value(), shed_before);
  EXPECT_EQ(other_ops.load(), 0u);
  EXPECT_EQ(ok_ops.load() + shed_ops.load(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Admission accounting drains to zero once the storm passes: the
  // core.overload.queue_bytes gauge is exactly admitted-minus-released.
  EXPECT_EQ(queue_bytes.Value(), 0);
  EXPECT_EQ(api.open_handle_count(), 0u);
  ASSERT_EQ(::unsetenv("AFS_LOOP_MAX_QUEUE_BYTES"), 0);
}

// ---- AdmissionGate in isolation --------------------------------------------

TEST(AdmissionGateTest, InflightCapShedsThenRecoversOnRelease) {
  AdmissionGate gate({.max_inflight = 2});
  ASSERT_OK(gate.Admit(10));
  ASSERT_OK(gate.Admit(10));
  const Status third = gate.Admit(10);
  EXPECT_STATUS_CODE(third, ErrorCode::kOverloaded);
  EXPECT_GT(RetryAfterHintMs(third), 0);
  EXPECT_EQ(gate.inflight(), 2);
  gate.Release(10);
  EXPECT_OK(gate.Admit(10));
  gate.Release(10);
  gate.Release(10);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.queue_bytes(), 0u);
}

TEST(AdmissionGateTest, QueueByteCapShedsButNeverStrandsAnOversizedOp) {
  AdmissionGate gate({.max_queue_bytes = 100});
  // An op larger than the whole budget admits into an empty gate —
  // otherwise it could never run at all.
  ASSERT_OK(gate.Admit(500));
  EXPECT_EQ(gate.queue_bytes(), 500u);
  // But nothing else fits while it is resident.
  EXPECT_STATUS_CODE(gate.Admit(1), ErrorCode::kOverloaded);
  gate.Release(500);
  ASSERT_OK(gate.Admit(60));
  EXPECT_STATUS_CODE(gate.Admit(60), ErrorCode::kOverloaded);  // 120 > 100
  gate.Release(60);
  EXPECT_EQ(gate.queue_bytes(), 0u);
}

TEST(AdmissionGateTest, RateLimitShedsWithRetryHintAndWithoutDebiting) {
  AdmissionGate gate({.rate_bytes_per_second = 1000, .burst_bytes = 128});
  ASSERT_OK(gate.Admit(100));  // burst absorbs it
  const Status shed = gate.Admit(100);
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  // 100 bytes at 1000 B/s is ~100ms away; the hint says so (>= 1ms).
  EXPECT_GE(RetryAfterHintMs(shed), 1);
  gate.Release(100);
}

TEST(AdmissionGateTest, AdmitForBlocksUntilCapacityFrees) {
  AdmissionGate gate({.max_inflight = 1});
  ASSERT_OK(gate.Admit(8));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.Release(8);
  });
  // kBlock semantics: the waiter rides out the occupancy instead of
  // shedding, bounded by its deadline.
  EXPECT_OK(gate.AdmitFor(8, Micros{5'000'000}));
  releaser.join();
  gate.Release(8);
  EXPECT_EQ(gate.inflight(), 0);
}

TEST(AdmissionGateTest, AdmitForShedsWhenTheDeadlineExpires) {
  AdmissionGate gate({.max_inflight = 1});
  ASSERT_OK(gate.Admit(8));
  const Status shed = gate.AdmitFor(8, Micros{20'000});
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  EXPECT_GT(RetryAfterHintMs(shed), 0);
  gate.Release(8);
}

TEST(AdmitWithPolicyTest, PoliciesShapeTheWait) {
  AdmissionGate gate({.max_inflight = 1});
  ASSERT_OK(gate.Admit(8));
  // kShed fails immediately; kBrownout sheds after its short grace.
  EXPECT_STATUS_CODE(
      core::AdmitWithPolicy(gate, 8, OverloadPolicy::kShed, Micros{0}),
      ErrorCode::kOverloaded);
  EXPECT_STATUS_CODE(
      core::AdmitWithPolicy(gate, 8, OverloadPolicy::kBrownout, Micros{0}),
      ErrorCode::kOverloaded);
  // kBlock waits out the occupancy (released from another thread).
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.Release(8);
  });
  EXPECT_OK(core::AdmitWithPolicy(gate, 8, OverloadPolicy::kBlock,
                                  Micros{5'000'000}));
  releaser.join();
  gate.Release(8);
}

// ---- the loop shard's run-queue backstop -----------------------------------

// Opens one null-sentinel session on `host`'s shard 0 and collects its
// banner.
std::shared_ptr<core::LoopSession> OpenNullSession(core::LoopHost& host) {
  SentinelSpec spec;
  spec.name = "null";
  auto sent = sentinel::SentinelRegistry::Global().Create(spec);
  EXPECT_OK(sent.status());
  if (!sent.ok()) return nullptr;
  core::CacheAssembly cache;
  cache.mode = core::CacheMode::kMemory;
  cache.store = std::make_unique<sentinel::MemoryDataStore>(
      Buffer{'a', 'b', 'c', 'd'});
  auto session = host.Open(std::move(*sent), sentinel::SentinelContext{},
                           std::move(cache), /*shard_pin=*/0,
                           /*response_timeout=*/Micros{5'000'000},
                           /*heartbeat_interval=*/Micros{0}, nullptr);
  EXPECT_OK(session.status());
  if (!session.ok()) return nullptr;
  auto banner = (*session)->AF_GetResponse();
  EXPECT_OK(banner.status());
  if (!banner.ok()) return nullptr;
  EXPECT_OK(banner->status);
  return *session;
}

sentinel::ControlMessage SizeCommand() {
  sentinel::ControlMessage message;
  message.op = sentinel::ControlOp::kGetSize;
  return message;
}

TEST(LoopQueueLimitTest, FullRunQueueShedsAndTheSessionServesItsNextOp) {
  // A private host: the global one reads AFS_LOOP_QUEUE_LIMIT only once.
  // One shard whose run queue holds a single posted task.
  core::LoopHost host(1, core::EventLoop::Options{.queue_limit = 1});
  sentinels::RegisterBuiltinSentinels();
  auto busy = OpenNullSession(host);
  auto queued = OpenNullSession(host);
  auto shed = OpenNullSession(host);
  ASSERT_TRUE(busy && queued && shed);
  obs::Gauge& queue_bytes =
      obs::Registry::Global().GetGauge("core.overload.queue_bytes");

  // Hold the shard inside the first command (a delay, never a crash) ...
  auto plan = fault::ParsePlan("seed=1;core.loop.crash=delay:300ms@n1");
  ASSERT_OK(plan.status());
  fault::ScopedFaultPlan scoped(std::move(*plan));
  ASSERT_OK(busy->AF_SendControl(SizeCommand()));
  ASSERT_TRUE(test::PollUntil([] { return fault::TriggeredCount() >= 1; }));
  // ... so the second command fills the run queue and the third finds it
  // full: a typed shed with a retry hint, before anything was posted.
  ASSERT_OK(queued->AF_SendControl(SizeCommand()));
  const Status full = shed->AF_SendControl(SizeCommand());
  EXPECT_STATUS_CODE(full, ErrorCode::kOverloaded);
  EXPECT_GE(RetryAfterHintMs(full), 1) << full.ToString();

  for (auto* session : {busy.get(), queued.get()}) {
    auto answer = session->AF_GetResponse();
    ASSERT_OK(answer.status());
    EXPECT_EQ(answer->number, 4u);
  }
  // The shed undid its slot claim: the same session serves its next op.
  ASSERT_OK(shed->AF_SendControl(SizeCommand()));
  auto answer = shed->AF_GetResponse();
  ASSERT_OK(answer.status());
  EXPECT_EQ(answer->number, 4u);
  // Every charge, the shed one included, went back to the shard gate.
  EXPECT_EQ(queue_bytes.Value(), 0);
  for (auto* session : {busy.get(), queued.get(), shed.get()}) {
    session->Shutdown();
  }
}

// ---- spec plumbing ---------------------------------------------------------

TEST(OverloadSpecTest, PolicyNamesRoundTrip) {
  for (auto policy : {OverloadPolicy::kShed, OverloadPolicy::kBrownout,
                      OverloadPolicy::kBlock}) {
    auto parsed =
        core::ParseOverloadPolicy(core::OverloadPolicyName(policy));
    ASSERT_OK(parsed.status());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(core::ParseOverloadPolicy("panic").ok());
}

TEST(OverloadSpecTest, SpecKeysParseIntoLimits) {
  std::map<std::string, std::string> config;
  config["admit_queue_bytes"] = "4096";
  config["admit_inflight"] = "3";
  config["admit_bps"] = "1000000";
  config["admit_burst"] = "8192";
  config["overload"] = "brownout";
  const AdmissionGate::Limits limits = core::AdmissionLimitsFromSpec(config);
  EXPECT_EQ(limits.max_queue_bytes, 4096u);
  EXPECT_EQ(limits.max_inflight, 3);
  EXPECT_EQ(limits.rate_bytes_per_second, 1'000'000u);
  EXPECT_EQ(limits.burst_bytes, 8192u);
  EXPECT_TRUE(core::AdmissionConfigured(limits));
  EXPECT_FALSE(core::AdmissionConfigured(AdmissionGate::Limits{}));
  auto policy =
      core::OverloadPolicyFromSpec(config, OverloadPolicy::kShed);
  ASSERT_OK(policy.status());
  EXPECT_EQ(*policy, OverloadPolicy::kBrownout);
}

TEST(RetryAfterTagTest, HintSurvivesTheStatusMessage) {
  const Status status = OverloadedError("busy", 250);
  EXPECT_EQ(status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(RetryAfterHintMs(status), 250);
  EXPECT_EQ(RetryAfterHintMs(OverloadedError("no hint")), 0);
  EXPECT_EQ(RetryAfterHintMs(Status::Ok()), 0);
}

// ---- admit_* keys on real strategies ---------------------------------------

// Token-bucket admission on a link: the burst admits exactly one small op,
// so the second op in a tight loop is deterministically shed with a
// retry-after hint — and the handle keeps serving once the bucket refills
// (sheds never poison).
void RunRateLimitedStrategy(const char* strategy) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = strategy;
  spec.config["admit_bps"] = "1000";
  spec.config["admit_burst"] = "128";  // one ~68-byte read, not two
  spec.config["overload"] = "shed";
  const std::string name = std::string(strategy) + "-rate.af";
  ASSERT_OK(manager.CreateActiveFile(name, spec, AsBytes("0123456789abcdef")));

  auto handle = api.OpenFile(name, vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  Buffer out(4);
  // The burst covers roughly one ~68-byte op (open-path traffic may have
  // taken a bite already), so a tight loop of reads must starve the
  // bucket within a few iterations — refill at 1 KB/s is no match.
  Status shed = Status::Ok();
  for (int i = 0; i < 50 && shed.ok(); ++i) {
    shed = api.ReadFile(*handle, MutableByteSpan(out)).status();
  }
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  EXPECT_GE(RetryAfterHintMs(shed), 1) << shed.ToString();
  // The shed is transient by contract: once the bucket refills, the same
  // handle serves again.
  ASSERT_TRUE(test::PollUntil([&] {
    return api.ReadFile(*handle, MutableByteSpan(out)).status().ok();
  }));
  ASSERT_OK(api.CloseHandle(*handle));
  EXPECT_EQ(api.open_handle_count(), 0u);
}

TEST(StrategyAdmissionTest, ThreadLinkShedsOnRateBudget) {
  RunRateLimitedStrategy("thread");
}

TEST(StrategyAdmissionTest, LoopLinkShedsOnRateBudget) {
  RunRateLimitedStrategy("loop");
}

TEST(StrategyAdmissionTest, ProcessControlLinkShedsOnRateBudget) {
  RunRateLimitedStrategy("process_control");
}

TEST(StrategyAdmissionTest, BlockPolicyRidesOutTheBudgetInsteadOfShedding) {
  // Same starved token bucket, but overload=block: the op waits for the
  // refill (bounded by the op deadline) and succeeds instead of shedding.
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "thread";
  spec.config["admit_bps"] = "2000";
  spec.config["admit_burst"] = "128";
  spec.config["overload"] = "block";
  spec.config["op_timeout_ms"] = "2000";
  ASSERT_OK(manager.CreateActiveFile("block.af", spec,
                                     AsBytes("0123456789abcdef")));

  auto handle = api.OpenFile("block.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  Buffer out(4);
  // Both ops succeed: the second waits ~35ms for tokens instead of
  // failing fast.
  ASSERT_OK(api.ReadFile(*handle, MutableByteSpan(out)).status());
  EXPECT_OK(api.ReadFile(*handle, MutableByteSpan(out)).status());
  ASSERT_OK(api.CloseHandle(*handle));
}

// The per-link budget brackets each round trip in the stub, so an op that
// times out (and poisons its handle) still gives its charge back: with
// admit_inflight=1 a leaked charge would pin the gauge above zero.
void RunPoisonedOpUnderLinkBudget(const char* strategy) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  // Installed before the open so a forked sentinel inherits it.
  auto plan = fault::ParsePlan("seed=7;sentinel.dispatch.op=delay:400ms@n1");
  ASSERT_OK(plan.status());
  fault::ScopedFaultPlan scoped(std::move(*plan));

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = strategy;
  spec.config["admit_inflight"] = "1";
  spec.config["op_timeout_ms"] = "50";
  const std::string name = std::string(strategy) + "-poisoned.af";
  ASSERT_OK(manager.CreateActiveFile(name, spec, AsBytes("0123456789abcdef")));
  auto handle = api.OpenFile(name, vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  // A size query carries no buffer: the stalled sentinel answers after
  // the op has timed out, and must have nothing of the caller's to fill.
  EXPECT_STATUS_CODE(api.GetFileSize(*handle).status(), ErrorCode::kTimeout);
  EXPECT_STATUS_CODE(api.GetFileSize(*handle).status(), ErrorCode::kClosed);
  (void)api.CloseHandle(*handle);
  EXPECT_EQ(api.open_handle_count(), 0u);
  // A loop shard's own charge returns when the stalled command is finally
  // answered on the shard, so the gauge settles rather than reads 0 at once.
  obs::Gauge& queue_bytes =
      obs::Registry::Global().GetGauge("core.overload.queue_bytes");
  EXPECT_TRUE(test::PollUntil([&] { return queue_bytes.Value() == 0; }))
      << queue_bytes.Value();
}

TEST(LinkBudgetBracketTest, ThreadPoisonedOpReturnsItsCharge) {
  RunPoisonedOpUnderLinkBudget("thread");
}

TEST(LinkBudgetBracketTest, LoopPoisonedOpReturnsItsCharge) {
  RunPoisonedOpUnderLinkBudget("loop");
}

TEST(LinkBudgetBracketTest, ProcessControlPoisonedOpReturnsItsCharge) {
  RunPoisonedOpUnderLinkBudget("process_control");
}

// ---- late answers to timed-out ops ----------------------------------------

// The sentinel stalls 400 ms in its first op behind a 50 ms op deadline, so
// the op gives up and the stalled sentinel finishes it ~350 ms later.  The
// caller owns its buffer again the moment the op returns: the late answer
// must not reach it, whether it is read data landing in the buffer or
// write bytes taken from it.
constexpr auto kLateAnswerLands = std::chrono::milliseconds(600);

struct StalledFile {
  TempDir tmp;
  vfs::FileApi api{tmp.path() + "/root"};
  core::ActiveFileManager manager{api, sentinel::SentinelRegistry::Global()};
  fault::ScopedFaultPlan plan{
      *fault::ParsePlan("seed=7;sentinel.dispatch.op=delay:400ms@n1")};
  std::string name;

  // Opens after the plan is armed, so a forked sentinel inherits it.
  Result<vfs::HandleId> Open(const char* strategy, ByteSpan content,
                             std::map<std::string, std::string> config = {}) {
    sentinels::RegisterBuiltinSentinels();
    manager.Install();
    SentinelSpec spec;
    spec.name = "null";
    spec.config = std::move(config);
    spec.config["strategy"] = strategy;
    spec.config["op_timeout_ms"] = "50";
    name = std::string(strategy) + "-late.af";
    AFS_RETURN_IF_ERROR(manager.CreateActiveFile(name, spec, content));
    return api.OpenFile(name, vfs::OpenMode::kReadWrite);
  }
};

std::size_t ChangedBytes(const Buffer& buffer, std::uint8_t fill) {
  return buffer.size() -
         static_cast<std::size_t>(std::count(buffer.begin(), buffer.end(), fill));
}

void RunLateAnswerRead(const char* strategy, std::size_t size,
                       std::map<std::string, std::string> config,
                       ErrorCode want) {
  StalledFile file;
  auto handle = file.Open(strategy, ByteSpan(Buffer(size, 'd')),
                          std::move(config));
  ASSERT_OK(handle.status());

  auto buffer = std::make_unique<Buffer>(size, 'Z');
  EXPECT_STATUS_CODE(
      file.api.ReadFile(*handle, MutableByteSpan(*buffer)).status(), want);
  EXPECT_EQ(ChangedBytes(*buffer, 'Z'), 0u) << "at the return";
  std::this_thread::sleep_for(kLateAnswerLands);
  EXPECT_EQ(ChangedBytes(*buffer, 'Z'), 0u) << "once the late answer landed";
  (void)file.api.CloseHandle(*handle);
  EXPECT_EQ(ChangedBytes(*buffer, 'Z'), 0u) << "after CloseHandle";
}

void RunLateAnswerWrite(const char* strategy) {
  StalledFile file;
  auto handle = file.Open(strategy, AsBytes("0123456789abcdef"));
  ASSERT_OK(handle.status());

  auto source = std::make_unique<Buffer>(ToBuffer("late-write-bytes"));
  EXPECT_STATUS_CODE(file.api.WriteFile(*handle, ByteSpan(*source)).status(),
                     ErrorCode::kTimeout);
  // The caller reuses its buffer at once; the late write may still land,
  // but only with the bytes the caller handed over.
  std::fill(source->begin(), source->end(), std::uint8_t{'Z'});
  std::this_thread::sleep_for(kLateAnswerLands);
  (void)file.api.CloseHandle(*handle);
  auto data = file.manager.ReadDataPart(file.name);
  ASSERT_OK(data.status());
  EXPECT_EQ(std::count(data->begin(), data->end(), std::uint8_t{'Z'}), 0)
      << ToString(ByteSpan(*data));
}

TEST(LateAnswerTest, ThreadTimedOutReadLeavesTheBufferAlone) {
  RunLateAnswerRead("thread", 16, {}, ErrorCode::kTimeout);
}

TEST(LateAnswerTest, LoopTimedOutReadLeavesTheBufferAlone) {
  RunLateAnswerRead("loop", 16, {}, ErrorCode::kTimeout);
}

TEST(LateAnswerTest, ProcessControlTimedOutReadLeavesTheBufferAlone) {
  RunLateAnswerRead("process_control", 16, {}, ErrorCode::kTimeout);
}

// 64 KiB rides the shm ring, under supervision with a lease, so the
// monitor drains heartbeat frames on the link while the read is stalled.
// The timed-out session is torn down at once (restart_max=0 fails the
// handle with kClosed); PipeLinkTest in control_test drives the drain of
// a late shm-lane answer itself.
TEST(LateAnswerTest, ProcessControlShmLaneReadLeavesTheBufferAlone) {
  RunLateAnswerRead("process_control", 64 * 1024,
                    {{"supervise", "1"}, {"lease_ms", "2000"},
                     {"restart_max", "0"}},
                    ErrorCode::kClosed);
}

TEST(LateAnswerTest, ThreadTimedOutWriteKeepsLaterBytesOut) {
  RunLateAnswerWrite("thread");
}

TEST(LateAnswerTest, LoopTimedOutWriteKeepsLaterBytesOut) {
  RunLateAnswerWrite("loop");
}

TEST(LateAnswerTest, ProcessControlTimedOutWriteKeepsLaterBytesOut) {
  RunLateAnswerWrite("process_control");
}

// ---- HTTP: 503 + Retry-After ----------------------------------------------

TEST(HttpOverloadTest, ConnectionCapShedsWith503AndRetryAfter) {
  TempDir tmp;
  net::FileServer files;
  ASSERT_OK(files.Put("k", AsBytes("v")));
  const std::string path = test::UniqueSocketPath(tmp.path(), "http503");
  net::HttpServer::Options options;
  options.max_connections = 1;
  options.retry_after_ms = 2000;
  net::HttpServer server(path, files, options);
  ASSERT_OK(server.Start());

  // Occupy the single connection slot with a client that never finishes
  // its request.
  test::RawUnixClient occupier(path);
  ASSERT_GE(occupier.fd(), 0);
  ASSERT_TRUE(occupier.Send("GET /k"));  // no terminator: holds the slot
  ASSERT_TRUE(
      test::PollUntil([&] { return server.active_connections() >= 1; }));

  // The next connection is shed at accept with the full typed story:
  // HTTP 503, Retry-After in seconds, kOverloaded with the ms hint.
  net::HttpClient client(path);
  auto raw = client.Request("GET", "k");
  ASSERT_OK(raw.status());
  EXPECT_EQ(raw->status_code, 503);
  ASSERT_TRUE(raw->headers.count("retry-after"));
  EXPECT_EQ(raw->headers.at("retry-after"), "2");
  const Status shed = client.Get("k").status();
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  EXPECT_EQ(RetryAfterHintMs(shed), 2000);

  // Free the slot: the same server admits again — brownout, not outage.
  occupier.Close();
  ASSERT_TRUE(test::PollUntil([&] {
    auto got = client.Get("k");
    return got.ok() && ToString(ByteSpan(*got)) == "v";
  }));
  server.Stop();
}

}  // namespace
}  // namespace afs
