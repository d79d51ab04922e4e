// Cross-process trace propagation through the sentinel IPC path.
//
// The claim under test: one application-level operation on an active file
// yields ONE causally-linked span tree, no matter which of the four
// command strategies mediates it — including when the sentinel lives in
// another process (the ids cross the pipe in the control frame, and the
// sentinel's spans ride the response back), and
// including across a PR-4 supervised restart (the replacement sentinel's
// spans join the same trace).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "afs.hpp"
#include "common/faultpoint.hpp"
#include "test_util.hpp"

namespace afs {
namespace {

using core::Strategy;
using sentinel::SentinelSpec;
using test::TempDir;

// One sandboxed manager + one null-filter active file with the given
// config, mirroring the recovery_test harness.
struct Sandbox {
  explicit Sandbox(const std::map<std::string, std::string>& config)
      : api(tmp.path() + "/root") {
    sentinels::RegisterBuiltinSentinels();
    manager = std::make_unique<core::ActiveFileManager>(
        api, sentinel::SentinelRegistry::Global());
    manager->Install();
    SentinelSpec spec;
    spec.name = "null";
    for (const auto& [key, value] : config) spec.config[key] = value;
    EXPECT_OK(
        manager->CreateActiveFile("file.af", spec, AsBytes("0123456789")));
  }

  TempDir tmp;
  vfs::FileApi api;
  std::unique_ptr<core::ActiveFileManager> manager;
};

std::vector<obs::SpanRecord> SpansOfTrace(std::uint64_t trace_id) {
  std::vector<obs::SpanRecord> out;
  for (obs::SpanRecord& span : obs::TraceLog::Global().Snapshot()) {
    if (span.trace_id == trace_id) out.push_back(std::move(span));
  }
  return out;
}

const obs::SpanRecord* FindByName(const std::vector<obs::SpanRecord>& spans,
                                  const std::string& name) {
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

const obs::SpanRecord* FindById(const std::vector<obs::SpanRecord>& spans,
                                std::uint64_t span_id) {
  for (const obs::SpanRecord& span : spans) {
    if (span.span_id == span_id) return &span;
  }
  return nullptr;
}

// Walks parent links from `span` to the trace root; fails the test (and
// returns false) on a dangling parent.  Bounded: a cycle cannot loop it
// past the span count.
bool ChainReachesRoot(const std::vector<obs::SpanRecord>& spans,
                      const obs::SpanRecord* span) {
  for (std::size_t hops = 0; hops <= spans.size(); ++hops) {
    if (span->parent_id == 0) return true;
    span = FindById(spans, span->parent_id);
    if (span == nullptr) return false;
  }
  return false;  // cycle
}

// Opens the file, reads 4 bytes under a TraceScope, closes, and returns
// the spans of that one trace.
std::vector<obs::SpanRecord> TracedRead(Sandbox& box) {
  obs::TraceLog::Global().Clear();
  std::uint64_t trace_id = 0;
  {
    obs::TraceScope trace("test.traced_read");
    trace_id = trace.trace_id();
    auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kRead);
    EXPECT_OK(handle.status());
    if (!handle.ok()) return {};
    Buffer buf(4);
    auto read = box.api.ReadFile(*handle, MutableByteSpan(buf));
    EXPECT_OK(read.status());
    EXPECT_OK(box.api.CloseHandle(*handle));
    EXPECT_EQ(ToString(ByteSpan(buf.data(), read.ok() ? *read : 0)), "0123");
  }
  return SpansOfTrace(trace_id);
}

// Strategy-parameterized: every strategy must produce one connected tree
// rooted at the TraceScope, with the strategy's own layers present.
class TracePropagationTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(TracePropagationTest, OneReadYieldsOneConnectedSpanTree) {
  const Strategy strategy = GetParam();
  Sandbox box({{"strategy", std::string(core::StrategyName(strategy))}});
  const std::vector<obs::SpanRecord> spans = TracedRead(box);
  ASSERT_FALSE(spans.empty());

  // Every span of the trace chains back to the single root.
  const obs::SpanRecord* root = FindByName(spans, "test.traced_read");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  for (const obs::SpanRecord& span : spans) {
    SCOPED_TRACE("span=" + span.name);
    EXPECT_TRUE(ChainReachesRoot(spans, &span));
  }

  // The vfs stub layer always shows up.
  const obs::SpanRecord* vfs_read = FindByName(spans, "vfs.read");
  ASSERT_NE(vfs_read, nullptr);
  EXPECT_EQ(vfs_read->parent_id, root->span_id);

  switch (strategy) {
    case Strategy::kProcessControl:
    case Strategy::kThread:
    case Strategy::kLoop: {
      // Control strategies: the dispatch loop's span crossed back over
      // the link, parented under the app-side roundtrip span.
      const obs::SpanRecord* sentinel_read =
          FindByName(spans, "sentinel.read");
      ASSERT_NE(sentinel_read, nullptr);
      const obs::SpanRecord* roundtrip =
          FindById(spans, sentinel_read->parent_id);
      ASSERT_NE(roundtrip, nullptr);
      EXPECT_EQ(roundtrip->name, "link.roundtrip");
      if (strategy == Strategy::kProcessControl) {
        // The whole point: the sentinel span was recorded in ANOTHER
        // process and still links into this tree.
        EXPECT_NE(sentinel_read->pid, roundtrip->pid);
      }
      break;
    }
    case Strategy::kProcess:
      // Stream strategy has no control frames; the app-side pump span is
      // the deepest layer.
      EXPECT_NE(FindByName(spans, "link.stream.read"), nullptr);
      break;
    case Strategy::kDirect:
      EXPECT_NE(FindByName(spans, "sentinel.read"), nullptr);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, TracePropagationTest,
    ::testing::Values(Strategy::kDirect, Strategy::kThread,
                      Strategy::kProcess, Strategy::kProcessControl,
                      Strategy::kLoop),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      return std::string(core::StrategyName(info.param));
    });

// A supervised restart mid-trace.  The canonical recovery_test sequence
// (open, read, write, seek, read, close) dispatches its commands as
// n1..n5; kill@n4 murders the sentinel during the second read.  The
// supervisor restarts it transparently — and the REPLACEMENT sentinel's
// spans must land in the SAME trace as the first incarnation's: the
// application's causal story has no seam.
TEST(TraceRecoveryTest, SpansSurviveSupervisedRestartIntoSameTrace) {
  Sandbox box({{"strategy", "process_control"},
               {"supervise", "1"},
               {"restart_backoff_ms", "1"}});
  const std::uint64_t restarts_before = obs::Registry::Global()
                                            .GetCounter(
                                                "core.supervisor.restarts")
                                            .Value();
  auto plan = fault::ParsePlan("seed=1;sentinel.dispatch.op=kill@n4");
  ASSERT_OK(plan.status());
  fault::InstallPlan(std::move(*plan));
  ::setenv("AFS_FAULT_PLAN", "seed=1;sentinel.dispatch.op=kill@n4", 1);

  obs::TraceLog::Global().Clear();
  std::uint64_t trace_id = 0;
  {
    obs::TraceScope trace("test.traced_sequence");
    trace_id = trace.trace_id();
    auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    Buffer buf(4);
    EXPECT_OK(box.api.ReadFile(*handle, MutableByteSpan(buf)).status());
    EXPECT_OK(box.api.WriteFile(*handle, AsBytes("WXYZ")).status());
    EXPECT_OK(
        box.api.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).status());
    auto read2 = box.api.ReadFile(*handle, MutableByteSpan(buf));
    EXPECT_OK(read2.status());
    EXPECT_EQ(ToString(ByteSpan(buf.data(), read2.ok() ? *read2 : 0)),
              "0123");
    EXPECT_OK(box.api.CloseHandle(*handle));
  }
  const std::vector<obs::SpanRecord> spans = SpansOfTrace(trace_id);

  ::unsetenv("AFS_FAULT_PLAN");
  fault::ClearPlan();

  // The restart actually happened.
  EXPECT_GT(obs::Registry::Global()
                .GetCounter("core.supervisor.restarts")
                .Value(),
            restarts_before);

  ASSERT_FALSE(spans.empty());
  const obs::SpanRecord* root = FindByName(spans, "test.traced_sequence");
  ASSERT_NE(root, nullptr);
  for (const obs::SpanRecord& span : spans) {
    SCOPED_TRACE("span=" + span.name);
    EXPECT_TRUE(ChainReachesRoot(spans, &span));
  }
  // Spans from TWO sentinel incarnations (distinct pids, both different
  // from the application's) chain into this one trace.
  std::vector<std::uint32_t> sentinel_pids;
  for (const obs::SpanRecord& span : spans) {
    if (span.name.rfind("sentinel.", 0) == 0 &&
        std::find(sentinel_pids.begin(), sentinel_pids.end(), span.pid) ==
            sentinel_pids.end()) {
      sentinel_pids.push_back(span.pid);
    }
  }
  EXPECT_GE(sentinel_pids.size(), 2u);
  for (const std::uint32_t pid : sentinel_pids) {
    EXPECT_NE(pid, static_cast<std::uint32_t>(::getpid()));
  }
}

}  // namespace
}  // namespace afs
