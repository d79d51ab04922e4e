// afsctl CLI tests (AFSCTL_PATH injected by CMake) and assorted edge-case
// coverage for host files.
#include <gtest/gtest.h>

#include <cstdio>

#include "afs.hpp"
#include "test_util.hpp"
#include "util/prng.hpp"

#ifndef AFSCTL_PATH
#error "AFSCTL_PATH must be defined by the build"
#endif

namespace afs {
namespace {

using test::TempDir;

// Runs a command line, returns {exit code, stdout}.
std::pair<int, std::string> RunCommand(const std::string& command) {
  FILE* pipe = ::popen((command + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

class AfsctlTest : public ::testing::Test {
 protected:
  std::string Ctl(const std::string& args) {
    return std::string(AFSCTL_PATH) + " " + tmp_.path() + "/ws " + args;
  }
  TempDir tmp_;
};

TEST_F(AfsctlTest, CreateWriteCatDataSpec) {
  auto [code, out] = RunCommand(Ctl("create notes.af compress codec=rle"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("created notes.af"), std::string::npos);

  std::tie(code, out) = RunCommand(Ctl("write notes.af aaaaaaaaaaaaaaaaaaaaaaaa"));
  EXPECT_EQ(code, 0);

  std::tie(code, out) = RunCommand(Ctl("cat notes.af"));
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out, "aaaaaaaaaaaaaaaaaaaaaaaa");

  std::tie(code, out) = RunCommand(Ctl("data notes.af"));
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out.substr(0, 4), "AFC1");  // compressed image, not plaintext

  std::tie(code, out) = RunCommand(Ctl("spec notes.af"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("sentinel: compress"), std::string::npos);
  EXPECT_NE(out.find("codec = rle"), std::string::npos);
}

TEST_F(AfsctlTest, LsAndSentinels) {
  (void)RunCommand(Ctl("create a.af null"));
  auto [code, out] = RunCommand(Ctl("ls"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("a.af"), std::string::npos);

  std::tie(code, out) = RunCommand(Ctl("sentinels"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("compress"), std::string::npos);
  EXPECT_NE(out.find("pipeline"), std::string::npos);
}

TEST_F(AfsctlTest, StatsDumpsMetricsAndTracedSpanTree) {
  (void)RunCommand(Ctl("create t.af null strategy=process_control"));
  (void)RunCommand(Ctl("write t.af hello"));

  // Bare stats: metric sections render even with no traced operation.
  auto [code, out] = RunCommand(Ctl("stats"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("== counters"), std::string::npos);
  EXPECT_NE(out.find("== traces"), std::string::npos);

  // With a path: the read runs under a TraceScope, so the dump carries
  // the linked span tree of that one read — including the sentinel-side
  // span that crossed the process boundary (process_control strategy).
  std::tie(code, out) = RunCommand(Ctl("stats t.af"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("afsctl.stats.read"), std::string::npos);
  EXPECT_NE(out.find("vfs.read"), std::string::npos);
  EXPECT_NE(out.find("link.roundtrip"), std::string::npos);
  EXPECT_NE(out.find("sentinel.read"), std::string::npos);
  // Nesting is indentation in the text renderer: the sentinel span sits
  // deeper than the roundtrip span that carried it.
  EXPECT_NE(out.find("\n      link.roundtrip"), std::string::npos);
  EXPECT_NE(out.find("\n        sentinel.read"), std::string::npos);

  // JSON mode renders the same snapshot as machine-readable JSON.
  std::tie(code, out) = RunCommand(Ctl("stats t.af --json"));
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"vfs.read.count\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"sentinel.read\""), std::string::npos);

  // Reading a missing path still exits nonzero.
  EXPECT_EQ(RunCommand(Ctl("stats missing.af")).first, 1);
}

TEST_F(AfsctlTest, ErrorsExitNonzero) {
  EXPECT_EQ(RunCommand(Ctl("cat missing.af")).first, 1);
  EXPECT_EQ(RunCommand(Ctl("create bad.txt null")).first, 1);       // wrong ext
  EXPECT_EQ(RunCommand(Ctl("create x.af nosuchsentinel")).first, 1);
  EXPECT_EQ(RunCommand(Ctl("frobnicate x")).first, 2);               // usage
}

// ---- afs_lint fixture coverage ------------------------------------------
//
// Each check in tools/analyze/ has a seeded-violation fixture and a clean
// twin under tests/lint_fixtures/ (see its README.md).  These tests run
// the real linter over each pair, so a check that stops detecting its
// violation — or starts flagging the clean twin — fails ctest.

#ifndef AFS_SOURCE_DIR
#error "AFS_SOURCE_DIR must be defined by the build"
#endif

class LintFixtureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (RunCommand("python3 --version").first != 0)
      GTEST_SKIP() << "python3 not on PATH";
  }

  // Lints one fixture file with one check, baseline disabled.
  std::pair<int, std::string> Lint(const std::string& check,
                                   const std::string& fixture) {
    const std::string root(AFS_SOURCE_DIR);
    return RunCommand("python3 " + root + "/tools/analyze/afs_lint.py" +
                      " --root " + root + " --no-baseline --checks " + check +
                      " tests/lint_fixtures/" + fixture);
  }
};

TEST_F(LintFixtureTest, NonblockingFlagsSeededViolationOnly) {
  auto [code, out] = Lint("nonblocking", "nonblocking_bad.cpp");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("[nonblocking]"), std::string::npos);
  EXPECT_NE(out.find("PumpOnce"), std::string::npos);
  EXPECT_NE(out.find("`read`"), std::string::npos);
  EXPECT_NE(out.find("Drain"), std::string::npos);  // the transitive chain
  // A one-argument WriteAll has no deadline and reaches writev(2).
  EXPECT_NE(out.find("Flush"), std::string::npos);
  EXPECT_NE(out.find("`writev`"), std::string::npos);
  EXPECT_NE(out.find("PipeEnd::WriteAll"), std::string::npos);

  std::tie(code, out) = Lint("nonblocking", "nonblocking_clean.cpp");
  EXPECT_EQ(code, 0) << out;
}

TEST_F(LintFixtureTest, NonblockingSeesGlobalCallOpeningABody) {
  // `::read(...)` as the body's first statement is still read(2).
  auto [code, out] = Lint("nonblocking", "nonblocking_body_start_bad.cpp");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("PipeEnd::ReadByte"), std::string::npos);
  EXPECT_NE(out.find("`read`"), std::string::npos);
}

TEST_F(LintFixtureTest, NonblockingTreatsUnsetDefaultedTimeoutAsUnbounded) {
  // WriteFrame(pipe, payload) hands its defaulted timeout on to a WriteAll
  // call whose arity alone would make it a bounded cut.
  auto [code, out] = Lint("nonblocking", "nonblocking_unset_deadline_bad.cpp");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("SendBanner"), std::string::npos);
  EXPECT_NE(out.find("WriteFrame -> fixture::PipeEnd::WriteAll"),
            std::string::npos);
  EXPECT_NE(out.find("`writev`"), std::string::npos);

  std::tie(code, out) =
      Lint("nonblocking", "nonblocking_unset_deadline_clean.cpp");
  EXPECT_EQ(code, 0) << out;
}

TEST_F(LintFixtureTest, StatusDiscardFlagsBothShapesOnly) {
  auto [code, out] = Lint("status-discard", "status_discard_bad.cpp");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("(void)-cast"), std::string::npos);
  EXPECT_NE(out.find("overwritten"), std::string::npos);

  std::tie(code, out) = Lint("status-discard", "status_discard_clean.cpp");
  EXPECT_EQ(code, 0) << out;
}

TEST_F(LintFixtureTest, GuardedMemberFlagsUnannotatedMemberOnly) {
  auto [code, out] = Lint("guarded-member", "guarded_member_bad.cpp");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("Tracker::count_"), std::string::npos);

  std::tie(code, out) = Lint("guarded-member", "guarded_member_clean.cpp");
  EXPECT_EQ(code, 0) << out;
}

TEST_F(LintFixtureTest, BoundedQueueFlagsBothShapesOnly) {
  auto [code, out] = Lint("bounded-queue", "bounded_queue_bad.cpp");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("Relay::inflight_"), std::string::npos);
  EXPECT_NE(out.find("unbounded container"), std::string::npos);
  EXPECT_NE(out.find("Relay::outbuf_"), std::string::npos);
  EXPECT_NE(out.find("growable consumer buffer"), std::string::npos);
  EXPECT_EQ(out.find("samples_"), std::string::npos);  // neutral name exempt

  std::tie(code, out) = Lint("bounded-queue", "bounded_queue_clean.cpp");
  EXPECT_EQ(code, 0) << out;
}

TEST_F(LintFixtureTest, RegistryFlagsAllThreeShapesOnly) {
  // The registry check is textual over a tree, so the fixtures are
  // miniature trees selected via --root.
  const std::string root(AFS_SOURCE_DIR);
  const std::string cmd = "python3 " + root + "/tools/analyze/afs_lint.py" +
                          " --no-baseline --checks registry --root " + root +
                          "/tests/lint_fixtures/registry_tree";
  auto [code, out] = RunCommand(cmd);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("demo.fault.site"), std::string::npos);
  EXPECT_NE(out.find("never armed"), std::string::npos);
  EXPECT_NE(out.find("not documented"), std::string::npos);
  EXPECT_NE(out.find("demo.orphan.count"), std::string::npos);

  std::tie(code, out) = RunCommand(cmd + "_clean");
  EXPECT_EQ(code, 0) << out;
}

// ---- host-file / shm edge cases -----------------------------------------

TEST(HostFileEdgeTest, WriteOnReadOnlyHandleFails) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  ASSERT_OK(api.WriteWholeFile("f", AsBytes("x")));
  auto handle = api.OpenFile("f", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());
  EXPECT_FALSE(api.WriteFile(*handle, AsBytes("y")).ok());
  ASSERT_OK(api.CloseHandle(*handle));
}

TEST(HostFileEdgeTest, ReadOnWriteOnlyHandleFails) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  ASSERT_OK(api.WriteWholeFile("f", AsBytes("x")));
  auto handle = api.OpenFile("f", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  Buffer out(1);
  EXPECT_FALSE(api.ReadFile(*handle, MutableByteSpan(out)).ok());
  ASSERT_OK(api.CloseHandle(*handle));
}

TEST(HostFileEdgeTest, TruncateExistingOnMissingFileFails) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  vfs::OpenOptions options;
  options.mode = vfs::OpenMode::kWrite;
  options.disposition = vfs::Disposition::kTruncateExisting;
  EXPECT_EQ(api.CreateFile("absent", options).status().code(),
            ErrorCode::kNotFound);
}

TEST(HostFileEdgeTest, SeekBeforeStartFails) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  ASSERT_OK(api.WriteWholeFile("f", AsBytes("abc")));
  auto handle = api.OpenFile("f", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());
  EXPECT_FALSE(
      api.SetFilePointer(*handle, -1, vfs::SeekOrigin::kBegin).ok());
  ASSERT_OK(api.CloseHandle(*handle));
}

}  // namespace
}  // namespace afs
