// The plain process strategy with non-trivial sentinels: any command-model
// sentinel runs under the two-pipe stream adapter, with the sequential
// semantics the paper describes for strategy 1.
#include <gtest/gtest.h>

#include <chrono>

#include "afs.hpp"
#include "common/faultpoint.hpp"
#include "test_util.hpp"

namespace afs {
namespace {

using core::ActiveFileManager;
using sentinel::SentinelSpec;
using test::TempDir;

class StreamStrategyTest : public ::testing::Test {
 protected:
  StreamStrategyTest()
      : api_(tmp_.path() + "/root"),
        manager_(api_, sentinel::SentinelRegistry::Global()) {
    sentinels::RegisterBuiltinSentinels();
    manager_.Install();
  }

  TempDir tmp_;
  vfs::FileApi api_;
  ActiveFileManager manager_;
};

TEST_F(StreamStrategyTest, CompressFilterOverPipes) {
  SentinelSpec spec;
  spec.name = "compress";
  spec.config["codec"] = "rle";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("c.af", spec));

  // Write a run-heavy document through the stream.
  const std::string text(5000, 'q');
  auto handle = api_.OpenFile("c.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes(text)).status());
  ASSERT_OK(api_.CloseHandle(*handle));  // sentinel persists at close

  // On disk: compressed image (written by the forked sentinel).
  auto stored = manager_.ReadDataPart("c.af");
  ASSERT_OK(stored.status());
  EXPECT_LT(stored->size(), 300u);
  EXPECT_EQ(ToString(ByteSpan(stored->data(), 4)), "AFC1");

  // A fresh open streams the decompressed plaintext to the application.
  auto reopened = api_.OpenFile("c.af", vfs::OpenMode::kRead);
  ASSERT_OK(reopened.status());
  std::string collected;
  Buffer chunk(512);
  while (true) {
    auto n = api_.ReadFile(*reopened, MutableByteSpan(chunk));
    ASSERT_OK(n.status());
    if (*n == 0) break;
    collected += ToString(ByteSpan(chunk.data(), *n));
  }
  EXPECT_EQ(collected, text);
  ASSERT_OK(api_.CloseHandle(*reopened));
}

TEST_F(StreamStrategyTest, InfiniteGeneratorReadPrefixThenClose) {
  SentinelSpec spec;
  spec.name = "random";
  spec.config["cache"] = "none";
  spec.config["seed"] = "3";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("inf.af", spec));

  auto handle = api_.OpenFile("inf.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());
  // The sentinel would push forever; take a finite prefix...
  Buffer prefix(8192);
  std::size_t got = 0;
  while (got < prefix.size()) {
    auto n = api_.ReadFile(
        *handle, MutableByteSpan(prefix.data() + got, prefix.size() - got));
    ASSERT_OK(n.status());
    ASSERT_GT(*n, 0u);
    got += *n;
  }
  // ...and close mid-stream: the sentinel must notice (EPIPE) and exit, or
  // this CloseHandle (which waits for the child) would hang.
  ASSERT_OK(api_.CloseHandle(*handle));

  // Determinism: the same prefix arrives under a command strategy.
  SentinelSpec direct = spec;
  direct.config["strategy"] = "direct";
  ASSERT_OK(manager_.CreateActiveFile("inf2.af", direct));
  auto h2 = api_.OpenFile("inf2.af", vfs::OpenMode::kRead);
  ASSERT_OK(h2.status());
  Buffer prefix2(8192);
  std::size_t got2 = 0;
  while (got2 < prefix2.size()) {
    auto n = api_.ReadFile(
        *h2, MutableByteSpan(prefix2.data() + got2, prefix2.size() - got2));
    ASSERT_OK(n.status());
    got2 += *n;
  }
  ASSERT_OK(api_.CloseHandle(*h2));
  EXPECT_EQ(prefix, prefix2);
}

TEST_F(StreamStrategyTest, LoggingSentinelOverPipes) {
  SentinelSpec spec;
  spec.name = "log";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("l.af", spec));
  auto handle = api_.OpenFile("l.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("record-a")).status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("record-b")).status());
  ASSERT_OK(api_.CloseHandle(*handle));
  auto data = manager_.ReadDataPart("l.af");
  ASSERT_OK(data.status());
  // The 4 KiB pump chunking may merge the two app writes into one sentinel
  // write; both orderings are legal, records are newline-framed either way.
  const std::string text = ToString(ByteSpan(*data));
  EXPECT_NE(text.find("record-a"), std::string::npos);
  EXPECT_NE(text.find("record-b"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(StreamStrategyTest, StalledSentinelInputSurfacesAsTimeoutNotHang) {
  // The pump's write side (the one draining the application's writes off
  // its stdin) stalls 400 ms before its first read, so a 256 KiB write
  // fills the pipe; the 50 ms op deadline must end the write with kTimeout
  // instead of parking the application.
  auto plan = fault::ParsePlan("seed=7;sentinel.stream.write=delay:400ms@n1");
  ASSERT_OK(plan.status());
  fault::ScopedFaultPlan scoped(std::move(*plan));

  SentinelSpec spec;
  spec.name = "log";
  spec.config["strategy"] = "process";
  spec.config["op_timeout_ms"] = "50";
  spec.config["shm_threshold"] = "off";  // the bytes travel the stdin pipe
  ASSERT_OK(manager_.CreateActiveFile("stall.af", spec));
  auto handle = api_.OpenFile("stall.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());

  const Buffer big(256 * 1024, 'w');
  const auto start = std::chrono::steady_clock::now();
  EXPECT_STATUS_CODE(api_.WriteFile(*handle, ByteSpan(big)).status(),
                     ErrorCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(350));
  (void)api_.CloseHandle(*handle);
}

// Registry-of-sentinels API behaviour.
TEST(SentinelRegistryTest, RegisterLookupAndErrors) {
  sentinel::SentinelRegistry registry;
  EXPECT_FALSE(registry.Has("x"));
  ASSERT_OK(registry.Register("x", [](const sentinel::SentinelSpec&) {
    return std::make_unique<sentinel::Sentinel>();
  }));
  EXPECT_TRUE(registry.Has("x"));
  EXPECT_EQ(registry
                .Register("x",
                          [](const sentinel::SentinelSpec&) {
                            return std::make_unique<sentinel::Sentinel>();
                          })
                .code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(registry.Register("", nullptr).code(),
            ErrorCode::kInvalidArgument);

  sentinel::SentinelSpec spec;
  spec.name = "x";
  EXPECT_OK(registry.Create(spec).status());
  spec.name = "missing";
  EXPECT_EQ(registry.Create(spec).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"x"}));
}

TEST(SentinelRegistryTest, NullFactoryResultIsInternalError) {
  sentinel::SentinelRegistry registry;
  ASSERT_OK(registry.Register("broken", [](const sentinel::SentinelSpec&) {
    return std::unique_ptr<sentinel::Sentinel>();
  }));
  sentinel::SentinelSpec spec;
  spec.name = "broken";
  EXPECT_EQ(registry.Create(spec).status().code(), ErrorCode::kInternal);
}

TEST(SentinelRegistryTest, BuiltinsAllPresent) {
  sentinel::SentinelRegistry registry;
  sentinels::RegisterBuiltinSentinels(registry);
  for (const char* name :
       {"null", "random", "compress", "audit", "log", "notify", "registry",
        "remote", "ftp", "http", "tee", "merge", "quotes", "inbox", "outbox",
        "pipeline", "policy"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  // Idempotent re-registration.
  sentinels::RegisterBuiltinSentinels(registry);
  EXPECT_EQ(registry.Names().size(), 17u);
}

}  // namespace
}  // namespace afs
