// End-to-end tests of the four implementation strategies (paper Figure 4):
// the same legacy-style file operations, served by a sentinel behind each
// strategy, must behave identically — except where the paper itself says a
// strategy cannot support an operation.
#include <gtest/gtest.h>

#include "afs.hpp"
#include "test_util.hpp"

namespace afs {
namespace {

using core::ActiveFileManager;
using core::ManagerOptions;
using core::Strategy;
using sentinel::SentinelSpec;
using test::TempDir;

class StrategiesTest : public ::testing::TestWithParam<Strategy> {
 protected:
  StrategiesTest()
      : api_(tmp_.path() + "/root"),
        manager_(api_, sentinel::SentinelRegistry::Global(),
                 ManagerOptions{}) {
    sentinels::RegisterBuiltinSentinels();
    manager_.Install();
  }

  SentinelSpec NullSpec(const std::string& cache = "disk") {
    SentinelSpec spec;
    spec.name = "null";
    spec.config["cache"] = cache;
    spec.config["strategy"] = std::string(StrategyName(GetParam()));
    return spec;
  }

  TempDir tmp_;
  vfs::FileApi api_;
  ActiveFileManager manager_;
};

// The command strategies support the full file API.
class CommandStrategiesTest : public StrategiesTest {};

TEST_P(StrategiesTest, WriteThenReadBackSequentially) {
  ASSERT_OK(manager_.CreateActiveFile("a.af", NullSpec()));
  auto handle = api_.OpenFile("a.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  const std::string payload = "hello active files";
  auto wrote = api_.WriteFile(*handle, AsBytes(payload));
  ASSERT_OK(wrote.status());
  EXPECT_EQ(*wrote, payload.size());
  ASSERT_OK(api_.CloseHandle(*handle));

  // A fresh open reads back what was written — through a fresh sentinel.
  auto handle2 = api_.OpenFile("a.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle2.status());
  Buffer out(payload.size());
  auto got = api_.ReadFile(*handle2, MutableByteSpan(out));
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, payload.size());
  EXPECT_EQ(ToString(ByteSpan(out)), payload);
  ASSERT_OK(api_.CloseHandle(*handle2));
}

TEST_P(StrategiesTest, DataPartPersistsInBundle) {
  ASSERT_OK(manager_.CreateActiveFile("b.af", NullSpec()));
  auto handle = api_.OpenFile("b.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("persisted")).status());
  ASSERT_OK(api_.CloseHandle(*handle));

  auto data = manager_.ReadDataPart("b.af");
  ASSERT_OK(data.status());
  EXPECT_EQ(ToString(ByteSpan(*data)), "persisted");
}

TEST_P(StrategiesTest, MemoryCacheWritesBackAtClose) {
  ASSERT_OK(manager_.CreateActiveFile("m.af", NullSpec("memory")));
  auto handle = api_.OpenFile("m.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("in-memory")).status());
  ASSERT_OK(api_.CloseHandle(*handle));

  auto data = manager_.ReadDataPart("m.af");
  ASSERT_OK(data.status());
  EXPECT_EQ(ToString(ByteSpan(*data)), "in-memory");
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategiesTest,
    ::testing::Values(Strategy::kProcess, Strategy::kProcessControl,
                      Strategy::kThread, Strategy::kDirect),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      return std::string(StrategyName(info.param));
    });

TEST_P(CommandStrategiesTest, SeekSizeAndRandomAccess) {
  ASSERT_OK(manager_.CreateActiveFile("c.af", NullSpec(),
                                      AsBytes("0123456789")));
  auto handle = api_.OpenFile("c.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  auto size = api_.GetFileSize(*handle);
  ASSERT_OK(size.status());
  EXPECT_EQ(*size, 10u);

  auto pos = api_.SetFilePointer(*handle, 4, vfs::SeekOrigin::kBegin);
  ASSERT_OK(pos.status());
  EXPECT_EQ(*pos, 4u);

  Buffer out(3);
  auto got = api_.ReadFile(*handle, MutableByteSpan(out));
  ASSERT_OK(got.status());
  EXPECT_EQ(ToString(ByteSpan(out)), "456");

  // Seek relative to current and from the end.
  pos = api_.SetFilePointer(*handle, -2, vfs::SeekOrigin::kCurrent);
  ASSERT_OK(pos.status());
  EXPECT_EQ(*pos, 5u);
  pos = api_.SetFilePointer(*handle, -1, vfs::SeekOrigin::kEnd);
  ASSERT_OK(pos.status());
  EXPECT_EQ(*pos, 9u);
  Buffer last(4);
  got = api_.ReadFile(*handle, MutableByteSpan(last));
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, 1u);  // short read at EOF
  EXPECT_EQ(last[0], '9');

  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_P(CommandStrategiesTest, SetEndOfFileTruncates) {
  ASSERT_OK(manager_.CreateActiveFile("t.af", NullSpec(),
                                      AsBytes("0123456789")));
  auto handle = api_.OpenFile("t.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.SetFilePointer(*handle, 4, vfs::SeekOrigin::kBegin).status());
  ASSERT_OK(api_.SetEndOfFile(*handle));
  auto size = api_.GetFileSize(*handle);
  ASSERT_OK(size.status());
  EXPECT_EQ(*size, 4u);
  ASSERT_OK(api_.CloseHandle(*handle));

  auto data = manager_.ReadDataPart("t.af");
  ASSERT_OK(data.status());
  EXPECT_EQ(ToString(ByteSpan(*data)), "0123");
}

TEST_P(CommandStrategiesTest, ReadScatterWorksViaControlChannel) {
  ASSERT_OK(manager_.CreateActiveFile("s.af", NullSpec(),
                                      AsBytes("abcdefghij")));
  auto handle = api_.OpenFile("s.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());
  Buffer seg1(4);
  Buffer seg2(6);
  std::vector<MutableByteSpan> segments = {MutableByteSpan(seg1),
                                           MutableByteSpan(seg2)};
  auto got = api_.ReadFileScatter(*handle, segments);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, 10u);
  EXPECT_EQ(ToString(ByteSpan(seg1)), "abcd");
  EXPECT_EQ(ToString(ByteSpan(seg2)), "efghij");
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_P(CommandStrategiesTest, FlushSucceeds) {
  ASSERT_OK(manager_.CreateActiveFile("f.af", NullSpec()));
  auto handle = api_.OpenFile("f.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("x")).status());
  ASSERT_OK(api_.FlushFileBuffers(*handle));
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_P(CommandStrategiesTest, UnknownSentinelFailsOpen) {
  // Author a bundle whose sentinel name is not registered (bypassing the
  // manager's authoring check).
  SentinelSpec spec;
  spec.name = "no-such-sentinel";
  auto host = api_.HostPath("u.af");
  ASSERT_OK(host.status());
  ASSERT_OK(core::WriteBundle(*host, spec, {}));

  auto handle = api_.OpenFile("u.af", vfs::OpenMode::kRead);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(api_.open_handle_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CommandStrategies, CommandStrategiesTest,
    ::testing::Values(Strategy::kProcessControl, Strategy::kThread,
                      Strategy::kDirect),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      return std::string(StrategyName(info.param));
    });

// ---- behaviours specific to the plain process strategy ----------------

class PlainProcessTest : public ::testing::Test {
 protected:
  PlainProcessTest()
      : api_(tmp_.path() + "/root"),
        manager_(api_, sentinel::SentinelRegistry::Global(),
                 ManagerOptions{}) {
    sentinels::RegisterBuiltinSentinels();
    manager_.Install();
  }

  TempDir tmp_;
  vfs::FileApi api_;
  ActiveFileManager manager_;
};

TEST_F(PlainProcessTest, SeekAndSizeAreUnsupported) {
  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("p.af", spec, AsBytes("data")));
  auto handle = api_.OpenFile("p.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  // Paper §4.1: without a control channel these operations cannot travel.
  EXPECT_EQ(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin)
                .status()
                .code(),
            ErrorCode::kUnsupported);
  EXPECT_EQ(api_.GetFileSize(*handle).status().code(),
            ErrorCode::kUnsupported);
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(PlainProcessTest, EagerStreamDeliversDataPart) {
  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("e.af", spec, AsBytes("streamed")));
  auto handle = api_.OpenFile("e.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());

  Buffer out(64);
  std::string collected;
  while (true) {
    auto got = api_.ReadFile(*handle, MutableByteSpan(out));
    ASSERT_OK(got.status());
    if (*got == 0) break;  // sentinel closed the read pipe: EOF
    collected += ToString(ByteSpan(out.data(), *got));
  }
  EXPECT_EQ(collected, "streamed");
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(PlainProcessTest, WritesReachDataPartAfterClose) {
  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("w.af", spec));
  auto handle = api_.OpenFile("w.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("via-pipes")).status());
  ASSERT_OK(api_.CloseHandle(*handle));  // waits for the sentinel process

  auto data = manager_.ReadDataPart("w.af");
  ASSERT_OK(data.status());
  EXPECT_EQ(ToString(ByteSpan(*data)), "via-pipes");
}

// ---- vectored ops on a process-control handle ---------------------------

class VectoredProcessControlTest : public PlainProcessTest {};

TEST_F(VectoredProcessControlTest, ScatterAndGatherTakeOneCrossingOffTheRing) {
  // With the shm ring off every byte rides the pipes, yet an 8-segment
  // scatter or gather is still one command/response crossing.
  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "process_control";
  spec.config["shm_threshold"] = "off";
  ASSERT_OK(manager_.CreateActiveFile("v.af", spec));
  auto handle = api_.OpenFile("v.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  obs::Counter& roundtrips =
      obs::Registry::Global().GetCounter("core.link.roundtrips");

  constexpr int kSegments = 8;
  std::vector<std::string> parts;
  std::vector<ByteSpan> gather;
  for (int i = 0; i < kSegments; ++i) {
    parts.push_back(std::string(16 + i, static_cast<char>('a' + i)));
  }
  for (const std::string& part : parts) gather.push_back(AsBytes(part));
  const std::uint64_t before_write = roundtrips.Value();
  auto wrote = api_.WriteFileGather(*handle, gather);
  ASSERT_OK(wrote.status());
  EXPECT_EQ(roundtrips.Value() - before_write, 1u);

  std::size_t total = 0;
  for (const std::string& part : parts) total += part.size();
  EXPECT_EQ(*wrote, total);
  ASSERT_OK(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).status());

  std::vector<Buffer> out;
  std::vector<MutableByteSpan> scatter;
  for (const std::string& part : parts) out.emplace_back(part.size());
  for (Buffer& segment : out) scatter.push_back(MutableByteSpan(segment));
  const std::uint64_t before_read = roundtrips.Value();
  auto got = api_.ReadFileScatter(*handle, scatter);
  ASSERT_OK(got.status());
  EXPECT_EQ(roundtrips.Value() - before_read, 1u);
  EXPECT_EQ(*got, total);
  for (int i = 0; i < kSegments; ++i) {
    EXPECT_EQ(ToString(ByteSpan(out[i])), parts[i]);
  }
  ASSERT_OK(api_.CloseHandle(*handle));
}

// ---- vectored ops through every handle stage -----------------------------

// One thread-strategy handle per combination of the optional stages (the
// client cache and supervision).  However the handle is assembled, a
// scatter or gather the cache does not serve is one crossing, exactly as
// on the bare link.
struct StageVariant {
  const char* name;
  const char* cache;
  bool supervise;
};

void PrintTo(const StageVariant& variant, std::ostream* os) {
  *os << variant.name;
}

class VectoredStagesTest
    : public PlainProcessTest,
      public ::testing::WithParamInterface<StageVariant> {};

TEST_P(VectoredStagesTest, ScatterAndGatherTakeOneCrossing) {
  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "thread";
  spec.config["cache"] = GetParam().cache;
  if (GetParam().supervise) spec.config["supervise"] = "1";
  ASSERT_OK(manager_.CreateActiveFile("s.af", spec));
  auto handle = api_.OpenFile("s.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  obs::Counter& roundtrips =
      obs::Registry::Global().GetCounter("core.link.roundtrips");

  const std::string parts[] = {"ab", "cd", "ef", "gh"};
  std::vector<ByteSpan> gather;
  for (const std::string& part : parts) gather.push_back(AsBytes(part));
  const std::uint64_t before_write = roundtrips.Value();
  auto wrote = api_.WriteFileGather(*handle, gather);
  ASSERT_OK(wrote.status());
  EXPECT_EQ(*wrote, 8u);
  EXPECT_LE(roundtrips.Value() - before_write, 1u);

  ASSERT_OK(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).status());
  Buffer first(4), second(4);
  std::vector<MutableByteSpan> scatter = {MutableByteSpan(first),
                                          MutableByteSpan(second)};
  const std::uint64_t before_read = roundtrips.Value();
  auto got = api_.ReadFileScatter(*handle, scatter);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, 8u);
  EXPECT_LE(roundtrips.Value() - before_read, 1u);
  EXPECT_EQ(ToString(ByteSpan(first)), "abcd");
  EXPECT_EQ(ToString(ByteSpan(second)), "efgh");
  ASSERT_OK(api_.CloseHandle(*handle));
}

INSTANTIATE_TEST_SUITE_P(
    Stages, VectoredStagesTest,
    ::testing::Values(StageVariant{"plain", "disk", false},
                      StageVariant{"cached", "read", false},
                      StageVariant{"supervised", "disk", true},
                      StageVariant{"cached_supervised", "read", true}),
    [](const ::testing::TestParamInfo<StageVariant>& info) {
      return std::string(info.param.name);
    });

// Paper §4.1: without a control channel a scatter cannot travel.
TEST_F(PlainProcessTest, ScatterIsUnsupported) {
  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "process";
  ASSERT_OK(manager_.CreateActiveFile("p.af", spec, AsBytes("data")));
  auto handle = api_.OpenFile("p.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());
  Buffer out(4);
  std::vector<MutableByteSpan> scatter = {MutableByteSpan(out)};
  EXPECT_EQ(api_.ReadFileScatter(*handle, scatter).status().code(),
            ErrorCode::kUnsupported);
  ASSERT_OK(api_.CloseHandle(*handle));
}

}  // namespace
}  // namespace afs
