// IPC substrate tests: pipes, framing, process spawning, named mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ipc/framing.hpp"
#include "ipc/named_mutex.hpp"
#include "ipc/pipe.hpp"
#include "ipc/process.hpp"
#include "sentinel/control.hpp"
#include "test_util.hpp"

namespace afs::ipc {
namespace {

using test::TempDir;

TEST(PipeTest, WriteThenRead) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("hello")));
  Buffer out(5);
  ASSERT_OK(pipe->read_end.ReadExact(MutableByteSpan(out)));
  EXPECT_EQ(ToString(ByteSpan(out)), "hello");
}

TEST(PipeTest, EofAfterWriterCloses) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("x")));
  pipe->write_end.Close();
  Buffer out(8);
  auto n = pipe->read_end.ReadSome(MutableByteSpan(out));
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 1u);
  n = pipe->read_end.ReadSome(MutableByteSpan(out));
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 0u);  // EOF
}

TEST(PipeTest, ReadExactFailsOnPrematureEof) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("ab")));
  pipe->write_end.Close();
  Buffer out(5);
  EXPECT_EQ(pipe->read_end.ReadExact(MutableByteSpan(out)).code(),
            ErrorCode::kClosed);
}

TEST(PipeTest, OperationsOnClosedEndFail) {
  PipeEnd end;
  Buffer out(1);
  EXPECT_EQ(end.ReadSome(MutableByteSpan(out)).status().code(),
            ErrorCode::kClosed);
  EXPECT_EQ(end.WriteAll(AsBytes("x")).code(), ErrorCode::kClosed);
}

TEST(FramingTest, RoundTripFrames) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(WriteFrame(pipe->write_end, AsBytes("frame-one")));
  ASSERT_OK(WriteFrame(pipe->write_end, {}));  // empty frame is legal
  ASSERT_OK(WriteFrame(pipe->write_end, AsBytes("two")));

  auto f1 = ReadFrame(pipe->read_end);
  ASSERT_OK(f1.status());
  EXPECT_EQ(ToString(ByteSpan(*f1)), "frame-one");
  auto f2 = ReadFrame(pipe->read_end);
  ASSERT_OK(f2.status());
  EXPECT_TRUE(f2->empty());
  auto f3 = ReadFrame(pipe->read_end);
  ASSERT_OK(f3.status());
  EXPECT_EQ(ToString(ByteSpan(*f3)), "two");
}

TEST(FramingTest, CleanEofIsClosed) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  pipe->write_end.Close();
  EXPECT_EQ(ReadFrame(pipe->read_end).status().code(), ErrorCode::kClosed);
}

TEST(FramingTest, TruncatedFrameIsClosed) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  Buffer header;
  AppendU32(header, 100);  // promises 100 bytes
  ASSERT_OK(pipe->write_end.WriteAll(ByteSpan(header)));
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("short")));
  pipe->write_end.Close();
  EXPECT_EQ(ReadFrame(pipe->read_end).status().code(), ErrorCode::kClosed);
}

TEST(FramingTest, OversizedLengthRejected) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  Buffer header;
  AppendU32(header, kMaxFrameBytes + 1);
  ASSERT_OK(pipe->write_end.WriteAll(ByteSpan(header)));
  EXPECT_EQ(ReadFrame(pipe->read_end).status().code(),
            ErrorCode::kProtocolError);
}

TEST(ProcessTest, SpawnFunctionReturnsExitCode) {
  auto child = SpawnFunction([] { return 42; });
  ASSERT_OK(child.status());
  auto code = child->Wait();
  ASSERT_OK(code.status());
  EXPECT_EQ(*code, 42);
}

TEST(ProcessTest, WaitIsIdempotent) {
  auto child = SpawnFunction([] { return 7; });
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 7);
  EXPECT_EQ(*child->Wait(), 7);
}

TEST(ProcessTest, ChildSharesPipeWithParent) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  auto child = SpawnFunction([&]() -> int {
    pipe->read_end.Close();
    return pipe->write_end.WriteAll(AsBytes("from-child")).ok() ? 0 : 1;
  });
  ASSERT_OK(child.status());
  pipe->write_end.Close();
  Buffer out(10);
  ASSERT_OK(pipe->read_end.ReadExact(MutableByteSpan(out)));
  EXPECT_EQ(ToString(ByteSpan(out)), "from-child");
  EXPECT_EQ(*child->Wait(), 0);
}

TEST(ProcessTest, ThrowingChildExitsWithCode113) {
  auto child = SpawnFunction([]() -> int { throw std::runtime_error("boom"); });
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 113);
}

TEST(ProcessTest, SpawnExecRunsBinary) {
  auto child = SpawnExec({"/bin/true"});
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 0);
  auto failing = SpawnExec({"/bin/false"});
  ASSERT_OK(failing.status());
  EXPECT_EQ(*failing->Wait(), 1);
}

TEST(ProcessTest, SpawnExecMissingBinaryExits127) {
  auto child = SpawnExec({"/no/such/binary"});
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 127);
}

TEST(NamedMutexTest, LockUnlock) {
  TempDir tmp;
  NamedMutex mutex(tmp.path(), "m");
  ASSERT_OK(mutex.Lock());
  EXPECT_TRUE(mutex.held());
  ASSERT_OK(mutex.Unlock());
  EXPECT_FALSE(mutex.held());
}

TEST(NamedMutexTest, UnlockWithoutLockFails) {
  TempDir tmp;
  NamedMutex mutex(tmp.path(), "m");
  EXPECT_EQ(mutex.Unlock().code(), ErrorCode::kInvalidArgument);
}

TEST(NamedMutexTest, ExcludesWithinOneProcess) {
  // Two sessions of one process may each open the same named mutex (the
  // thread and direct strategies run their sentinels in the application
  // process); the second must see the first's hold.
  TempDir tmp;
  NamedMutex a(tmp.path(), "shared");
  NamedMutex b(tmp.path(), "shared");
  ASSERT_OK(a.Lock());
  EXPECT_EQ(b.TryLock().code(), ErrorCode::kBusy);
  ASSERT_OK(a.Unlock());
  ASSERT_OK(b.TryLock());
  EXPECT_EQ(a.TryLock().code(), ErrorCode::kBusy);
  ASSERT_OK(b.Unlock());
}

TEST(NamedMutexTest, TryLockReportsBusyAcrossProcesses) {
  TempDir tmp;
  NamedMutex mine(tmp.path(), "shared");
  ASSERT_OK(mine.Lock());

  auto child = SpawnFunction([&]() -> int {
    NamedMutex theirs(tmp.path(), "shared");
    return theirs.TryLock().code() == ErrorCode::kBusy ? 0 : 1;
  });
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 0);
  ASSERT_OK(mine.Unlock());

  auto child2 = SpawnFunction([&]() -> int {
    NamedMutex theirs(tmp.path(), "shared");
    return theirs.TryLock().ok() ? 0 : 1;
  });
  ASSERT_OK(child2.status());
  EXPECT_EQ(*child2->Wait(), 0);
}

TEST(NamedMutexTest, MutualExclusionAcrossProcesses) {
  TempDir tmp;
  const std::string counter_path = tmp.path() + "/counter";
  // Non-atomic read-modify-write, serialized only by the mutex.  Any
  // mutual-exclusion failure loses increments.
  auto bump = [&]() -> int {
    NamedMutex mutex(tmp.path(), "counter");
    for (int i = 0; i < 50; ++i) {
      if (!mutex.Lock().ok()) return 1;
      FILE* f = std::fopen(counter_path.c_str(), "r+");
      if (f == nullptr) f = std::fopen(counter_path.c_str(), "w+");
      long value = 0;
      if (std::fscanf(f, "%ld", &value) != 1) value = 0;
      std::rewind(f);
      std::fprintf(f, "%ld\n", value + 1);
      std::fclose(f);
      if (!mutex.Unlock().ok()) return 1;
    }
    return 0;
  };
  auto a = SpawnFunction(bump);
  auto b = SpawnFunction(bump);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(*a->Wait(), 0);
  EXPECT_EQ(*b->Wait(), 0);

  FILE* f = std::fopen(counter_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  long value = 0;
  ASSERT_EQ(std::fscanf(f, "%ld", &value), 1);
  std::fclose(f);
  EXPECT_EQ(value, 100);
}

// ---- control-frame field round trips ---------------------------------------
// The trace ids and cache-lease fields ride at fixed positions of the
// control frames (docs/PROTOCOL.md §3.4); both survive a round trip.

TEST(ControlCompatTest, CacheExtensionRoundTrips) {
  // The cache-lease fields survive a round trip on both frame directions.
  sentinel::ControlMessage message;
  message.op = sentinel::ControlOp::kRead;
  message.cache_flags =
      sentinel::kCacheWantLease | sentinel::kCacheRecallAck;
  auto msg = sentinel::DecodeControlMessage(
      ByteSpan(sentinel::EncodeControlMessage(message)));
  ASSERT_OK(msg.status());
  EXPECT_EQ(msg->cache_flags,
            sentinel::kCacheWantLease | sentinel::kCacheRecallAck);

  sentinel::ControlResponse response;
  response.status = Status::Ok();
  response.cache_grant = sentinel::kGrantRead | sentinel::kGrantWrite;
  response.cache_lease_ms = 750;
  response.cache_epoch = 3;
  auto resp = sentinel::DecodeControlResponse(
      ByteSpan(sentinel::EncodeControlResponse(response)));
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->cache_grant, sentinel::kGrantRead | sentinel::kGrantWrite);
  EXPECT_EQ(resp->cache_lease_ms, 750u);
  EXPECT_EQ(resp->cache_epoch, 3u);
}

TEST(ControlCompatTest, ExtensionRoundTripsTraceIds) {
  sentinel::ControlMessage message;
  message.op = sentinel::ControlOp::kWrite;
  message.trace_id = 0xdeadbeefcafef00dULL;
  message.parent_span = 0x123456789abcdef0ULL;

  auto decoded = sentinel::DecodeControlMessage(
      ByteSpan(sentinel::EncodeControlMessage(message)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->trace_id, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(decoded->parent_span, 0x123456789abcdef0ULL);
}

}  // namespace
}  // namespace afs::ipc
