// Dispatch-loop unit tests, using a scripted in-memory endpoint and a
// probe sentinel that records lifecycle calls.
#include <gtest/gtest.h>

#include <deque>

#include "common/faultpoint.hpp"
#include "sentinel/dispatch.hpp"
#include "sentinel/stream.hpp"
#include "test_util.hpp"

namespace afs::sentinel {
namespace {

// Endpoint that replays a fixed command script and records responses.
class ScriptedEndpoint final : public SentinelEndpoint {
 public:
  std::deque<ControlMessage> script;
  std::vector<ControlResponse> responses;
  Buffer write_payload;  // returned by AF_GetDataFromAppl
  std::vector<std::size_t> fetched;  // lengths AF_GetDataFromAppl served

  Result<ControlMessage> AF_GetControl() override {
    if (script.empty()) return ClosedError("script exhausted");
    ControlMessage msg = std::move(script.front());
    script.pop_front();
    return msg;
  }

  Result<Buffer> AF_GetDataFromAppl(std::size_t length) override {
    fetched.push_back(length);
    Buffer out = write_payload;
    out.resize(length, 0);
    return out;
  }

  Status AF_SendResponse(ControlResponse response) override {
    responses.push_back(std::move(response));
    return Status::Ok();
  }
};

// Sentinel that counts lifecycle events.
class ProbeSentinel final : public Sentinel {
 public:
  Status OnOpen(SentinelContext&) override {
    ++opens;
    return open_status;
  }
  Status OnClose(SentinelContext&) override {
    ++closes;
    return Status::Ok();
  }

  int opens = 0;
  int closes = 0;
  Status open_status = Status::Ok();
};

TEST(DispatchTest, BannerThenCloseLifecycle) {
  ScriptedEndpoint endpoint;
  ControlMessage close;
  close.op = ControlOp::kClose;
  endpoint.script.push_back(close);

  ProbeSentinel probe;
  MemoryDataStore store;
  SentinelContext ctx;
  ctx.cache = &store;

  EXPECT_EQ(RunSentinelLoop(probe, endpoint, ctx), 0);
  EXPECT_EQ(probe.opens, 1);
  EXPECT_EQ(probe.closes, 1);
  ASSERT_EQ(endpoint.responses.size(), 2u);  // banner + close ack
  EXPECT_OK(endpoint.responses[0].status);
  EXPECT_OK(endpoint.responses[1].status);
}

TEST(DispatchTest, FailedOpenSkipsLoopAndOnClose) {
  ScriptedEndpoint endpoint;
  ProbeSentinel probe;
  probe.open_status = PermissionDeniedError("nope");
  MemoryDataStore store;
  SentinelContext ctx;
  ctx.cache = &store;

  EXPECT_EQ(RunSentinelLoop(probe, endpoint, ctx), 0);
  EXPECT_EQ(probe.closes, 0);
  ASSERT_EQ(endpoint.responses.size(), 1u);
  EXPECT_EQ(endpoint.responses[0].status.code(),
            ErrorCode::kPermissionDenied);
}

TEST(DispatchTest, ChannelLossTriggersImplicitClose) {
  ScriptedEndpoint endpoint;  // empty script -> kClosed immediately
  ProbeSentinel probe;
  MemoryDataStore store;
  SentinelContext ctx;
  ctx.cache = &store;

  EXPECT_EQ(RunSentinelLoop(probe, endpoint, ctx), 0);
  EXPECT_EQ(probe.closes, 1);  // side effects still flushed
}

TEST(DispatchTest, WriteThenReadAdvancesPosition) {
  ScriptedEndpoint endpoint;
  endpoint.write_payload = ToBuffer("abcdef");

  ControlMessage write;
  write.op = ControlOp::kWrite;
  write.length = 6;
  endpoint.script.push_back(write);

  ControlMessage seek;
  seek.op = ControlOp::kSeek;
  seek.offset = 0;
  seek.origin = static_cast<std::uint8_t>(SeekOrigin::kBegin);
  endpoint.script.push_back(seek);

  ControlMessage read;
  read.op = ControlOp::kRead;
  read.length = 6;
  endpoint.script.push_back(read);

  ControlMessage close;
  close.op = ControlOp::kClose;
  endpoint.script.push_back(close);

  Sentinel null_sentinel;
  MemoryDataStore store;
  SentinelContext ctx;
  ctx.cache = &store;
  EXPECT_EQ(RunSentinelLoop(null_sentinel, endpoint, ctx), 0);

  ASSERT_EQ(endpoint.responses.size(), 5u);  // banner + 4 ops
  EXPECT_EQ(endpoint.responses[1].number, 6u);                // write count
  EXPECT_EQ(endpoint.responses[2].number, 0u);                // new position
  EXPECT_EQ(ToString(ByteSpan(endpoint.responses[3].payload)), "abcdef");
  EXPECT_EQ(endpoint.responses[3].number, 6u);
}

TEST(DispatchTest, FaultedWriteStillDrainsItsDataLane) {
  // The injected fault answers the write, but its bytes already sit on the
  // data lane: they are drained, so the next write's command pairs with
  // its own bytes, and none of the faulted bytes reach the data part.
  auto plan = fault::ParsePlan("seed=1;sentinel.dispatch.op=error:io@n1");
  ASSERT_OK(plan.status());
  fault::ScopedFaultPlan scoped(std::move(*plan));

  ScriptedEndpoint endpoint;
  endpoint.write_payload = ToBuffer("abcdef");
  ControlMessage write;
  write.op = ControlOp::kWrite;
  write.length = 6;
  endpoint.script.push_back(write);
  ControlMessage close;
  close.op = ControlOp::kClose;
  endpoint.script.push_back(close);

  Sentinel null_sentinel;
  MemoryDataStore store;
  SentinelContext ctx;
  ctx.cache = &store;
  EXPECT_EQ(RunSentinelLoop(null_sentinel, endpoint, ctx), 0);

  ASSERT_EQ(endpoint.responses.size(), 3u);  // banner + write + close
  EXPECT_EQ(endpoint.responses[1].status.code(), ErrorCode::kIoError);
  EXPECT_EQ(endpoint.fetched, std::vector<std::size_t>{6});
  auto size = store.Size();
  ASSERT_OK(size.status());
  EXPECT_EQ(*size, 0u);
}

TEST(DispatchTest, ErrorsBecomeResponsesNotChannelFailures) {
  ScriptedEndpoint endpoint;
  ControlMessage size;
  size.op = ControlOp::kGetSize;
  endpoint.script.push_back(size);
  ControlMessage close;
  close.op = ControlOp::kClose;
  endpoint.script.push_back(close);

  Sentinel null_sentinel;
  SentinelContext ctx;  // NO cache: size must fail with kUnsupported
  EXPECT_EQ(RunSentinelLoop(null_sentinel, endpoint, ctx), 0);
  ASSERT_EQ(endpoint.responses.size(), 3u);
  EXPECT_EQ(endpoint.responses[1].status.code(), ErrorCode::kUnsupported);
  EXPECT_OK(endpoint.responses[2].status);  // loop kept running
}

TEST(DispatchTest, CustomControlRoundTrip) {
  class EchoControlSentinel final : public Sentinel {
   public:
    Result<Buffer> OnControl(SentinelContext&, ByteSpan request) override {
      Buffer out = ToBuffer("echo:");
      out.insert(out.end(), request.begin(), request.end());
      return out;
    }
  };

  ScriptedEndpoint endpoint;
  ControlMessage custom;
  custom.op = ControlOp::kCustom;
  custom.payload = ToBuffer("ping");
  endpoint.script.push_back(custom);
  ControlMessage close;
  close.op = ControlOp::kClose;
  endpoint.script.push_back(close);

  EchoControlSentinel sentinel;
  SentinelContext ctx;
  EXPECT_EQ(RunSentinelLoop(sentinel, endpoint, ctx), 0);
  EXPECT_EQ(ToString(ByteSpan(endpoint.responses[1].payload)), "echo:ping");
}

// ---- stream pump -------------------------------------------------------

// The two directions are tested separately: within one pump run they race
// by design (the reader thread eagerly streams whatever the data part
// holds while the writer loop mutates it — an inherent property of the
// paper's two-pipe model).
TEST(StreamPumpTest, ReaderThreadStreamsDataPartToApp) {
  std::string pushed;
  std::mutex push_mu;
  bool finished = false;

  StreamIo io;
  io.read_from_app = [](MutableByteSpan) -> Result<std::size_t> {
    return std::size_t{0};  // the app writes nothing
  };
  io.write_to_app = [&](ByteSpan data) {
    std::lock_guard<std::mutex> lock(push_mu);
    pushed += ToString(data);
    return Status::Ok();
  };
  io.finish_output = [&] {
    std::lock_guard<std::mutex> lock(push_mu);
    finished = true;
  };

  Sentinel null_sentinel;
  MemoryDataStore store(ToBuffer("preexisting"));
  SentinelContext ctx;
  ctx.cache = &store;
  EXPECT_EQ(RunStreamPump(null_sentinel, io, ctx), 0);
  EXPECT_TRUE(finished);
  EXPECT_EQ(pushed, "preexisting");
}

TEST(StreamPumpTest, WriterLoopStoresAppBytesSequentially) {
  Buffer input = ToBuffer("written-by-app");
  std::size_t input_pos = 0;

  StreamIo io;
  io.read_from_app = [&](MutableByteSpan out) -> Result<std::size_t> {
    const std::size_t n = std::min(out.size(), input.size() - input_pos);
    std::memcpy(out.data(), input.data() + input_pos, n);
    input_pos += n;
    return n;  // 0 at exhaustion = EOF
  };
  io.write_to_app = [](ByteSpan) { return Status::Ok(); };
  io.finish_output = [] {};

  Sentinel null_sentinel;
  MemoryDataStore store;  // empty: the reader direction stays quiet
  SentinelContext ctx;
  ctx.cache = &store;
  EXPECT_EQ(RunStreamPump(null_sentinel, io, ctx), 0);
  EXPECT_EQ(ToString(ByteSpan(store.contents())), "written-by-app");
}

TEST(StreamPumpTest, AppDisappearingStopsPump) {
  StreamIo io;
  io.read_from_app = [](MutableByteSpan) -> Result<std::size_t> {
    return std::size_t{0};  // app gone immediately
  };
  int pushes = 0;
  io.write_to_app = [&](ByteSpan) -> Status {
    if (++pushes > 2) return ClosedError("app closed pipe");
    return Status::Ok();
  };
  io.finish_output = [] {};

  // Random sentinel would push forever; the closed pipe must stop it.
  class InfiniteSentinel final : public Sentinel {
   public:
    Result<std::size_t> OnRead(SentinelContext&, MutableByteSpan out) override {
      std::fill(out.begin(), out.end(), 0x55);
      return out.size();
    }
  };
  InfiniteSentinel sentinel;
  SentinelContext ctx;
  EXPECT_EQ(RunStreamPump(sentinel, io, ctx), 0);
  EXPECT_EQ(pushes, 3);
}

}  // namespace
}  // namespace afs::sentinel
