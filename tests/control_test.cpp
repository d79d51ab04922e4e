// Control-protocol codec tests plus link/endpoint transports in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "core/links.hpp"
#include "ipc/framing.hpp"
#include "ipc/shm_ring.hpp"
#include "sentinel/control.hpp"
#include "test_util.hpp"

namespace afs::sentinel {
namespace {

TEST(ControlCodecTest, MessageRoundTrip) {
  ControlMessage msg;
  msg.op = ControlOp::kSeek;
  msg.length = 123;
  msg.offset = -45;
  msg.origin = 2;
  msg.range_len = 999;
  msg.payload = ToBuffer("custom");

  auto decoded = DecodeControlMessage(ByteSpan(EncodeControlMessage(msg)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->op, ControlOp::kSeek);
  EXPECT_EQ(decoded->length, 123u);
  EXPECT_EQ(decoded->offset, -45);
  EXPECT_EQ(decoded->origin, 2);
  EXPECT_EQ(decoded->range_len, 999u);
  EXPECT_EQ(ToString(ByteSpan(decoded->payload)), "custom");
  // Inline lanes never cross the wire.
  EXPECT_TRUE(decoded->inline_in.empty());
  EXPECT_TRUE(decoded->inline_out.empty());
}

TEST(ControlCodecTest, AllOpsSurvive) {
  for (auto op : {ControlOp::kRead, ControlOp::kWrite, ControlOp::kSeek,
                  ControlOp::kGetSize, ControlOp::kSetEof, ControlOp::kFlush,
                  ControlOp::kLock, ControlOp::kUnlock, ControlOp::kCustom,
                  ControlOp::kClose}) {
    ControlMessage msg;
    msg.op = op;
    auto decoded = DecodeControlMessage(ByteSpan(EncodeControlMessage(msg)));
    ASSERT_OK(decoded.status());
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(ControlCodecTest, GarbageRejected) {
  Buffer junk = {0x00};
  EXPECT_EQ(DecodeControlMessage(ByteSpan(junk)).status().code(),
            ErrorCode::kProtocolError);
  Buffer bad_op = EncodeControlMessage(ControlMessage{});
  bad_op[1] = 0xEE;  // byte 0 is the version, byte 1 the op
  EXPECT_EQ(DecodeControlMessage(ByteSpan(bad_op)).status().code(),
            ErrorCode::kProtocolError);
}

TEST(ControlCodecTest, ResponseRoundTrip) {
  ControlResponse resp;
  resp.status = OutOfRangeError("past eof");
  resp.number = 777;
  resp.payload = ToBuffer("tail");
  auto decoded = DecodeControlResponse(ByteSpan(EncodeControlResponse(resp)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->status.code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(decoded->status.message(), "past eof");
  EXPECT_EQ(decoded->number, 777u);
  EXPECT_EQ(ToString(ByteSpan(decoded->payload)), "tail");
}

TEST(ControlCodecTest, OverloadedResponseCarriesTypedRetryAfter) {
  // The responder only tagged the hint into the status message; the v3
  // encoder lifts it into the typed field so every peer sees it uniformly.
  ControlResponse resp;
  resp.status = OverloadedError("admission shed", 25);
  auto decoded = DecodeControlResponse(ByteSpan(EncodeControlResponse(resp)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(decoded->retry_after_ms, 25u);
  EXPECT_EQ(RetryAfterHintMs(decoded->status), 25);
}

TEST(ControlCodecTest, ExplicitRetryAfterFieldBeatsTheMessageTag) {
  ControlResponse resp;
  resp.status = OverloadedError("admission shed", 25);
  resp.retry_after_ms = 40;  // the typed field is authoritative
  auto decoded = DecodeControlResponse(ByteSpan(EncodeControlResponse(resp)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->retry_after_ms, 40u);
}

// A message and a response with every field populated, so each byte of
// the fixed layout is exercised by the truncation sweep below.
ControlMessage FullMessage() {
  ControlMessage msg;
  msg.op = ControlOp::kWriteVec;
  msg.length = 4096;
  msg.offset = -17;
  msg.origin = 1;
  msg.range_len = 99;
  msg.payload = ToBuffer("segment-table");
  msg.trace_id = 0x1111;
  msg.parent_span = 0x2222;
  msg.lane = kLaneShm;
  msg.cache_flags = kCacheWantLease;
  return msg;
}

ControlResponse FullResponse() {
  ControlResponse resp;
  resp.status = OverloadedError("shed", 30);
  resp.number = 4096;
  resp.payload = ToBuffer("read-bytes");
  resp.remote_spans.push_back(
      obs::SpanRecord{0x1111, 0x3333, 0x2222, 7, 100, 5, "sentinel.read"});
  resp.data_plane = kDataPlaneRev;
  resp.cache_grant = kGrantRead;
  resp.cache_lease_ms = 500;
  resp.cache_epoch = 9;
  return resp;
}

TEST(ControlCodecTest, EveryStrictPrefixIsRejected) {
  const Buffer message = EncodeControlMessage(FullMessage());
  ASSERT_OK(DecodeControlMessage(ByteSpan(message)).status());
  for (std::size_t n = 0; n < message.size(); ++n) {
    EXPECT_EQ(DecodeControlMessage(ByteSpan(message.data(), n))
                  .status()
                  .code(),
              ErrorCode::kProtocolError)
        << "message prefix of " << n << " bytes";
  }
  const Buffer response = EncodeControlResponse(FullResponse());
  ASSERT_OK(DecodeControlResponse(ByteSpan(response)).status());
  for (std::size_t n = 0; n < response.size(); ++n) {
    EXPECT_EQ(DecodeControlResponse(ByteSpan(response.data(), n))
                  .status()
                  .code(),
              ErrorCode::kProtocolError)
        << "response prefix of " << n << " bytes";
  }
}

TEST(ControlCodecTest, WrongVersionIsRejected) {
  Buffer message = EncodeControlMessage(FullMessage());
  Buffer response = EncodeControlResponse(FullResponse());
  ASSERT_EQ(message[0], kControlVersion);
  ASSERT_EQ(response[0], kControlVersion);
  const std::uint8_t next = kControlVersion + 1;
  for (std::uint8_t version : {std::uint8_t{0}, std::uint8_t{4}, next}) {
    message[0] = version;
    response[0] = version;
    EXPECT_EQ(DecodeControlMessage(ByteSpan(message)).status().code(),
              ErrorCode::kProtocolError);
    EXPECT_EQ(DecodeControlResponse(ByteSpan(response)).status().code(),
              ErrorCode::kProtocolError);
  }
}

TEST(ControlCodecTest, TrailingBytesAreRejected) {
  Buffer message = EncodeControlMessage(FullMessage());
  Buffer response = EncodeControlResponse(FullResponse());
  message.push_back(0);
  response.push_back(0);
  EXPECT_EQ(DecodeControlMessage(ByteSpan(message)).status().code(),
            ErrorCode::kProtocolError);
  EXPECT_EQ(DecodeControlResponse(ByteSpan(response)).status().code(),
            ErrorCode::kProtocolError);
}

TEST(ControlCodecTest, RingAttachAndHeartbeatFlagsRoundTrip) {
  // Ring attachment and heartbeat share the response flags byte; each
  // must survive without disturbing the other.
  for (bool ring : {false, true}) {
    for (bool heartbeat : {false, true}) {
      ControlResponse resp = FullResponse();
      resp.heartbeat = heartbeat;
      const Buffer wire =
          EncodeControlResponse(resp, ring ? kDataPlaneRev : 0, kLaneShm);
      auto decoded = DecodeControlResponse(ByteSpan(wire));
      ASSERT_OK(decoded.status());
      EXPECT_EQ(decoded->data_plane, ring ? kDataPlaneRev : 0);
      EXPECT_EQ(decoded->heartbeat, heartbeat);
      EXPECT_EQ(decoded->lane, kLaneShm);
      // The shm lane carries the payload beside the frame, not in it.
      EXPECT_EQ(decoded->lane_len, resp.payload.size());
      EXPECT_TRUE(decoded->payload.empty());
      ASSERT_EQ(decoded->remote_spans.size(), 1u);
      EXPECT_EQ(decoded->remote_spans[0].name, "sentinel.read");
    }
  }
}

// ---- transports -------------------------------------------------------

TEST(PipeLinkTest, WrongVersionBannerFailsTheOpen) {
  // A stale sentinel binary speaks another frame version; its open banner
  // is the first frame the link decodes, so the mismatch surfaces there.
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpointFds endpoint = std::move(pair->second);
  Buffer banner = EncodeControlResponse(ControlResponse{});
  banner[0] = kControlVersion - 1;
  ASSERT_OK(ipc::WriteFrame(endpoint.response_write, ByteSpan(banner)));
  EXPECT_EQ(link.AF_GetResponse().status().code(),
            ErrorCode::kProtocolError);
}

TEST(PipeLinkTest, CommandAndResponseCrossPipes) {
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpoint endpoint(std::move(pair->second));

  std::thread sentinel_side([&] {
    auto msg = endpoint.AF_GetControl();
    ASSERT_OK(msg.status());
    EXPECT_EQ(msg->op, ControlOp::kWrite);
    EXPECT_EQ(msg->length, 5u);
    // Write payload travels out-of-line on the write pipe.
    auto data = endpoint.AF_GetDataFromAppl(5);
    ASSERT_OK(data.status());
    EXPECT_EQ(ToString(ByteSpan(*data)), "hello");
    ControlResponse resp;
    resp.number = 5;
    ASSERT_OK(endpoint.AF_SendResponse(resp));
  });

  ControlMessage msg;
  msg.op = ControlOp::kWrite;
  msg.length = 5;
  const std::string payload = "hello";
  msg.inline_in = AsBytes(payload);
  ASSERT_OK(link.AF_SendControl(msg));
  auto resp = link.AF_GetResponse();
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->number, 5u);
  sentinel_side.join();
}

TEST(PipeLinkTest, ShutdownGivesEofToEndpoint) {
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpoint endpoint(std::move(pair->second));
  link.Shutdown();
  EXPECT_EQ(endpoint.AF_GetControl().status().code(), ErrorCode::kClosed);
}

TEST(PipeLinkTest, LateShmAnswerDrainedAfterTimeoutMissesTheCallerBuffer) {
  // A shm-lane answer that lands after its read timed out is drained by
  // the heartbeat poll into the response payload, never into the spans of
  // the abandoned read.
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  auto ring = ipc::ShmRing::Create(std::size_t{1} << 20);
  ASSERT_OK(ring.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpoint endpoint(std::move(pair->second));
  link.set_shm(*ring, 4096);
  endpoint.set_shm(*ring, 4096);
  link.set_response_timeout(Micros{50'000});

  // The banner tells the link that the sentinel attached the ring.
  ASSERT_OK(endpoint.AF_SendResponse(ControlResponse{}));
  ASSERT_OK(link.AF_GetResponse().status());

  constexpr std::size_t kBytes = 64 * 1024;
  Buffer caller(kBytes, 'Z');
  ControlMessage read;
  read.op = ControlOp::kRead;
  read.length = kBytes;
  read.inline_out = MutableByteSpan(caller);
  ASSERT_OK(link.AF_SendControl(read));
  EXPECT_STATUS_CODE(link.AF_GetResponse().status(), ErrorCode::kTimeout);

  // The stalled sentinel answers now, its bytes on the ring.
  ASSERT_OK(endpoint.AF_GetControl().status());
  ControlResponse late;
  late.number = kBytes;
  late.payload.assign(kBytes, 'L');
  ASSERT_OK(endpoint.AF_SendResponse(std::move(late)));
  link.PollHeartbeats();
  EXPECT_EQ(caller, Buffer(kBytes, 'Z'));
  auto stashed = link.AF_GetResponse();
  ASSERT_OK(stashed.status());
  EXPECT_EQ(stashed->payload, Buffer(kBytes, 'L'));
}

TEST(ThreadRendezvousTest, SlotOwnsTheBytesOfTheOpInFlight) {
  // The slot, not the caller, owns an op's bytes: the command the sentinel
  // side takes carries no span into application memory, write bytes come
  // out of the slot's data lane, and read bytes go back in the payload.
  core::ThreadRendezvous rendezvous;
  // A failed check on the sentinel side leaves a command unanswered.
  rendezvous.set_response_timeout(Micros{5'000'000});

  std::thread sentinel_side([&] {
    for (const char* expected : {"hello", "abcde"}) {
      auto msg = rendezvous.AF_GetControl();
      ASSERT_OK(msg.status());
      EXPECT_TRUE(msg->inline_in.empty());
      EXPECT_TRUE(msg->vec_in.empty());
      auto data = rendezvous.AF_GetDataFromAppl(5);
      ASSERT_OK(data.status());
      EXPECT_EQ(ToString(ByteSpan(*data)), expected);
      ControlResponse resp;
      resp.number = 5;
      ASSERT_OK(rendezvous.AF_SendResponse(resp));
    }
    auto msg = rendezvous.AF_GetControl();
    ASSERT_OK(msg.status());
    EXPECT_EQ(msg->op, ControlOp::kRead);
    EXPECT_TRUE(msg->inline_out.empty());
    EXPECT_TRUE(msg->vec_out.empty());
    ControlResponse resp;
    resp.number = 6;
    resp.payload = ToBuffer("direct");
    ASSERT_OK(rendezvous.AF_SendResponse(std::move(resp)));
  });

  std::string source = "hello";
  ControlMessage write;
  write.op = ControlOp::kWrite;
  write.length = 5;
  write.inline_in = AsBytes(source);
  ASSERT_OK(rendezvous.AF_SendControl(write));
  // The slot copied the bytes: the caller may reuse its buffer at once.
  std::fill(source.begin(), source.end(), 'X');
  ASSERT_OK(rendezvous.AF_GetResponse().status());

  const std::string head = "ab";
  const std::string tail = "cde";
  ControlMessage gather;
  gather.op = ControlOp::kWriteVec;
  gather.length = 5;
  gather.vec_in = {AsBytes(head), AsBytes(tail)};
  ASSERT_OK(rendezvous.AF_SendControl(gather));
  ASSERT_OK(rendezvous.AF_GetResponse().status());

  Buffer user_buffer(6, 0);
  ControlMessage read;
  read.op = ControlOp::kRead;
  read.length = 6;
  read.inline_out = MutableByteSpan(user_buffer);
  ASSERT_OK(rendezvous.AF_SendControl(read));
  auto resp = rendezvous.AF_GetResponse();
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->number, 6u);
  EXPECT_EQ(ToString(ByteSpan(resp->payload)), "direct");
  // Copying the payload out is the caller's one copy; the slot never
  // wrote into the caller's buffer.
  EXPECT_EQ(user_buffer, Buffer(6, 0));
  sentinel_side.join();
}

TEST(ThreadRendezvousTest, ShutdownUnblocksBothSides) {
  core::ThreadRendezvous rendezvous;
  std::thread waiter([&] {
    EXPECT_EQ(rendezvous.AF_GetControl().status().code(), ErrorCode::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rendezvous.Shutdown();
  waiter.join();
  ControlMessage msg;
  EXPECT_EQ(rendezvous.AF_SendControl(msg).code(), ErrorCode::kClosed);
  EXPECT_EQ(rendezvous.AF_GetResponse().status().code(), ErrorCode::kClosed);
}

TEST(ThreadRendezvousTest, BoundedResponseWaitSpinsInsideItsDeadline) {
  // The spin before the park is part of the op's wait: with nobody to
  // answer, a 200 µs bound ends in kTimeout, never before the bound and
  // 20 times in a row inside 2 ms each on average (the sum is asserted, so
  // one preemption on a loaded host does not fail the test).
  core::ThreadRendezvous rendezvous;
  rendezvous.set_response_timeout(Micros{200});
  ControlMessage msg;
  msg.op = ControlOp::kGetSize;
  ASSERT_OK(rendezvous.AF_SendControl(msg));
  const auto first = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(rendezvous.AF_GetResponse().status().code(),
              ErrorCode::kTimeout);
    EXPECT_GE(std::chrono::steady_clock::now() - start, Micros{200})
        << "call " << i;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - first,
            std::chrono::milliseconds(40));
}

TEST(ThreadRendezvousTest, ShutdownWakesSpinningWaitersWithClosed) {
  // Shutdown lands microseconds after each waiter starts, inside its spin
  // on most rounds and after it parked on the rest; either way the wait
  // ends in kClosed.
  for (int round = 0; round < 50; ++round) {
    core::ThreadRendezvous rendezvous;
    std::atomic<int> started{0};
    std::thread app_side([&] {
      started.fetch_add(1);
      EXPECT_EQ(rendezvous.AF_GetResponse().status().code(),
                ErrorCode::kClosed);
    });
    std::thread sentinel_side([&] {
      started.fetch_add(1);
      EXPECT_EQ(rendezvous.AF_GetControl().status().code(),
                ErrorCode::kClosed);
    });
    while (started.load() < 2) std::this_thread::yield();
    rendezvous.Shutdown();
    app_side.join();
    sentinel_side.join();
  }
}

TEST(ThreadRendezvousTest, SequentialCommands) {
  core::ThreadRendezvous rendezvous;
  std::thread sentinel_side([&] {
    for (int i = 0; i < 100; ++i) {
      auto msg = rendezvous.AF_GetControl();
      ASSERT_OK(msg.status());
      ControlResponse resp;
      resp.number = msg->length * 2;
      ASSERT_OK(rendezvous.AF_SendResponse(resp));
    }
  });
  for (int i = 0; i < 100; ++i) {
    ControlMessage msg;
    msg.op = ControlOp::kGetSize;
    msg.length = static_cast<std::uint32_t>(i);
    ASSERT_OK(rendezvous.AF_SendControl(msg));
    auto resp = rendezvous.AF_GetResponse();
    ASSERT_OK(resp.status());
    EXPECT_EQ(resp->number, static_cast<std::uint64_t>(i) * 2);
  }
  sentinel_side.join();
}

}  // namespace
}  // namespace afs::sentinel
