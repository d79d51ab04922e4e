#include "sentinel/control.hpp"

namespace afs::sentinel {

namespace {

// Response flag bits (wire byte after the version).
constexpr std::uint8_t kResponseFlagHeartbeat = 0x01;
constexpr std::uint8_t kResponseFlagRing = 0x02;

// Consumes and checks the leading version byte.
Status ReadVersion(ByteReader& reader, const char* frame) {
  std::uint8_t version = 0;
  if (!reader.ReadU8(version)) {
    return ProtocolError(std::string("empty control ") + frame);
  }
  if (version != kControlVersion) {
    return ProtocolError("control " + std::string(frame) + " version " +
                         std::to_string(version) + ", expected " +
                         std::to_string(kControlVersion) +
                         " (stale sentinel binary?)");
  }
  return Status::Ok();
}

}  // namespace

Buffer EncodeControlMessage(const ControlMessage& message) {
  return EncodeControlMessage(message, message.lane);
}

Buffer EncodeControlMessage(const ControlMessage& message, std::uint8_t lane) {
  Buffer out;
  out.reserve(1 + 1 + 4 + 8 + 1 + 8 + 16 + 2 + 4 + message.payload.size());
  out.push_back(kControlVersion);
  out.push_back(static_cast<std::uint8_t>(message.op));
  AppendU32(out, message.length);
  AppendU64(out, static_cast<std::uint64_t>(message.offset));
  out.push_back(message.origin);
  AppendU64(out, message.range_len);
  AppendU64(out, message.trace_id);
  AppendU64(out, message.parent_span);
  out.push_back(lane);
  out.push_back(message.cache_flags);
  AppendLenPrefixed(out, ByteSpan(message.payload));
  return out;
}

Result<ControlMessage> DecodeControlMessage(ByteSpan bytes) {
  ByteReader reader(bytes);
  AFS_RETURN_IF_ERROR(ReadVersion(reader, "message"));
  ControlMessage message;
  std::uint8_t op = 0;
  std::uint64_t offset = 0;
  ByteSpan payload;
  if (!reader.ReadU8(op) || !reader.ReadU32(message.length) ||
      !reader.ReadU64(offset) || !reader.ReadU8(message.origin) ||
      !reader.ReadU64(message.range_len) ||
      !reader.ReadU64(message.trace_id) ||
      !reader.ReadU64(message.parent_span) || !reader.ReadU8(message.lane) ||
      !reader.ReadU8(message.cache_flags) || !reader.ReadLenPrefixed(payload)) {
    return ProtocolError("malformed control message");
  }
  if (!reader.empty()) {
    return ProtocolError("trailing bytes after control message");
  }
  if (op < static_cast<std::uint8_t>(ControlOp::kRead) ||
      op > static_cast<std::uint8_t>(ControlOp::kWriteVec)) {
    return ProtocolError("unknown control op " + std::to_string(op));
  }
  message.op = static_cast<ControlOp>(op);
  message.offset = static_cast<std::int64_t>(offset);
  message.payload.assign(payload.begin(), payload.end());
  return message;
}

Buffer EncodeControlResponse(const ControlResponse& response) {
  return EncodeControlResponse(response, response.data_plane, response.lane);
}

Buffer EncodeControlResponse(const ControlResponse& response,
                             std::uint8_t data_plane, std::uint8_t lane) {
  // When the payload rides the shm lane its bytes are omitted from the
  // frame; lane_len tells the link how many to pull off the ring.
  const bool shm_lane = (lane & kLaneShm) != 0;
  const std::uint32_t lane_len =
      shm_lane ? static_cast<std::uint32_t>(response.payload.size()) : 0;
  // The shed hint: when the responder only tagged it into the status
  // message, lift it into the typed field so every reader sees it the
  // same way (zero on non-overloaded responses).
  std::uint32_t retry_after_ms = response.retry_after_ms;
  if (retry_after_ms == 0 &&
      response.status.code() == ErrorCode::kOverloaded) {
    retry_after_ms =
        static_cast<std::uint32_t>(RetryAfterHintMs(response.status));
  }
  std::uint8_t flags = response.heartbeat ? kResponseFlagHeartbeat : 0;
  if (data_plane == kDataPlaneRev) flags |= kResponseFlagRing;
  Buffer out;
  out.reserve(1 + 1 + 2 + 8 + 1 + 4 + 4 + 9 + 4 +
              response.status.message().size() + 4 +
              (shm_lane ? 0 : response.payload.size()) + 4);
  out.push_back(kControlVersion);
  out.push_back(flags);
  AppendU16(out, static_cast<std::uint16_t>(response.status.code()));
  AppendU64(out, response.number);
  out.push_back(lane);
  AppendU32(out, lane_len);
  AppendU32(out, retry_after_ms);
  out.push_back(response.cache_grant);
  AppendU32(out, response.cache_lease_ms);
  AppendU32(out, response.cache_epoch);
  AppendLenPrefixed(out, response.status.message());
  AppendLenPrefixed(out, shm_lane ? ByteSpan() : ByteSpan(response.payload));
  obs::AppendSpans(out, response.remote_spans);
  return out;
}

Result<ControlResponse> DecodeControlResponse(ByteSpan bytes) {
  ByteReader reader(bytes);
  AFS_RETURN_IF_ERROR(ReadVersion(reader, "response"));
  std::uint8_t flags = 0;
  std::uint16_t code = 0;
  std::string message;
  ControlResponse response;
  ByteSpan payload;
  if (!reader.ReadU8(flags) || !reader.ReadU16(code) ||
      !reader.ReadU64(response.number) || !reader.ReadU8(response.lane) ||
      !reader.ReadU32(response.lane_len) ||
      !reader.ReadU32(response.retry_after_ms) ||
      !reader.ReadU8(response.cache_grant) ||
      !reader.ReadU32(response.cache_lease_ms) ||
      !reader.ReadU32(response.cache_epoch) ||
      !reader.ReadLenPrefixedString(message) ||
      !reader.ReadLenPrefixed(payload) ||
      !obs::ReadSpans(reader, response.remote_spans)) {
    return ProtocolError("malformed control response");
  }
  if (!reader.empty()) {
    return ProtocolError("trailing bytes after control response");
  }
  response.status = Status(static_cast<ErrorCode>(code), std::move(message));
  response.payload.assign(payload.begin(), payload.end());
  response.heartbeat = (flags & kResponseFlagHeartbeat) != 0;
  response.data_plane = (flags & kResponseFlagRing) != 0 ? kDataPlaneRev : 0;
  return response;
}

}  // namespace afs::sentinel
