#include "ipc/framing.hpp"

#include "common/faultpoint.hpp"
#include "obs/metrics.hpp"

namespace afs::ipc {

namespace {

// Frame-layer instrumentation: every control/response frame in the system
// funnels through these two functions, so two counters per direction give
// the per-op IPC cost picture (frames ≈ pipe round-trips / 2).
struct FrameMetrics {
  obs::Counter& frames;
  obs::Counter& bytes;

  FrameMetrics(const char* count_name, const char* bytes_name)
      : frames(obs::Registry::Global().GetCounter(count_name)),
        bytes(obs::Registry::Global().GetCounter(bytes_name)) {}
};

// Registered at static-init time, not lazily at first use: the first frame
// a forked sentinel child writes is its open banner, and registering a
// counter there would take the registry mutex inside a process whose other
// threads no longer exist — a fork-inherited-lock deadlock.  Eagerly
// initialized, the child's frame path is pure lock-free cell updates.
FrameMetrics& WriteMetrics() {
  static FrameMetrics metrics("ipc.frame.write.count",
                              "ipc.frame.write.bytes");
  return metrics;
}

FrameMetrics& ReadMetrics() {
  static FrameMetrics metrics("ipc.frame.read.count", "ipc.frame.read.bytes");
  return metrics;
}

obs::Counter& ReadTimeouts() {
  static obs::Counter& timeouts =
      obs::Registry::Global().GetCounter("ipc.frame.read.timeouts");
  return timeouts;
}

const bool kMetricsRegisteredEarly = [] {
  WriteMetrics();
  ReadMetrics();
  ReadTimeouts();
  return true;
}();

// The u32 little-endian length prefix at `header`; kProtocol when it
// exceeds kMaxFrameBytes (a corrupt peer must not size our buffers).
Result<std::size_t> FrameLength(const std::uint8_t* header) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return ProtocolError("frame length " + std::to_string(len) +
                         " exceeds limit");
  }
  return std::size_t{len};
}

Result<Buffer> ReadFrameBytes(PipeEnd& pipe, Micros timeout) {
  std::uint8_t header[4];
  // The first read waits for the frame to start; reading nothing there is
  // a clean EOF between frames, while any later shortfall is truncation.
  AFS_ASSIGN_OR_RETURN(std::size_t first,
                       pipe.ReadSome(MutableByteSpan(header), timeout));
  if (first == 0) return ClosedError("frame stream ended");
  AFS_RETURN_IF_ERROR(
      pipe.ReadExact(MutableByteSpan(header).subspan(first), timeout));
  AFS_ASSIGN_OR_RETURN(std::size_t len, FrameLength(header));
  Buffer payload(len);
  AFS_RETURN_IF_ERROR(pipe.ReadExact(MutableByteSpan(payload), timeout));
  return payload;
}

}  // namespace

Status WriteFrame(PipeEnd& pipe, ByteSpan payload, Micros timeout) {
  FrameMetrics& metrics = WriteMetrics();
  AFS_FAULT_POINT("ipc.frame.write");
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xff);
  }
  AFS_RETURN_IF_ERROR(pipe.WriteAll({ByteSpan(header), payload}, timeout));
  metrics.frames.Add(1);
  metrics.bytes.Add(4 + payload.size());
  return Status::Ok();
}

Result<Buffer> ReadFrame(PipeEnd& pipe, Micros timeout) {
  FrameMetrics& metrics = ReadMetrics();
  AFS_FAULT_POINT("ipc.frame.read");
  Result<Buffer> payload = ReadFrameBytes(pipe, timeout);
  if (!payload.ok()) {
    if (payload.status().code() == ErrorCode::kTimeout) ReadTimeouts().Add(1);
    return payload;
  }
  metrics.frames.Add(1);
  metrics.bytes.Add(4 + payload->size());
  return payload;
}

Status FrameDecoder::Append(ByteSpan bytes) {
  if (poisoned_) return ProtocolError("frame decoder poisoned");
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the length prefix as soon as it is complete so a corrupt peer
  // is rejected before it makes us buffer an arbitrary amount.
  if (buffer_.size() >= 4) {
    const Result<std::size_t> len = FrameLength(buffer_.data());
    if (!len.ok()) {
      poisoned_ = true;
      return len.status();
    }
  }
  return Status::Ok();
}

std::optional<Buffer> FrameDecoder::Next() {
  if (poisoned_ || buffer_.size() < 4) return std::nullopt;
  const Result<std::size_t> len = FrameLength(buffer_.data());
  if (!len.ok()) return std::nullopt;
  const std::size_t total = 4 + *len;
  if (buffer_.size() < total) return std::nullopt;
  FrameMetrics& metrics = ReadMetrics();
  Buffer payload(buffer_.begin() + 4, buffer_.begin() + total);
  buffer_.erase(buffer_.begin(), buffer_.begin() + total);
  metrics.frames.Add(1);
  metrics.bytes.Add(total);
  return payload;
}

}  // namespace afs::ipc
