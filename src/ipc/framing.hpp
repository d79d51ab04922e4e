// Length-prefixed message framing over pipe ends.  The process-plus-control
// strategy sends typed commands ("read 50", "write 30", …) over the control
// pipe; frames give those commands boundaries on a byte-stream transport.
// One WriteFrame is one writev(2) of header plus payload; one ReadFrame is
// usually one read of the header and one of the body (pipe.hpp: the
// descriptors are non-blocking, so a read only waits when it hits EAGAIN).
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "ipc/pipe.hpp"

namespace afs::ipc {

// Maximum accepted frame payload.  Large enough for any control message or
// data block the strategies move; bounds memory on a corrupt length prefix.
inline constexpr std::size_t kMaxFrameBytes = 16 * 1024 * 1024;

// Writes a u32 little-endian length followed by the payload, both in one
// gathered WriteAll.  Every stall against a full pipe waits at most
// `timeout` (kTimeout when the peer stops draining); non-positive waits
// forever.
Status WriteFrame(PipeEnd& pipe, ByteSpan payload, Micros timeout = {});

// Reads one frame; kClosed at clean EOF (no partial frame read), kProtocol
// on oversized length, kClosed on truncation mid-frame.  Each wait — for
// the frame to start, and for the rest of its header and body — is capped
// by `timeout` (kTimeout otherwise); non-positive waits forever.
Result<Buffer> ReadFrame(PipeEnd& pipe, Micros timeout = {});

// Incremental frame reassembly for event-loop transports: feed whatever
// bytes arrived (Append), pop complete frames (Next).  The push-mode twin
// of ReadFrame — a readiness callback can never block waiting for the rest
// of a frame, so partial frames accumulate here between wakeups.
class FrameDecoder {
 public:
  // Buffers `bytes` (an arbitrary slice of the stream, frame-aligned or
  // not).  kProtocol once an in-progress frame's length prefix exceeds
  // kMaxFrameBytes; the decoder is then poisoned and must be discarded.
  Status Append(ByteSpan bytes);

  // Pops the next complete frame, or std::nullopt when more bytes are
  // needed.  Call in a loop: one Append may complete several frames.
  std::optional<Buffer> Next();

  // Bytes buffered but not yet returned (partial frame).  A non-zero value
  // at connection EOF means the peer died mid-frame.
  std::size_t pending_bytes() const noexcept { return buffer_.size(); }

 private:
  Buffer buffer_;
  bool poisoned_ = false;
};

}  // namespace afs::ipc
