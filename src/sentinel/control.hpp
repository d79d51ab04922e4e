// The control protocol: typed commands flowing from application stubs to
// the sentinel, and their responses.  This is what rides the control
// channel of the process-plus-control strategy (paper Section 4.2 — "all
// other file operations are now passed to the sentinel process as commands
// with arguments") and the rendezvous slot of the DLL-with-thread strategy.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"

namespace afs::sentinel {

// Protocol version: byte 0 of every message and response frame.  Both
// ends of a control channel are built from this one tree, so the frames
// have one fixed layout (docs/PROTOCOL.md §3.4) and a decoder accepts only
// this exact version.  A stale sentinel binary fails the open at its
// banner with kProtocolError instead of misparsing commands mid-stream.
inline constexpr std::uint8_t kControlVersion = 5;

// The `data_plane` value a responder stamps when its shared-memory ring is
// attached (zero: pipes only).  An exec'd sentinel whose ring attach
// failed reports zero, and the application link then keeps every payload
// on the pipes.
inline constexpr std::uint8_t kDataPlaneRev = 2;

// Lane bit (messages and responses): the bulk payload of this frame rides
// the shared-memory ring instead of the pipe/frame it would classically
// use.
inline constexpr std::uint8_t kLaneShm = 0x01;

// Cache-lease bits (docs/PROTOCOL.md §3.4, docs/CACHING.md).
// Message side — `cache_flags`:
//   kCacheWantLease  : the client runs a block cache and wants a lease on
//                      this bundle; a sentinel without a grant policy
//                      grants nothing, leaving the client in passthrough.
//   kCacheRecallAck  : the client has dropped its cached blocks for the
//                      epoch the sentinel is recalling; the sentinel clears
//                      its recall latch (idempotent — a lost ack just means
//                      the next op carries it again).
inline constexpr std::uint8_t kCacheWantLease = 0x01;
inline constexpr std::uint8_t kCacheRecallAck = 0x02;
// Response side — `cache_grant`:
//   kGrantRead/kGrantWrite : the sentinel grants a read / read+write lease
//                            for `cache_lease_ms` on content epoch
//                            `cache_epoch`.
//   kGrantRecall           : drop cached blocks now (the upstream changed);
//                            the grant bits remain valid for blocks fetched
//                            AFTER the drop (the new epoch's content).
inline constexpr std::uint8_t kGrantRead = 0x01;
inline constexpr std::uint8_t kGrantWrite = 0x02;
inline constexpr std::uint8_t kGrantRecall = 0x04;

enum class ControlOp : std::uint8_t {
  kRead = 1,     // length
  kWrite = 2,    // length (+ data on the write lane)
  kSeek = 3,     // offset, origin
  kGetSize = 4,
  kSetEof = 5,
  kFlush = 6,
  kLock = 7,     // offset, range_len
  kUnlock = 8,   // offset, range_len
  kCustom = 9,   // payload in/out
  kClose = 10,
  // Vectored multi-block transfers: one crossing for a whole
  // scatter/gather list.  Wire payload is the segment table
  // (u32 count, then count u32 lengths); the bytes travel concatenated on
  // the write lane (kWriteVec) or in the response payload lane (kReadVec).
  kReadVec = 11,
  kWriteVec = 12,
};

struct ControlMessage {
  ControlOp op = ControlOp::kClose;
  std::uint32_t length = 0;      // read/write byte count
  std::int64_t offset = 0;       // seek / lock offset
  std::uint8_t origin = 0;       // vfs::SeekOrigin for kSeek
  std::uint64_t range_len = 0;   // lock length
  Buffer payload;                // kCustom request body

  // Trace propagation: the application-side trace id and the span the
  // sentinel's work should parent under.  Zero means "untraced".
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  // Where this message's bulk payload travels.  kLaneShm set by pipe
  // links that routed the kWrite/kWriteVec bytes through the shared ring;
  // clear means the classic write pipe.
  std::uint8_t lane = 0;

  // Cache-lease request bits (kCacheWantLease, kCacheRecallAck).  Zero
  // from uncached clients.
  std::uint8_t cache_flags = 0;

  // The application's own buffers: the link's input, never serialized and
  // never handed to a sentinel.  A link gathers a kWrite's bytes from
  // inline_in (kWriteVec: the vec_in segments, concatenated) onto its write
  // lane.  Read data comes back in the response payload; only a pipe link
  // scatters shm-lane bytes straight into inline_out/vec_out, and only
  // while the op is still awaiting its answer.  For vectored ops the wire
  // carries the segment table in `payload`.
  ByteSpan inline_in{};
  MutableByteSpan inline_out{};
  std::vector<ByteSpan> vec_in;
  std::vector<MutableByteSpan> vec_out;
};

struct ControlResponse {
  Status status;            // the sentinel-side outcome of the operation
  std::uint64_t number = 0;  // count / position / size, op-dependent
  Buffer payload;            // read data (pipe lane) or kCustom reply

  // Liveness beacon, not an answer to any command: an idle sentinel emits
  // heartbeat frames on the response channel so the supervisor's lease
  // protocol can distinguish "idle" from "dead/wedged".  Application stubs
  // skip these frames (renewing the lease) while waiting for a real
  // response.
  bool heartbeat = false;

  // Spans the sentinel completed while serving this command; the
  // application-side link adopts them into its TraceLog, which is how one
  // trace crosses the process boundary.
  std::vector<obs::SpanRecord> remote_spans;

  // kDataPlaneRev when the responder's shared ring is attached, else 0;
  // and, when `lane` has kLaneShm set, the length of the payload waiting
  // in the ring instead of the frame.
  std::uint8_t data_plane = 0;
  std::uint8_t lane = 0;
  std::uint32_t lane_len = 0;

  // When `status` is kOverloaded, how long (milliseconds) the responder
  // suggests the client wait before retrying.  Zero on non-shed
  // responses.
  std::uint32_t retry_after_ms = 0;

  // The cache-lease grant (kGrantRead/kGrantWrite/kGrantRecall), its
  // duration, and the sentinel's content epoch.  All zero from sentinels
  // that grant nothing — the client then holds no lease and serves every
  // op through the link (uncached passthrough).
  std::uint8_t cache_grant = 0;
  std::uint32_t cache_lease_ms = 0;
  std::uint32_t cache_epoch = 0;
};

// Wire codecs (the span fields are intentionally not carried).
Buffer EncodeControlMessage(const ControlMessage& message);
// Link-side variant: stamps `lane` without copying the message.
Buffer EncodeControlMessage(const ControlMessage& message, std::uint8_t lane);
Result<ControlMessage> DecodeControlMessage(ByteSpan bytes);

Buffer EncodeControlResponse(const ControlResponse& response);
// Endpoint-side variant: stamps `data_plane` and `lane` without copying
// the response.  When `lane` has kLaneShm set the payload bytes are omitted
// from the frame (they ride the ring) and `lane_len` carries their count.
Buffer EncodeControlResponse(const ControlResponse& response,
                             std::uint8_t data_plane, std::uint8_t lane);
Result<ControlResponse> DecodeControlResponse(ByteSpan bytes);

}  // namespace afs::sentinel
