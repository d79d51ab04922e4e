#include "core/links.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/faultpoint.hpp"
#include "common/spin_wait.hpp"
#include "core/cache.hpp"
#include "core/supervisor.hpp"
#include "ipc/framing.hpp"
#include "sentinel/dispatch.hpp"

namespace afs::core {

using ipc::kIoLegTimeout;
using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;
using sentinel::DecodeControlMessage;
using sentinel::DecodeControlResponse;
using sentinel::EncodeControlMessage;
using sentinel::EncodeControlResponse;

namespace {

// Idle re-arm slice for the endpoint's command wait when no heartbeat
// cadence is configured: the wait becomes a sequence of bounded polls.
constexpr Micros kIdleWaitSlice{500'000};

// Total bulk bytes a message would push through the write lane.
std::size_t OutboundPayloadSize(const ControlMessage& message) {
  if (message.op == ControlOp::kWrite) return message.inline_in.size();
  if (message.op == ControlOp::kWriteVec) {
    std::size_t total = 0;
    for (ByteSpan segment : message.vec_in) total += segment.size();
    return total;
  }
  return 0;
}

// The command as the sentinel side of an in-process slot sees it: every
// field a wire frame carries, none of the caller's spans.
ControlMessage WithoutSpans(const ControlMessage& message) {
  ControlMessage owned = message;
  owned.inline_in = {};
  owned.inline_out = {};
  owned.vec_in.clear();
  owned.vec_out.clear();
  return owned;
}

// A write's bytes (kWriteVec: its segments, concatenated) in one buffer.
Buffer GatherWriteBytes(const ControlMessage& message) {
  Buffer data;
  data.reserve(OutboundPayloadSize(message));
  data.insert(data.end(), message.inline_in.begin(), message.inline_in.end());
  for (ByteSpan segment : message.vec_in) {
    data.insert(data.end(), segment.begin(), segment.end());
  }
  return data;
}

// Retry hint for an op shed off a congested shm ring: the reader has a
// whole ring of buffered bytes to drain first, so the hint is coarser
// than the admission default.
constexpr std::int64_t kRingShedHintMs = 25;

// A ring is congested when earlier bytes are still parked in it: the link
// protocol runs one op at a time and the peer drains the lane fully per
// op, so at send time a healthy ring is empty.  Payloads larger than the
// whole ring stream through a draining reader and are exempt.
bool RingCongested(const ipc::ShmRing& ring, int dir, std::size_t out_len) {
  const std::size_t capacity = ring.ring_bytes();
  const std::size_t free_bytes = capacity - ring.buffered(dir);
  return free_bytes < std::min(out_len, capacity);
}

}  // namespace

ShmConfig ParseShmConfig(const std::map<std::string, std::string>& config) {
  ShmConfig parsed;
  if (auto it = config.find("shm_threshold"); it != config.end()) {
    if (it->second == "off") {
      parsed.enabled = false;
    } else {
      const long value = std::strtol(it->second.c_str(), nullptr, 10);
      if (value > 0) parsed.threshold = static_cast<std::size_t>(value);
    }
  }
  if (auto it = config.find("shm_ring_bytes"); it != config.end()) {
    const long value = std::strtol(it->second.c_str(), nullptr, 10);
    if (value > 0) parsed.ring_bytes = static_cast<std::size_t>(value);
  }
  return parsed;
}

Result<std::pair<PipeLinkFds, PipeEndpointFds>> CreatePipePair() {
  AFS_ASSIGN_OR_RETURN(ipc::Pipe control, ipc::Pipe::Create());
  AFS_ASSIGN_OR_RETURN(ipc::Pipe response, ipc::Pipe::Create());
  AFS_ASSIGN_OR_RETURN(ipc::Pipe data, ipc::Pipe::Create());
  PipeLinkFds link;
  link.control_write = std::move(control.write_end);
  link.response_read = std::move(response.read_end);
  link.data_write = std::move(data.write_end);
  PipeEndpointFds endpoint;
  endpoint.control_read = std::move(control.read_end);
  endpoint.response_write = std::move(response.write_end);
  endpoint.data_read = std::move(data.read_end);
  return std::make_pair(std::move(link), std::move(endpoint));
}

void PipeLink::set_shm(std::shared_ptr<ipc::ShmRing> ring,
                       std::size_t threshold) {
  ring_ = std::move(ring);
  shm_threshold_ = threshold;
}

Status PipeLink::AF_SendControl(const ControlMessage& message) {
  AFS_FAULT_POINT("core.link.send");
  // Outbound legs are bounded by the op deadline when configured, by the
  // generic pipe bound otherwise: a sentinel that stopped draining its
  // control pipe costs this op kTimeout, never a parked application.
  const Micros bound =
      response_timeout_.count() > 0 ? response_timeout_ : kIoLegTimeout;
  bool peer_ring;
  {
    // Stash the op's destination spans so a shm-lane response can scatter
    // ring bytes straight into the caller's buffers.
    MutexLock lock(read_mu_);
    scatter_.clear();
    if (!message.inline_out.empty()) scatter_.push_back(message.inline_out);
    scatter_.insert(scatter_.end(), message.vec_out.begin(),
                    message.vec_out.end());
    peer_ring = peer_ring_;
  }
  // Bulk payloads at/above the threshold leave the pipes for the ring —
  // but only when the sentinel attached it, so a sentinel whose attach
  // failed never faces frames whose bytes it cannot find.
  const std::size_t out_len = OutboundPayloadSize(message);
  bool use_ring = ring_ != nullptr && peer_ring && out_len >= shm_threshold_ &&
                  out_len > 0;
  if (use_ring && overload_ != OverloadPolicy::kBlock &&
      RingCongested(*ring_, ipc::ShmRing::kToSentinel, out_len)) {
    // Slow-consumer defense: the lane decision must precede the control
    // frame, so a congested ring is handled here — brownout reroutes this
    // op's bytes onto the pipes; shed refuses it before any byte moves.
    // (kBlock keeps the classic deadline-bounded ring write below.)
    if (overload_ == OverloadPolicy::kShed) {
      overload_metrics::RecordShed(Micros{kRingShedHintMs * 1000});
      return OverloadedError("shm ring congested (slow consumer)",
                             kRingShedHintMs);
    }
    overload_metrics::RecordBrownout();
    use_ring = false;
  }
  AFS_RETURN_IF_ERROR(ipc::WriteFrame(
      fds_.control_write,
      EncodeControlMessage(message, use_ring ? sentinel::kLaneShm : 0),
      bound));
  if (out_len == 0) return Status::Ok();
  if (use_ring) {
    if (message.op == ControlOp::kWrite) {
      return ring_->Write(ipc::ShmRing::kToSentinel, message.inline_in,
                          bound);
    }
    for (ByteSpan segment : message.vec_in) {
      AFS_RETURN_IF_ERROR(
          ring_->Write(ipc::ShmRing::kToSentinel, segment, bound));
    }
    return Status::Ok();
  }
  if (message.op == ControlOp::kWrite) {
    // The paper's write path: command on the control channel, then the
    // payload bytes on the write pipe.
    return fds_.data_write.WriteAll(message.inline_in, bound);
  }
  // Gather segments travel the write pipe concatenated, in one writev; the
  // sentinel slices them back apart from the message's segment table.
  return fds_.data_write.WriteAll(std::span<const ByteSpan>(message.vec_in),
                                  bound);
}

Status PipeLink::AdoptResponse(ControlResponse& response) {
  peer_ring_ = response.data_plane == sentinel::kDataPlaneRev;
  if ((response.lane & sentinel::kLaneShm) == 0 || response.lane_len == 0) {
    return Status::Ok();
  }
  if (!ring_) {
    return ProtocolError("shm-lane response without an attached ring");
  }
  const Micros bound =
      response_timeout_.count() > 0 ? response_timeout_ : kIoLegTimeout;
  std::size_t remaining = response.lane_len;
  for (MutableByteSpan dst : scatter_) {
    if (remaining == 0) break;
    MutableByteSpan take = dst.first(std::min(dst.size(), remaining));
    AFS_RETURN_IF_ERROR(ring_->ReadExact(ipc::ShmRing::kToApp, take, bound));
    remaining -= take.size();
  }
  if (remaining > 0) {
    // No (or not enough) stashed spans — kCustom replies and any overflow
    // land in the payload buffer, exactly as a pipe-lane frame would.
    const std::size_t at = response.payload.size();
    response.payload.resize(at + remaining);
    AFS_RETURN_IF_ERROR(
        ring_->ReadExact(ipc::ShmRing::kToApp,
                         MutableByteSpan(response.payload).subspan(at),
                         bound));
  }
  return Status::Ok();
}

Result<ControlResponse> PipeLink::AF_GetResponse() {
  AFS_FAULT_POINT("core.link.recv");
  MutexLock lock(read_mu_);
  Result<ControlResponse> response = AwaitResponse();
  // Answered, timed out or failed, the op is done with its spans: an
  // answer that PollHeartbeats drains from here on goes to its payload.
  scatter_.clear();
  return response;
}

Result<ControlResponse> PipeLink::AwaitResponse() {
  if (pending_.has_value()) {
    // The heartbeat drain raced a real response off the pipe; hand it over.
    ControlResponse stashed = std::move(*pending_);
    pending_.reset();
    if (lease_) lease_->Renew();
    return stashed;
  }
  const bool bounded = response_timeout_.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(response_timeout_.count());
  while (true) {
    Micros remaining = response_timeout_;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        return TimeoutError("sentinel did not respond in time");
      }
      remaining = Micros{left.count()};
    }
    AFS_ASSIGN_OR_RETURN(Buffer frame,
                         ipc::ReadFrame(fds_.response_read, remaining));
    AFS_ASSIGN_OR_RETURN(ControlResponse response,
                         DecodeControlResponse(ByteSpan(frame)));
    if (lease_) lease_->Renew();
    // Every frame — heartbeat or answer — reports whether the sentinel
    // attached the ring; a shm-lane answer additionally drains its ring
    // payload.
    AFS_RETURN_IF_ERROR(AdoptResponse(response));
    // ... and carries the cache-lease grant (heartbeats included: they are
    // how a recall reaches a client whose next op is still in this wait).
    if (cache_channel_) cache_channel_->Observe(response);
    // Heartbeats only renew the lease; keep waiting (against the same
    // overall deadline) for the real answer.
    if (!response.heartbeat) return response;
  }
}

void PipeLink::PollHeartbeats() {
  if (!read_mu_.TryLock()) return;  // an op owns the pipe and sees liveness
  while (!pending_.has_value()) {
    Result<bool> ready = fds_.response_read.Poll();
    if (!ready.ok() || !*ready) break;
    Result<Buffer> frame = ipc::ReadFrame(fds_.response_read, Micros{50'000});
    if (!frame.ok()) break;  // EOF/garbage: the lease expires on its own
    Result<ControlResponse> response = DecodeControlResponse(ByteSpan(*frame));
    if (!response.ok()) break;
    if (lease_) lease_->Renew();
    // A real response racing the drain still owns its ring payload; adopt
    // it here (into the in-flight op's stashed spans) before stashing the
    // frame.  On failure the channel is desynchronized — stop draining and
    // let the waiting op time out / the lease expire.
    if (!AdoptResponse(*response).ok()) break;
    // The push half of the recall protocol: an idle client learns about a
    // recall from the heartbeat frames this drain consumes.
    if (cache_channel_) cache_channel_->Observe(*response);
    if (!response->heartbeat) pending_ = std::move(*response);
  }
  read_mu_.Unlock();
}

void PipeLink::Shutdown() {
  // Taking the read lock fences out a concurrent heartbeat drain so the
  // descriptors are never closed under an in-flight poll.
  MutexLock lock(read_mu_);
  fds_.control_write.Close();
  fds_.response_read.Close();
  fds_.data_write.Close();
  if (ring_) ring_->CloseAll();
}

Status PipeLink::SetCloexec() {
  AFS_RETURN_IF_ERROR(fds_.control_write.SetCloexec());
  AFS_RETURN_IF_ERROR(fds_.response_read.SetCloexec());
  return fds_.data_write.SetCloexec();
}

Result<ControlMessage> PipeEndpoint::AF_GetControl() {
  AFS_FAULT_POINT("sentinel.endpoint.recv");
  // The idle wait is a chain of bounded slices, never one unbounded park:
  // with a heartbeat cadence each elapsed slice emits a liveness frame;
  // without one the slice silently re-arms until a command (or EOF) lands.
  const Micros slice = heartbeat_interval_.count() > 0 ? heartbeat_interval_
                                                       : kIdleWaitSlice;
  while (true) {
    const Status ready = fds_.control_read.WaitReadable(slice);
    if (ready.ok()) break;
    if (ready.code() != ErrorCode::kTimeout) return ready;
    if (heartbeat_interval_.count() > 0) {
      // Idle past one interval: tell the application side we are alive.
      ControlResponse beat;
      beat.heartbeat = true;
      if (cache_state_ != nullptr) {
        // The beat carries the sentinel's current grant so a recall
        // reaches an idle client without waiting for its next op.
        sentinel::StampCacheGrant(*cache_state_, beat);
      }
      AFS_RETURN_IF_ERROR(ipc::WriteFrame(
          fds_.response_write,
          EncodeControlResponse(beat, ring_ ? sentinel::kDataPlaneRev : 0, 0),
          kIoLegTimeout));
    }
  }
  // Readable now, so the frame-start wait is satisfied instantly; the
  // bound covers only a peer dying mid-frame.
  AFS_ASSIGN_OR_RETURN(Buffer frame,
                       ipc::ReadFrame(fds_.control_read, kIoLegTimeout));
  AFS_ASSIGN_OR_RETURN(ControlMessage message,
                       DecodeControlMessage(ByteSpan(frame)));
  // Remember which lane this command's payload travels; the dispatch loop
  // calls AF_GetDataFromAppl before the next AF_GetControl.
  last_lane_ = message.lane;
  return message;
}

Result<Buffer> PipeEndpoint::AF_GetDataFromAppl(std::size_t length) {
  AFS_FAULT_POINT("sentinel.endpoint.data");
  Buffer data(length);
  if (ring_ && (last_lane_ & sentinel::kLaneShm) != 0) {
    AFS_RETURN_IF_ERROR(ring_->ReadExact(ipc::ShmRing::kToSentinel,
                                         MutableByteSpan(data),
                                         kIoLegTimeout));
    return data;
  }
  // The control frame announcing these bytes already arrived; the payload
  // is right behind it, so a stall is a dead application, not idleness.
  AFS_RETURN_IF_ERROR(
      fds_.data_read.ReadExact(MutableByteSpan(data), kIoLegTimeout));
  return data;
}

Status PipeEndpoint::AF_SendResponse(ControlResponse response) {
  AFS_FAULT_POINT("sentinel.endpoint.send");
  // Bulk response payloads ride the ring (frame carries only their length);
  // the application created the ring, so it can always drain the lane.
  bool use_ring = ring_ != nullptr && !response.heartbeat &&
                  response.payload.size() >= shm_threshold_ &&
                  !response.payload.empty();
  if (use_ring && overload_ != OverloadPolicy::kBlock &&
      RingCongested(*ring_, ipc::ShmRing::kToApp, response.payload.size())) {
    // Slow-consumer defense, response side: a response cannot be dropped,
    // so shed degrades to brownout — the payload rides the frame instead
    // of a ring whose reader stopped draining.
    overload_metrics::RecordBrownout();
    use_ring = false;
  }
  AFS_RETURN_IF_ERROR(ipc::WriteFrame(
      fds_.response_write,
      EncodeControlResponse(response, ring_ ? sentinel::kDataPlaneRev : 0,
                            use_ring ? sentinel::kLaneShm : 0),
      kIoLegTimeout));
  if (use_ring) {
    return ring_->Write(ipc::ShmRing::kToApp, ByteSpan(response.payload),
                        kIoLegTimeout);
  }
  return Status::Ok();
}

Status ThreadRendezvous::AF_SendControl(const ControlMessage& message) {
  AFS_FAULT_POINT("core.link.send");
  // The slot takes its own copy of the op, so nothing the sentinel side
  // holds points into the caller's memory once this returns.
  ControlMessage owned = WithoutSpans(message);
  Buffer data = GatherWriteBytes(message);
  MutexLock lock(mu_);
  while (state_ != SlotState::kIdle && !shutdown_) {
    // The sentinel side frees the slot per command, and Shutdown() wakes
    // every waiter with kClosed when the supervisor declares it dead.
    // afs-lint: allow(nonblocking: bounded by the slot protocol + Shutdown)
    cv_.Wait(mu_);
  }
  if (shutdown_) return ClosedError("rendezvous closed");
  message_ = std::move(owned);
  data_ = std::move(data);
  SetState(SlotState::kCommand);
  lock.Unlock();
  cv_.NotifyAll();
  return Status::Ok();
}

Result<ControlResponse> ThreadRendezvous::AF_GetResponse() {
  AFS_FAULT_POINT("core.link.recv");
  const Micros timeout{response_timeout_us_.load()};
  const bool bounded = timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // The answer usually lands microseconds after the command: spin for it,
  // inside the deadline, before parking on the condition variable.
  SpinWait([this] { return Settled(SlotState::kResponse); },
           bounded ? deadline : std::chrono::steady_clock::time_point::max());
  MutexLock lock(mu_);
  while (state_ != SlotState::kResponse && !shutdown_) {
    if (!bounded) {
      // Unbounded only when the operator set op_timeout_ms=0 to opt out of
      // deadlines; Shutdown() still wakes it with kClosed.
      // afs-lint: allow(nonblocking: operator opted out of the deadline)
      cv_.Wait(mu_);
    } else if (!cv_.WaitUntil(mu_, deadline)) {
      if (state_ == SlotState::kResponse || shutdown_) {
        break;  // answered (or closed) right at the wire
      }
      return TimeoutError("sentinel did not respond in time");
    }
  }
  // A posted response outranks shutdown: the sentinel loop answers and
  // then exits (failed-open banner, injected fault), and that last answer
  // must not be dropped.
  if (state_ != SlotState::kResponse) return ClosedError("rendezvous closed");
  ControlResponse response = std::move(response_);
  SetState(SlotState::kIdle);
  lock.Unlock();
  cv_.NotifyAll();
  return response;
}

Result<ControlMessage> ThreadRendezvous::AF_GetControl() {
  AFS_FAULT_POINT("sentinel.endpoint.recv");
  // A busy application sends its next command within microseconds of
  // collecting the last answer: spin for it before the idle park.
  SpinWait([this] { return Settled(SlotState::kCommand); });
  MutexLock lock(mu_);
  while (state_ != SlotState::kCommand && !shutdown_) {
    if (lease_ != nullptr && lease_interval_.count() > 0) {
      // Idle renewal: the timed wakeup itself is the heartbeat — the lease
      // stamp is the shared memory both sides agree on.
      lease_->Renew();
      (void)cv_.WaitUntil(mu_, std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(
                                       lease_interval_.count()));
    } else {
      // Idle park point when no lease is installed (in-process tests);
      // AF_SendControl and Shutdown() are the only writers and both notify.
      // afs-lint: allow(nonblocking: idle park; both slot writers notify)
      cv_.Wait(mu_);
    }
  }
  if (shutdown_) return ClosedError("rendezvous closed");
  if (lease_) lease_->Renew();
  // The slot stays occupied (kCommand) while the sentinel works; the
  // response transition frees it.
  return std::move(message_);
}

Result<ControlMessage> ThreadRendezvous::TryGetControl() {
  MutexLock lock(mu_);
  if (shutdown_ || state_ != SlotState::kCommand) {
    return ClosedError("rendezvous closed");
  }
  return std::move(message_);
}

void ThreadRendezvous::WithdrawCommand() {
  {
    MutexLock lock(mu_);
    if (state_ == SlotState::kCommand) SetState(SlotState::kIdle);
  }
  cv_.NotifyAll();
}

Result<Buffer> ThreadRendezvous::AF_GetDataFromAppl(std::size_t length) {
  AFS_FAULT_POINT("sentinel.endpoint.data");
  MutexLock lock(mu_);
  if (data_.size() != length) {
    return ProtocolError("write lane does not hold the announced bytes");
  }
  return std::exchange(data_, Buffer{});
}

Status ThreadRendezvous::AF_SendResponse(ControlResponse response) {
  AFS_FAULT_POINT("sentinel.endpoint.send");
  MutexLock lock(mu_);
  if (shutdown_) return ClosedError("rendezvous closed");
  if (lease_) lease_->Renew();
  response_ = std::move(response);
  SetState(SlotState::kResponse);
  lock.Unlock();
  cv_.NotifyAll();
  return Status::Ok();
}

void ThreadRendezvous::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    SetState(state_);  // republishes the mirror with its shutdown bit
  }
  cv_.NotifyAll();
}

void ThreadRendezvous::SetState(SlotState state) {
  state_ = state;
  mirror_.store(static_cast<std::uint8_t>(
                    static_cast<std::uint8_t>(state) |
                    (shutdown_ ? kMirrorShutdown : std::uint8_t{0})),
                std::memory_order_release);
}

bool ThreadRendezvous::Settled(SlotState state) const noexcept {
  const std::uint8_t mirror = mirror_.load(std::memory_order_acquire);
  return mirror == static_cast<std::uint8_t>(state) ||
         (mirror & kMirrorShutdown) != 0;
}

void ThreadRendezvous::set_lease(std::shared_ptr<Lease> lease,
                                 Micros interval) {
  MutexLock lock(mu_);
  lease_ = std::move(lease);
  lease_interval_ = interval;
  lock.Unlock();
  // Wake an idle sentinel thread so it picks up the timed-wait cadence.
  cv_.NotifyAll();
}

}  // namespace afs::core
