// Concrete SentinelLink / SentinelEndpoint transports.
//
//   PipeLink / PipeEndpoint  — three anonymous pipes (control, response,
//     write-data), the paper's process-plus-control strategy (Section 4.2).
//     Every operation costs kernel copies and two protection-domain
//     crossings; that cost is the point of the Figure 6 comparison.
//
//   ThreadRendezvous — one in-process command slot guarded by a mutex and
//     a condition variable ("events and shared memory", Appendix A.3).  It
//     is the DLL-with-thread strategy's link, and the loop strategy's
//     mailbox (core/loop_host.hpp), where a shard task stands in for the
//     sentinel thread.  Like the paper's shared buffer, the slot owns the
//     bytes of the op in flight: one user-level copy per transfer, and a
//     late answer can never reach the caller's memory.
//
// Neither link admits ops: per-link admission budgets (admit_* spec keys)
// bracket each round trip in the strategy stub (core/strategies.cpp), so
// a link only ever carries an op that was already admitted.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "core/overload.hpp"
#include "ipc/pipe.hpp"
#include "ipc/shm_ring.hpp"
#include "sentinel/endpoint.hpp"

namespace afs::sentinel {
struct CacheGrant;  // sentinel/context.hpp
}  // namespace afs::sentinel

namespace afs::core {

class Lease;              // core/supervisor.hpp
class CacheLeaseChannel;  // core/cache.hpp

// Shared-memory data-plane knobs parsed from the active-file spec
// (docs/SHM_DATA_PLANE.md): `shm_threshold` is the payload size at which
// bulk bytes leave the pipes for the ring ("off" disables the ring
// entirely), `shm_ring_bytes` the per-direction ring capacity.
struct ShmConfig {
  bool enabled = true;
  std::size_t threshold = 4096;
  std::size_t ring_bytes = std::size_t{1} << 20;
};

ShmConfig ParseShmConfig(const std::map<std::string, std::string>& config);

struct PipeLinkFds {
  // Application side.
  ipc::PipeEnd control_write;   // command frames ->
  ipc::PipeEnd response_read;   // <- response frames (the "read pipe")
  ipc::PipeEnd data_write;      // raw write payloads -> (the "write pipe")
};

struct PipeEndpointFds {
  // Sentinel side.
  ipc::PipeEnd control_read;
  ipc::PipeEnd response_write;
  ipc::PipeEnd data_read;
};

// Creates the three pipes and deals the ends to each side.
Result<std::pair<PipeLinkFds, PipeEndpointFds>> CreatePipePair();

class PipeLink final : public sentinel::SentinelLink {
 public:
  explicit PipeLink(PipeLinkFds fds) : fds_(std::move(fds)) {}

  Status AF_SendControl(const sentinel::ControlMessage& message)
      AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse() AFS_NONBLOCKING
      override;

  // Bounds every AF_GetResponse wait: a sentinel that never answers costs
  // the application kTimeout instead of a hang.  Non-positive (the default)
  // waits forever.
  void set_response_timeout(Micros timeout) noexcept {
    response_timeout_ = timeout;
  }

  // Installs the liveness lease this link renews whenever any frame —
  // heartbeat or real response — arrives from the sentinel.
  void set_lease(std::shared_ptr<Lease> lease) noexcept {
    lease_ = std::move(lease);
  }

  // Installs the client-cache lease channel (docs/CACHING.md).  The link
  // feeds every decoded frame — including idle heartbeats, which is how a
  // sentinel-pushed recall reaches an idle client — into its Observe.
  void set_cache_channel(std::shared_ptr<CacheLeaseChannel> channel) noexcept {
    cache_channel_ = std::move(channel);
  }

  // Monitor-thread entry: drains frames that are already pending without
  // blocking.  Heartbeats renew the lease and are discarded; a real
  // response that races the poll is stashed for the next AF_GetResponse.
  // A no-op while an application operation owns the read side (that
  // operation observes liveness itself).
  void PollHeartbeats() AFS_NONBLOCKING;

  // Closes all application-side ends; the sentinel sees EOF.
  void Shutdown();

  // Marks all application-side ends close-on-exec (exec-mode sentinels).
  Status SetCloexec();

  // Attaches the shared ring (docs/SHM_DATA_PLANE.md).  Payloads of at
  // least `threshold` bytes ride it — but only when the sentinel's open
  // banner reported that it attached the ring too; otherwise everything
  // stays on the pipes.
  void set_shm(std::shared_ptr<ipc::ShmRing> ring, std::size_t threshold);

  // What a congested shm ring does to a bulk payload (docs/OVERLOAD.md):
  // kBrownout (the default) drops back to the pipe lane for this op,
  // kShed fails it with kOverloaded, kBlock keeps the classic bounded
  // ring write.  Configure before the link is shared.
  void set_overload(OverloadPolicy policy) noexcept { overload_ = policy; }

 private:
  // Records whether the sentinel attached the ring and, for a shm-lane
  // response, pulls its payload off the ring — into the stashed
  // destination spans of the op in flight when present, into
  // response.payload otherwise.
  Status AdoptResponse(sentinel::ControlResponse& response)
      AFS_REQUIRES(read_mu_);

  // AF_GetResponse's wait, without dropping the op's stashed spans.
  Result<sentinel::ControlResponse> AwaitResponse() AFS_REQUIRES(read_mu_);

  // afs-lint: allow(guarded-member: fd table fixed at construction; read_mu_ serializes response readers)
  PipeLinkFds fds_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  Micros response_timeout_{0};
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::shared_ptr<Lease> lease_;
  // afs-lint: allow(guarded-member: configured before the link is shared; internally lock-free)
  std::shared_ptr<CacheLeaseChannel> cache_channel_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::shared_ptr<ipc::ShmRing> ring_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::size_t shm_threshold_ = 4096;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  OverloadPolicy overload_ = OverloadPolicy::kBrownout;

  // Serializes readers of the response pipe: the application operation in
  // flight vs. the supervisor's heartbeat drain.
  Mutex read_mu_;
  // Whether the sentinel attached the shared ring.  Every frame reports
  // it, and the open banner (the session's first frame) settles it before
  // any op is sent; it gates ring routing only.
  bool peer_ring_ AFS_GUARDED_BY(read_mu_) = false;
  std::optional<sentinel::ControlResponse> pending_ AFS_GUARDED_BY(read_mu_);
  // Destination spans of the op in flight (inline_out / vec_out), stashed
  // at send so a shm-lane response scatters ring bytes straight into the
  // caller's buffers — the zero-extra-copy read path.  AF_GetResponse
  // drops them on every exit, so an answer drained after the op gave up
  // waiting lands in response.payload, never in the caller's buffers.
  std::vector<MutableByteSpan> scatter_ AFS_GUARDED_BY(read_mu_);
};

class PipeEndpoint final : public sentinel::SentinelEndpoint {
 public:
  explicit PipeEndpoint(PipeEndpointFds fds) : fds_(std::move(fds)) {}

  Result<sentinel::ControlMessage> AF_GetControl() AFS_NONBLOCKING override;
  Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING override;
  Status AF_SendResponse(sentinel::ControlResponse response)
      AFS_NONBLOCKING override;

  // When positive, an idle AF_GetControl emits a heartbeat response every
  // `interval` instead of blocking forever — the sentinel side of the
  // lease protocol.  Set before the dispatch loop starts.
  void set_heartbeat_interval(Micros interval) noexcept {
    heartbeat_interval_ = interval;
  }

  // Attaches the shared ring (set before the dispatch loop starts).  Once
  // attached, every response reports it (kDataPlaneRev) and payloads of at
  // least `threshold` bytes ride the ring; inbound shm-lane writes are
  // drained from it instead of the data pipe.
  void set_shm(std::shared_ptr<ipc::ShmRing> ring,
               std::size_t threshold) noexcept {
    ring_ = std::move(ring);
    shm_threshold_ = threshold;
  }

  // Congested-ring behavior for response payloads (docs/OVERLOAD.md).  A
  // response cannot be dropped, so kShed degrades to kBrownout here: the
  // payload rides the response frame instead of the stalled ring.  kBlock
  // keeps the classic bounded ring write.  Set before the loop starts.
  void set_overload(OverloadPolicy policy) noexcept { overload_ = policy; }

  // Points at the sentinel context's CacheGrant so idle heartbeats carry
  // the current grant/recall state (docs/CACHING.md) — the push half of
  // the recall protocol.  The context must outlive the dispatch loop.
  // Set before the loop starts.
  void set_cache_state(const sentinel::CacheGrant* grant) noexcept {
    cache_state_ = grant;
  }

 private:
  PipeEndpointFds fds_;
  Micros heartbeat_interval_{0};
  std::shared_ptr<ipc::ShmRing> ring_;
  std::size_t shm_threshold_ = 4096;
  OverloadPolicy overload_ = OverloadPolicy::kBrownout;
  const sentinel::CacheGrant* cache_state_ = nullptr;
  // Lane byte of the command being served (single dispatch thread): tells
  // AF_GetDataFromAppl which lane carries the write payload.
  std::uint8_t last_lane_ = 0;
};

// Both halves of an in-process connection in one object: the command
// slot.  The application stub and the sentinel side rendezvous on a single
// in-flight command (kIdle -> kCommand -> kResponse -> kIdle).  The slot
// owns the op's bytes: AF_SendControl copies a write's bytes into the
// slot's data lane (AF_GetDataFromAppl), read data comes back in the
// response payload, and the command the sentinel takes carries no span
// into application memory.  The sentinel side is a dedicated thread
// parked in AF_GetControl (thread strategy) or a shard task that takes the
// parked command with TryGetControl (loop strategy).
class ThreadRendezvous final : public sentinel::SentinelLink,
                               public sentinel::SentinelEndpoint {
 public:
  ThreadRendezvous() = default;

  // SentinelLink (application side).
  Status AF_SendControl(const sentinel::ControlMessage& message)
      AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse() AFS_NONBLOCKING
      override;

  // SentinelEndpoint (sentinel side).
  Result<sentinel::ControlMessage> AF_GetControl() AFS_NONBLOCKING override;
  Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING override;
  Status AF_SendResponse(sentinel::ControlResponse response)
      AFS_NONBLOCKING override;

  // Non-blocking AF_GetControl: the parked command, or kClosed when no
  // command is parked or the slot is shut.
  Result<sentinel::ControlMessage> TryGetControl();

  // Undoes the application's slot claim before any sentinel has taken
  // the command (the loop shard's run queue was full), so the next
  // AF_SendControl finds the slot idle.
  void WithdrawCommand();

  // Latches the slot shut and wakes both sides: further traffic fails
  // with kClosed, but a response already posted is still collected.
  void Shutdown();

  // Bounds the application's AF_GetResponse wait; kTimeout when the
  // sentinel thread does not answer in time.  Non-positive waits forever.
  void set_response_timeout(Micros timeout) noexcept;

  // Installs the shared-memory lease the sentinel thread renews from
  // inside its waits (the in-process analogue of heartbeat frames).  The
  // thread wakes every `interval` while idle just to stamp the lease.
  void set_lease(std::shared_ptr<Lease> lease, Micros interval);

 private:
  enum class SlotState { kIdle, kCommand, kResponse };

  Mutex mu_;
  CondVar cv_;
  SlotState state_ AFS_GUARDED_BY(mu_) = SlotState::kIdle;
  // Shutdown is a flag, not a slot state: a response already posted when
  // Shutdown() lands (the failed-open banner) must still reach the
  // application before AF_GetResponse starts reporting kClosed.
  bool shutdown_ AFS_GUARDED_BY(mu_) = false;
  Micros response_timeout_ AFS_GUARDED_BY(mu_){0};
  std::shared_ptr<Lease> lease_ AFS_GUARDED_BY(mu_);
  Micros lease_interval_ AFS_GUARDED_BY(mu_){0};
  // The command in flight, stripped of its spans, and its write bytes.
  sentinel::ControlMessage message_ AFS_GUARDED_BY(mu_);
  Buffer data_ AFS_GUARDED_BY(mu_);
  sentinel::ControlResponse response_ AFS_GUARDED_BY(mu_);
};

}  // namespace afs::core
