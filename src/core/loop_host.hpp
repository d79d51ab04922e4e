// Event-loop sentinel host: many sentinels per process, one shard thread
// per event loop, no per-session descriptors.
//
// A LoopSession's mailbox is a ThreadRendezvous (core/links.hpp): the
// application side claims its command slot and parks in AF_GetResponse
// exactly as on the thread strategy.  Instead of a dedicated sentinel
// thread waking on the slot, the command is posted onto the session's
// shard (core/event_loop.hpp), whose loop thread takes it, services it
// through sentinel::PerformControlOp and answers into the slot.
// The shard's run queue is the data plane: one eventfd doorbell per shard,
// batched drains, and the slot holding each op's bytes in process — which
// is how ≥100k concurrent handles fit under an ordinary RLIMIT_NOFILE (see
// docs/EVENT_LOOP.md).
//
// Supervision: the session's lease is renewed by a shard timer while the
// shard is responsive and around every serviced command, so a wedged loop
// or a wedged sentinel op starves the lease and the supervisor forces the
// session down.  ForceDown is the loop analogue of SIGKILL: waiters wake
// with kClosed, the sentinel is dropped without OnClose, and un-finalized
// cache state is lost — exactly the crash shape the recovery layer replays.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/event_loop.hpp"
#include "core/links.hpp"
#include "core/overload.hpp"
#include "core/strategies.hpp"
#include "sentinel/endpoint.hpp"
#include "sentinel/sentinel.hpp"

namespace afs::core {

class Lease;  // core/supervisor.hpp

class LoopSession final : public sentinel::SentinelLink,
                          public std::enable_shared_from_this<LoopSession> {
 public:
  ~LoopSession() override;

  LoopSession(const LoopSession&) = delete;
  LoopSession& operator=(const LoopSession&) = delete;

  // SentinelLink (application side).
  Status AF_SendControl(const sentinel::ControlMessage& message)
      AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse() AFS_NONBLOCKING
      override;

  // Supervisor's force-down: the loop analogue of SIGKILL.  Blocked
  // application waiters wake with kClosed; the sentinel is dropped without
  // OnClose (crash semantics — un-finalized cache state is lost).
  void ForceDown();

  // Application cleanup without the close protocol (handle destruction,
  // failed banner): posts an implicit close so sentinel side effects still
  // complete, mirroring the dispatch loop's application-vanished path.
  void Shutdown();

 private:
  friend class LoopHost;

  enum class Release : std::uint8_t { kImplicitClose, kCrash };

  // `shard_gate` (owned by LoopHost, outliving every session) guards the
  // shard's run queue; `overload` shapes its admission and `response_timeout`
  // bounds both the response wait and a kBlock admission wait.
  LoopSession(EventLoop& shard, AdmissionGate& shard_gate,
              OverloadPolicy overload, Micros response_timeout,
              std::unique_ptr<sentinel::Sentinel> sent,
              sentinel::SentinelContext ctx, CacheAssembly cache);

  void set_lease(std::shared_ptr<Lease> lease, Micros interval);

  // Latches the slot shut and posts the loop-thread release, once.
  void Close(Release how);

  // Loop-thread entries.
  void ServiceOpen();
  void Service();
  // The session dies on the loop thread without a response: waiters wake
  // with kClosed and the sentinel is dropped with crash semantics.
  void Crash();
  void ReleaseLoopState(Release how);
  void HeartbeatTick();
  void ArmHeartbeat();

  // Returns the in-flight command's shard-gate charge, exactly once
  // (swap-to-zero), however the op ends.
  void ReleaseAdmission();

  // Answers into the slot; `closing` then latches it shut (a posted
  // response still outranks the latch, so the close acknowledgement is
  // never dropped).
  void Deliver(sentinel::ControlResponse response, bool closing);

  EventLoop& shard_;
  // Shared with every co-tenant session on the shard (docs/OVERLOAD.md),
  // so it is released when the shard answers, not when the application
  // collects the answer.
  AdmissionGate& shard_gate_;
  const OverloadPolicy overload_;
  const Micros response_timeout_;

  // Loop-thread-confined sentinel state (only ServiceOpen/Service/
  // ReleaseLoopState touch these, all on the shard thread).
  // afs-lint: allow(guarded-member: shard-thread confined; see class comment)
  std::unique_ptr<sentinel::Sentinel> sentinel_;
  // afs-lint: allow(guarded-member: shard-thread confined; see class comment)
  sentinel::SentinelContext ctx_;
  // afs-lint: allow(guarded-member: shard-thread confined; see class comment)
  CacheAssembly cache_;
  // afs-lint: allow(guarded-member: shard-thread confined; see class comment)
  bool opened_ = false;
  // afs-lint: allow(guarded-member: shard-thread confined; see class comment)
  bool released_ = false;

  // Configured before the session is shared (LoopHost::Open).
  // afs-lint: allow(guarded-member: configured before the session is shared)
  std::shared_ptr<Lease> lease_;
  // afs-lint: allow(guarded-member: configured before the session is shared)
  Micros heartbeat_interval_{0};

  // The command slot both sides meet in.
  ThreadRendezvous slot_;
  // Set once the session's end is decided (closed, crashed or released):
  // the loop-thread release is posted at most once, and the heartbeat
  // chain stops.
  std::atomic<bool> release_posted_{false};
  // Shard-gate charge of the command in flight; zero when none.
  std::atomic<std::size_t> admitted_cost_{0};
};

// The process-wide shard pool hosting loop-strategy sessions.  Sized by
// AFS_LOOP_SHARDS (default 2); per-wakeup batching by AFS_LOOP_BATCH.
class LoopHost {
 public:
  // Lazily constructed, torn down (loops joined) at process exit.
  static LoopHost& Global();

  LoopHost(int shards, EventLoop::Options options);
  ~LoopHost();

  LoopHost(const LoopHost&) = delete;
  LoopHost& operator=(const LoopHost&) = delete;

  int shard_count() const noexcept;

  // Stands up one session: places it on a shard (`shard_pin` >= 0 pins, see
  // the "loop_shard" spec key; negative round-robins), posts the OnOpen
  // banner task, and arms the lease heartbeat timer.  The caller must wait
  // for the banner via AF_GetResponse.  `overload` is the policy of the
  // shard gate's admission; per-link budgets are the stub's
  // (core/strategies.cpp).
  Result<std::shared_ptr<LoopSession>> Open(
      std::unique_ptr<sentinel::Sentinel> sent, sentinel::SentinelContext ctx,
      CacheAssembly cache, int shard_pin, Micros response_timeout,
      Micros heartbeat_interval, std::shared_ptr<Lease> lease,
      OverloadPolicy overload = OverloadPolicy::kShed);

  // The admission gate guarding shard `index`'s run queue (budgets from
  // AFS_LOOP_MAX_QUEUE_BYTES / AFS_LOOP_MAX_INFLIGHT; docs/OVERLOAD.md).
  AdmissionGate& ShardGate(std::size_t index) { return *gates_[index]; }

 private:
  EventLoopPool pool_;
  // One gate per shard, sized like the pool; immutable after construction.
  std::vector<std::unique_ptr<AdmissionGate>> gates_;
};

}  // namespace afs::core
