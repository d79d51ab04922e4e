#include "core/loop_host.hpp"

#include <cstdlib>
#include <utility>

#include "common/faultpoint.hpp"
#include "core/supervisor.hpp"
#include "obs/metrics.hpp"
#include "sentinel/dispatch.hpp"

namespace afs::core {

using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;

namespace {

obs::Gauge& SessionsGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("core.loop.sessions");
  return gauge;
}

ControlResponse StatusResponse(Status status) {
  ControlResponse response;
  response.status = std::move(status);
  return response;
}

int EnvInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const long parsed = std::strtol(raw, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : fallback;
}

// Unsigned env knob where an explicit 0 is meaningful ("unlimited"), so
// only an unset/empty variable falls back.
std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

}  // namespace

// ---------------------------------------------------------------------
// LoopSession

LoopSession::LoopSession(EventLoop& shard, AdmissionGate& shard_gate,
                         OverloadPolicy overload, Micros response_timeout,
                         std::unique_ptr<sentinel::Sentinel> sent,
                         sentinel::SentinelContext ctx, CacheAssembly cache)
    : shard_(shard),
      shard_gate_(shard_gate),
      overload_(overload),
      response_timeout_(response_timeout),
      sentinel_(std::move(sent)),
      ctx_(std::move(ctx)),
      cache_(std::move(cache)) {
  ctx_.cache = cache_.store.get();
  slot_.set_response_timeout(response_timeout);
  SessionsGauge().Add(1);
}

LoopSession::~LoopSession() {
  // Backstop for sessions torn down without ever reaching the shard (open
  // that failed before posting).  Normal paths released on the loop thread.
  sentinel_.reset();
  SessionsGauge().Add(-1);
}

void LoopSession::set_lease(std::shared_ptr<Lease> lease, Micros interval) {
  lease_ = std::move(lease);
  heartbeat_interval_ = interval;
}

void LoopSession::ReleaseAdmission() {
  const std::size_t cost = admitted_cost_.exchange(0);
  if (cost != 0) shard_gate_.Release(cost);
}

Status LoopSession::AF_SendControl(const ControlMessage& message) {
  // Admission precedes the mailbox: a shed op fails with kOverloaded
  // without ever occupying the slot (no frame, no state change), so the
  // handle survives to retry it after the carried hint.  Teardown ops are
  // exempt — a shed close leaks.
  std::size_t cost = 0;
  if (!AdmissionExempt(message.op)) {
    cost = ControlMessageCost(message);
    AFS_RETURN_IF_ERROR(
        AdmitWithPolicy(shard_gate_, cost, overload_, response_timeout_));
  }
  if (Status claimed = slot_.AF_SendControl(message); !claimed.ok()) {
    if (cost != 0) shard_gate_.Release(cost);
    return claimed;
  }
  admitted_cost_.store(cost);
  // The doorbell, not a dedicated thread: the command is a task on the
  // session's shard, batched with every other ready session's commands.
  // Bound, not a lambda: Service() runs on the loop thread, and the member
  // pointer keeps its body out of this caller's non-blocking call graph.
  if (!shard_.TryPost(std::bind(&LoopSession::Service, shared_from_this()))) {
    if (!shard_.running()) {
      // Loop already wound down: keep the legacy inline-teardown path.
      shard_.Post(std::bind(&LoopSession::Service, shared_from_this()));
      return Status::Ok();
    }
    // The shard's task-count backstop (AFS_LOOP_QUEUE_LIMIT) tripped:
    // undo the slot claim and shed.  Nothing was posted, so the stream
    // stays synchronized.
    slot_.WithdrawCommand();
    ReleaseAdmission();
    constexpr std::int64_t kQueueFullHintMs = 5;
    overload_metrics::RecordShed(Micros{kQueueFullHintMs * 1000});
    return OverloadedError("loop shard run queue full", kQueueFullHintMs);
  }
  return Status::Ok();
}

Result<ControlResponse> LoopSession::AF_GetResponse() {
  return slot_.AF_GetResponse();
}

void LoopSession::Close(Release how) {
  slot_.Shutdown();
  if (release_posted_.exchange(true)) return;
  shard_.Post([self = shared_from_this(), how] { self->ReleaseLoopState(how); });
}

// Crash semantics: the sentinel is dropped without OnClose and a memory
// cache's un-finalized state is lost — the loop analogue of SIGKILL, and
// exactly the shape the recovery layer knows how to replay.
void LoopSession::ForceDown() { Close(Release::kCrash); }

void LoopSession::Shutdown() { Close(Release::kImplicitClose); }

void LoopSession::Crash() {
  slot_.Shutdown();
  release_posted_.store(true);
  ReleaseLoopState(Release::kCrash);
}

void LoopSession::ServiceOpen() {
  // Crash window before the open is acknowledged — same recoverable point
  // the forked strategies expose (the application is parked on the banner).
  if (!fault::Hit("sentinel.dispatch.openack").ok()) {
    Crash();
    return;
  }
  const Status open_status = sentinel_->OnOpen(ctx_);
  opened_ = open_status.ok();
  // The banner carries the cache grant OnOpen decided on (same contract as
  // RunSentinelLoop): a caching client holds its lease before the first op.
  ControlResponse banner = StatusResponse(open_status);
  sentinel::StampCacheGrant(ctx_, banner);
  if (!opened_) {
    // Mirror the dispatch loop's lifecycle: a failed OnOpen means no
    // session — OnClose must not run.  The banner still ships below.
    release_posted_.store(true);
    released_ = true;
    sentinel_.reset();
    cache_ = CacheAssembly{};
  } else {
    ArmHeartbeat();
  }
  Deliver(std::move(banner), /*closing=*/!opened_);
}

void LoopSession::Service() {
  Result<ControlMessage> msg = slot_.TryGetControl();
  if (!msg.ok()) {
    ReleaseAdmission();  // raced ForceDown: the op will never be served
    return;
  }
  if (lease_) lease_->Renew();

  // The loop-host crash site: tears this session down without a response —
  // the application's waiter wakes with kClosed and supervision replays the
  // session — while every co-hosted session on the shard keeps serving.
  if (!fault::Hit("core.loop.crash").ok()) {
    Crash();
    return;
  }

  sentinel::OpOutcome out =
      sentinel::PerformControlOp(*sentinel_, ctx_, *msg, slot_);
  if (lease_) lease_->Renew();
  switch (out.verdict) {
    case sentinel::OpVerdict::kCrashed:
    case sentinel::OpVerdict::kChannelBroken:
      Crash();
      return;
    case sentinel::OpVerdict::kClosed: {
      // OnClose already ran inside PerformControlOp; finalize and drop the
      // sentinel before acknowledging, like the worker-thread epilogue.
      // afs-lint: allow(status-discard: close response carries OnClose's status)
      (void)cache_.Finalize();
      release_posted_.store(true);
      released_ = true;
      sentinel_.reset();
      cache_ = CacheAssembly{};
      Deliver(std::move(out.response), /*closing=*/true);
      return;
    }
    case sentinel::OpVerdict::kRespond:
      Deliver(std::move(out.response), /*closing=*/false);
      return;
  }
}

void LoopSession::ReleaseLoopState(Release how) {
  ReleaseAdmission();  // a crash-torn op must not pin the shard's gate
  if (released_) return;
  released_ = true;
  if (how == Release::kImplicitClose && opened_ && sentinel_ != nullptr) {
    // Application vanished without the close protocol: implicit close so
    // aggregation/distribution side effects still complete.
    // afs-lint: allow(status-discard: nobody is left to receive the status)
    (void)sentinel_->OnClose(ctx_);
    // afs-lint: allow(status-discard: best-effort writeback on implicit close)
    (void)cache_.Finalize();
  }
  // Release::kCrash: no OnClose, no writeback — un-finalized state is lost.
  sentinel_.reset();
  cache_ = CacheAssembly{};
}

void LoopSession::HeartbeatTick() {
  if (release_posted_.load()) return;  // session over; let the chain end
  // The timed firing itself is the heartbeat: a wedged shard (or a sentinel
  // op squatting on it) starves this renewal and the lease expires.
  if (lease_) lease_->Renew();
  ArmHeartbeat();
}

void LoopSession::ArmHeartbeat() {
  if (lease_ == nullptr || heartbeat_interval_.count() <= 0) return;
  shard_.AddTimer(heartbeat_interval_,
                  [self = shared_from_this()] { self->HeartbeatTick(); });
}

void LoopSession::Deliver(ControlResponse response, bool closing) {
  // The answered op leaves the shard's admission domain here, not at
  // collection: the shard is free again even if the application is slow
  // to wake.
  ReleaseAdmission();
  const bool answered = slot_.AF_SendResponse(std::move(response)).ok();
  if (answered && !closing) return;
  // Closing, or the slot refused the answer (ForceDown/Shutdown shut it
  // first, or an injected fault): latch it shut, and end the session here
  // unless its release is already posted.
  slot_.Shutdown();
  if (!answered && !release_posted_.exchange(true)) {
    ReleaseLoopState(Release::kCrash);
  }
}

// ---------------------------------------------------------------------
// LoopHost

LoopHost& LoopHost::Global() {
  static LoopHost host(
      EnvInt("AFS_LOOP_SHARDS", 2),
      EventLoop::Options{
          EnvInt("AFS_LOOP_BATCH", 64),
          static_cast<std::size_t>(EnvU64("AFS_LOOP_QUEUE_LIMIT", 0))});
  return host;
}

LoopHost::LoopHost(int shards, EventLoop::Options options)
    : pool_(shards, options) {
  // Per-shard admission budgets (docs/OVERLOAD.md).  The default queue-byte
  // budget is a backstop against runaway buffering, far above any healthy
  // working set; 0 disables a budget entirely.
  AdmissionGate::Limits limits;
  limits.max_queue_bytes = static_cast<std::size_t>(
      EnvU64("AFS_LOOP_MAX_QUEUE_BYTES", std::uint64_t{256} << 20));
  limits.max_inflight =
      static_cast<int>(EnvU64("AFS_LOOP_MAX_INFLIGHT", 0));
  gates_.reserve(static_cast<std::size_t>(pool_.shard_count()));
  for (int i = 0; i < pool_.shard_count(); ++i) {
    gates_.push_back(std::make_unique<AdmissionGate>(limits));
  }
  // Touch the metric registries before any loop thread exists so their
  // singletons outlive the pool's threads at static teardown.
  SessionsGauge();
}

LoopHost::~LoopHost() { pool_.Stop(); }

int LoopHost::shard_count() const noexcept { return pool_.shard_count(); }

Result<std::shared_ptr<LoopSession>> LoopHost::Open(
    std::unique_ptr<sentinel::Sentinel> sent, sentinel::SentinelContext ctx,
    CacheAssembly cache, int shard_pin, Micros response_timeout,
    Micros heartbeat_interval, std::shared_ptr<Lease> lease,
    OverloadPolicy overload) {
  AFS_RETURN_IF_ERROR(pool_.Start());
  const std::size_t index = pool_.PickShard(shard_pin);
  EventLoop& shard = pool_.ShardAt(index);
  auto session = std::shared_ptr<LoopSession>(new LoopSession(
      shard, *gates_[index], overload, response_timeout, std::move(sent),
      std::move(ctx), std::move(cache)));
  if (lease != nullptr) session->set_lease(std::move(lease), heartbeat_interval);
  shard.Post([session] { session->ServiceOpen(); });
  return session;
}

}  // namespace afs::core
