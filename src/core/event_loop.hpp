// The epoll data plane (ROADMAP item 1): a small pool of event loops, one
// per shard, each multiplexing many sentinel sessions on a single thread.
//
// One EventLoop owns one epoll instance, one eventfd doorbell, a run queue
// of posted tasks, and a timer list whose soonest deadline arms one
// CLOCK_MONOTONIC timerfd in the same epoll set, so timers fire at their
// deadline with ns precision (docs/EVENT_LOOP.md, "Timers").
// Producers (application threads posting commands, the supervisor arming
// lease ticks) never block: Post() is a short lock plus an 8-byte eventfd
// write.  The loop thread drains up to `batch_limit` posted tasks per
// wakeup — the frame-batching knob that amortizes one epoll_wait over many
// ready requests — then fires due timers and dispatches fd readiness
// callbacks.
//
// EventLoopPool deals sessions across shards round-robin (or by explicit
// pin, see the "loop_shard" spec key in docs/EVENT_LOOP.md).  Loop-hosted
// sessions carry no per-session descriptors at all: the per-shard doorbell
// and timerfd are the only fds the data plane costs, which is what lets one
// process hold 100k concurrent open handles under an ordinary
// RLIMIT_NOFILE.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"

namespace afs::core {

class EventLoop {
 public:
  struct Options {
    // Posted tasks drained per wakeup before the loop re-checks readiness;
    // bounds the latency a burst can impose on timers and fd events.
    int batch_limit = 64;
    // Backstop bound on the posted-task queue, enforced by TryPost only
    // (Post always succeeds: teardown and release tasks must never drop).
    // 0 = unlimited.  AFS_LOOP_QUEUE_LIMIT for the global pool.
    std::size_t queue_limit = 0;
  };

  EventLoop() : EventLoop(Options{}) {}
  explicit EventLoop(Options options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll instance, the eventfd doorbell and the timerfd, and
  // spawns the loop thread.  Idempotent.
  Status Start();

  // Stops the loop and joins its thread.  Tasks already posted still run
  // (the final drain) so teardown work — implicit closes, unregistered
  // connections — is never silently dropped.  Idempotent.
  void Stop();

  // Enqueues `task` for the loop thread and rings the doorbell.  Cheap and
  // bounded (mutex push + eventfd write); safe from any thread, including
  // the loop thread itself.
  void Post(std::function<void()> task) AFS_NONBLOCKING;

  // Admission-checked Post: refuses (returns false, task not enqueued)
  // when the posted-task queue already holds `queue_limit` tasks.  The
  // admission layer (core/overload.hpp) sheds with kOverloaded on a false
  // return; internal work keeps using Post.
  bool TryPost(std::function<void()> task) AFS_NONBLOCKING;

  // Posted-but-undrained task count (admission introspection).
  std::size_t queue_depth() const AFS_NONBLOCKING;

  // Arms a one-shot timer `delay` from now; returns an id for CancelTimer.
  // It never fires before its deadline.  Repeating cadences re-arm from
  // inside their callback, which keeps a wedged callback from stacking
  // overlapping firings.  Off the loop thread this rings the doorbell so
  // the loop re-arms its timerfd; on it (a timer callback, an fd callback,
  // a posted task) it does not, because Run() re-arms before every wait.
  std::uint64_t AddTimer(Micros delay, std::function<void()> fn)
      AFS_NONBLOCKING;
  void CancelTimer(std::uint64_t id);

  // Registers `fd` for readiness callbacks.  `events` is a bitmask of
  // kReadable/kWritable; the callback receives the ready mask.  The fd is
  // not owned.  Callbacks run on the loop thread.
  static constexpr std::uint32_t kReadable = 1;
  static constexpr std::uint32_t kWritable = 2;
  Status RegisterFd(int fd, std::uint32_t events,
                    std::function<void(std::uint32_t)> callback);
  Status ModifyFd(int fd, std::uint32_t events);
  void UnregisterFd(int fd);

  bool OnLoopThread() const noexcept {
    return std::this_thread::get_id() == thread_id_.load();
  }
  bool running() const noexcept { return running_.load(); }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Timer {
    TimePoint due;
    std::uint64_t id;
    std::function<void()> fn;
  };

  void Run();
  void Ring() AFS_NONBLOCKING;
  TimePoint SoonestDueLocked() const AFS_REQUIRES(mu_);
  void ArmTimerFd(TimePoint due);
  void CloseFds() noexcept;
  void FireDueTimers();
  std::size_t DrainPosted();

  // afs-lint: allow(guarded-member: clamped at construction, constant afterwards)
  Options options_;

  mutable Mutex mu_;
  // afs-lint: allow(bounded-queue: Options::queue_limit backstop via TryPost; admission gates cap bytes upstream)
  std::vector<std::function<void()>> queue_ AFS_GUARDED_BY(mu_);
  std::vector<Timer> timers_ AFS_GUARDED_BY(mu_);
  std::uint64_t next_timer_id_ AFS_GUARDED_BY(mu_) = 1;
  std::map<int, std::function<void(std::uint32_t)>> fds_ AFS_GUARDED_BY(mu_);
  bool stop_ AFS_GUARDED_BY(mu_) = false;

  // afs-lint: allow(guarded-member: created by Start before the thread runs; closed after join)
  int epoll_fd_ = -1;
  // afs-lint: allow(guarded-member: created by Start before the thread runs; closed after join)
  int wake_fd_ = -1;
  // afs-lint: allow(guarded-member: created by Start before the thread runs; closed after join)
  int timer_fd_ = -1;
  // The deadline timer_fd_ is armed to (max() = disarmed).
  // afs-lint: allow(guarded-member: loop thread only; reset by Start before the thread runs)
  TimePoint armed_ = TimePoint::max();
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> thread_id_{};
  // afs-lint: allow(guarded-member: Start() spawns, Stop() joins; owner thread only)
  std::thread thread_;
};

// The shard pool: N loops, round-robin placement.  Shard count is fixed at
// construction (AFS_LOOP_SHARDS for the global pool).
class EventLoopPool {
 public:
  explicit EventLoopPool(int shards, EventLoop::Options options = {});
  ~EventLoopPool() = default;

  EventLoopPool(const EventLoopPool&) = delete;
  EventLoopPool& operator=(const EventLoopPool&) = delete;

  Status Start();
  void Stop();

  int shard_count() const noexcept { return static_cast<int>(loops_.size()); }

  // Shard by explicit index (pinning; wraps modulo the pool) or by the
  // round-robin cursor when `pin` is negative.
  EventLoop& Shard(int pin = -1);

  // Placement split in two so a caller can pair per-shard state (the loop
  // host's admission gates) with the loop the cursor picked.
  std::size_t PickShard(int pin = -1);
  EventLoop& ShardAt(std::size_t index) { return *loops_[index]; }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace afs::core
