#include "core/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace afs::core {

namespace {

// epoll_wait's timeout while nothing is posted and no timer is due.  Every
// real wakeup comes from the doorbell, the timerfd or a registered fd; the
// heartbeat only bounds how long a lost wakeup could go unnoticed.
constexpr int kIdleHeartbeatMs = 1000;

// Loop instrumentation, aggregated across shards (docs/OBSERVABILITY.md).
struct LoopMetrics {
  obs::Counter& wakeups;
  obs::Counter& dispatches;
  obs::Histogram& batch;
  obs::Gauge& queue_depth;

  LoopMetrics()
      : wakeups(obs::Registry::Global().GetCounter("core.loop.wakeups")),
        dispatches(obs::Registry::Global().GetCounter("core.loop.dispatches")),
        batch(obs::Registry::Global().GetHistogram("core.loop.batch")),
        queue_depth(obs::Registry::Global().GetGauge("core.loop.queue_depth")) {
  }

  static LoopMetrics& Global() {
    static LoopMetrics metrics;
    return metrics;
  }
};

std::uint32_t ToEpollMask(std::uint32_t events) {
  std::uint32_t mask = 0;
  if (events & EventLoop::kReadable) mask |= EPOLLIN;
  if (events & EventLoop::kWritable) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

EventLoop::EventLoop(Options options) : options_(options) {
  if (options_.batch_limit < 1) options_.batch_limit = 1;
}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  if (running_.load()) return Status::Ok();
  // One fd per step, so a failure names its step and unwinds the rest.
  const auto fail = [this](const char* what) {
    const Status status =
        IoError(std::string(what) + ": " + std::strerror(errno));
    CloseFds();
    return status;
  };
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail("eventfd");
  // steady_clock is CLOCK_MONOTONIC on Linux, so Timer::due arms this
  // timerfd as an absolute deadline without conversion.
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (timer_fd_ < 0) return fail("timerfd_create");
  for (const int fd : {wake_fd_, timer_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return fail("epoll_ctl add loop fd");
    }
  }
  armed_ = TimePoint::max();
  {
    MutexLock lock(mu_);
    stop_ = false;
  }
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void EventLoop::CloseFds() noexcept {
  for (int* fd : {&timer_fd_, &wake_fd_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  Ring();
  if (thread_.joinable()) thread_.join();
  // Final drain: teardown tasks posted while the loop wound down (implicit
  // closes, connection unregisters) still run, on the stopping thread.
  std::vector<std::function<void()>> leftover;
  {
    MutexLock lock(mu_);
    leftover.swap(queue_);
    timers_.clear();
    fds_.clear();
  }
  LoopMetrics::Global().queue_depth.Add(
      -static_cast<std::int64_t>(leftover.size()));
  for (auto& task : leftover) task();
  CloseFds();
}

void EventLoop::Ring() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // afs-lint: allow(nonblocking: eventfd doorbell; an 8-byte counter write never parks)
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void EventLoop::Post(std::function<void()> task) {
  bool run_inline = false;
  {
    MutexLock lock(mu_);
    if (stop_ && !running_.load()) {
      // Loop already gone: run the task in the caller (teardown paths post
      // cleanup work after Stop; dropping it would leak sessions).
      run_inline = true;
    } else {
      queue_.push_back(std::move(task));
    }
  }
  if (run_inline) {
    task();
    return;
  }
  LoopMetrics::Global().queue_depth.Add(1);
  Ring();
}

bool EventLoop::TryPost(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (stop_ && !running_.load()) return false;
    if (options_.queue_limit != 0 && queue_.size() >= options_.queue_limit) {
      return false;
    }
    queue_.push_back(std::move(task));
  }
  LoopMetrics::Global().queue_depth.Add(1);
  Ring();
  return true;
}

std::size_t EventLoop::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

std::uint64_t EventLoop::AddTimer(Micros delay, std::function<void()> fn) {
  const auto due = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(std::max<std::int64_t>(
                       0, delay.count()));
  std::uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_timer_id_++;
    timers_.push_back(Timer{due, id, std::move(fn)});
  }
  // The new deadline may be nearer than the armed one.  The loop thread
  // re-arms before its next wait anyway; anyone else must wake it.
  if (!OnLoopThread()) Ring();
  return id;
}

void EventLoop::CancelTimer(std::uint64_t id) {
  MutexLock lock(mu_);
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [id](const Timer& t) { return t.id == id; }),
                timers_.end());
}

Status EventLoop::RegisterFd(int fd, std::uint32_t events,
                             std::function<void(std::uint32_t)> callback) {
  if (fd < 0) return InvalidArgumentError("RegisterFd: bad descriptor");
  if (epoll_fd_ < 0) return ClosedError("event loop not started");
  {
    MutexLock lock(mu_);
    fds_[fd] = std::move(callback);
  }
  epoll_event ev{};
  ev.events = ToEpollMask(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    const int err = errno;
    MutexLock lock(mu_);
    fds_.erase(fd);
    return IoError(std::string("epoll_ctl add: ") + std::strerror(err));
  }
  return Status::Ok();
}

Status EventLoop::ModifyFd(int fd, std::uint32_t events) {
  if (epoll_fd_ < 0) return ClosedError("event loop not started");
  epoll_event ev{};
  ev.events = ToEpollMask(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return IoError(std::string("epoll_ctl mod: ") + std::strerror(errno));
  }
  return Status::Ok();
}

void EventLoop::UnregisterFd(int fd) {
  if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  MutexLock lock(mu_);
  fds_.erase(fd);
}

EventLoop::TimePoint EventLoop::SoonestDueLocked() const {
  TimePoint soonest = TimePoint::max();
  for (const Timer& t : timers_) soonest = std::min(soonest, t.due);
  return soonest;
}

void EventLoop::ArmTimerFd(TimePoint due) {
  itimerspec spec{};  // all zero disarms
  if (due != TimePoint::max()) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        due.time_since_epoch())
                        .count();
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  }
  // If the arm fails, record max() so the next pass retries it instead of
  // trusting a deadline the kernel never took.
  armed_ = ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr) == 0
               ? due
               : TimePoint::max();
}

void EventLoop::FireDueTimers() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::function<void()>> due;
  {
    MutexLock lock(mu_);
    auto it = timers_.begin();
    while (it != timers_.end()) {
      if (it->due <= now) {
        due.push_back(std::move(it->fn));
        it = timers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& fn : due) fn();
}

std::size_t EventLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    MutexLock lock(mu_);
    const std::size_t take = std::min(
        queue_.size(), static_cast<std::size_t>(options_.batch_limit));
    batch.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.begin() + take));
    queue_.erase(queue_.begin(), queue_.begin() + take);
  }
  if (!batch.empty()) {
    LoopMetrics& metrics = LoopMetrics::Global();
    metrics.queue_depth.Add(-static_cast<std::int64_t>(batch.size()));
    metrics.dispatches.Add(batch.size());
    metrics.batch.Record(batch.size());
  }
  for (auto& task : batch) task();
  return batch.size();
}

void EventLoop::Run() {
  thread_id_.store(std::this_thread::get_id());
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  LoopMetrics& metrics = LoopMetrics::Global();
  while (true) {
    bool ready_now;
    TimePoint soonest;
    {
      MutexLock lock(mu_);
      if (stop_) return;
      soonest = SoonestDueLocked();
      ready_now = !queue_.empty() ||
                  (soonest != TimePoint::max() &&
                   soonest <= std::chrono::steady_clock::now());
    }
    // Posted work or a due timer: poll, don't park.  Otherwise the timerfd
    // wakes us at the soonest deadline; it is re-armed only on a change.
    if (!ready_now && soonest != armed_) ArmTimerFd(soonest);
    const int timeout_ms = ready_now ? 0 : kIdleHeartbeatMs;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) return;  // epoll fd gone: shutting down
    metrics.wakeups.Add(1);
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_ || fd == timer_fd_) {
        // Drain the doorbell counter or the timer's expiration count;
        // FireDueTimers and DrainPosted below run whatever is due.
        std::uint64_t count = 0;
        // afs-lint: allow(nonblocking: EFD_NONBLOCK/TFD_NONBLOCK drain of an 8-byte counter)
        while (::read(fd, &count, sizeof(count)) < 0 && errno == EINTR) {
        }
        continue;
      }
      std::function<void(std::uint32_t)> callback;
      {
        MutexLock lock(mu_);
        auto it = fds_.find(fd);
        if (it != fds_.end()) callback = it->second;
      }
      std::uint32_t ready = 0;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ready |= kReadable;
      }
      if (events[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) {
        ready |= kWritable;
      }
      if (callback) callback(ready);
    }
    FireDueTimers();
    DrainPosted();
  }
}

// ---------------------------------------------------------------------
// EventLoopPool

EventLoopPool::EventLoopPool(int shards, EventLoop::Options options) {
  if (shards < 1) shards = 1;
  loops_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(options));
  }
}

Status EventLoopPool::Start() {
  for (auto& loop : loops_) AFS_RETURN_IF_ERROR(loop->Start());
  return Status::Ok();
}

void EventLoopPool::Stop() {
  for (auto& loop : loops_) loop->Stop();
}

EventLoop& EventLoopPool::Shard(int pin) { return ShardAt(PickShard(pin)); }

std::size_t EventLoopPool::PickShard(int pin) {
  const std::size_t count = loops_.size();
  if (pin >= 0) return static_cast<std::size_t>(pin) % count;
  return cursor_.fetch_add(1, std::memory_order_relaxed) % count;
}

}  // namespace afs::core
