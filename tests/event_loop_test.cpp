// Unit tests for the epoll data plane (core/event_loop.hpp): task posting
// and the batch-drain contract, one-shot timers (sub-ms precision,
// re-arming to a nearer or later deadline) and cancellation, fd
// readiness callbacks, the Stop() final drain, and the pool's round-robin
// vs pinned shard placement.  The loop-hosted session protocol on top of
// this is covered by strategies_test/fault_matrix_test/recovery_test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "core/event_loop.hpp"
#include "test_util.hpp"

namespace afs::core {
namespace {

// Posts a marker task and waits for it to run: everything posted earlier
// has run too (single consumer, FIFO drain).
void Drain(EventLoop& loop) {
  Mutex mu;
  CondVar cv;
  bool done = false;
  loop.Post([&] {
    MutexLock lock(mu);
    done = true;
    cv.NotifyAll();
  });
  MutexLock lock(mu);
  while (!done) cv.Wait(mu);
}

TEST(EventLoopTest, PostedTasksRunInOrderOnLoopThread) {
  EventLoop loop;
  ASSERT_OK(loop.Start());

  std::vector<int> order;
  std::atomic<bool> on_loop{false};
  for (int i = 0; i < 100; ++i) {
    loop.Post([&, i] {
      order.push_back(i);  // loop-thread confined, no lock needed
      if (i == 0) on_loop = loop.OnLoopThread();
    });
  }
  Drain(loop);

  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_TRUE(on_loop.load());
  EXPECT_FALSE(loop.OnLoopThread());
  loop.Stop();
}

TEST(EventLoopTest, StartAndStopAreIdempotent) {
  EventLoop loop;
  ASSERT_OK(loop.Start());
  ASSERT_OK(loop.Start());
  EXPECT_TRUE(loop.running());
  loop.Stop();
  loop.Stop();
  EXPECT_FALSE(loop.running());
}

TEST(EventLoopTest, StopRunsTheFinalDrainAndLateTasksInline) {
  EventLoop loop;
  ASSERT_OK(loop.Start());
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) loop.Post([&] { ran.fetch_add(1); });
  loop.Stop();
  // Teardown work is never silently dropped: everything posted before
  // Stop() ran, and a post-Stop task runs inline in the caller.
  EXPECT_EQ(ran.load(), 8);
  loop.Post([&] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 9);
}

TEST(EventLoopTest, BatchLimitBoundsTasksPerWakeup) {
  EventLoop::Options options;
  options.batch_limit = 4;
  EventLoop loop(options);
  ASSERT_OK(loop.Start());

  // Park the loop thread so the whole burst is queued behind one wakeup,
  // then check every task still runs (the loop re-arms until empty).
  Mutex mu;
  CondVar cv;
  bool release = false;
  loop.Post([&] {
    MutexLock lock(mu);
    while (!release) cv.Wait(mu);
  });
  std::atomic<int> ran{0};
  for (int i = 0; i < 37; ++i) loop.Post([&] { ran.fetch_add(1); });
  {
    MutexLock lock(mu);
    release = true;
    cv.NotifyAll();
  }
  Drain(loop);
  EXPECT_EQ(ran.load(), 37);
  loop.Stop();
}

TEST(EventLoopTest, TimersFireOnceAndCancelledTimersDoNot) {
  EventLoop loop;
  ASSERT_OK(loop.Start());

  Mutex mu;
  CondVar cv;
  int fired = 0;
  std::atomic<int> cancelled_fired{0};
  const std::uint64_t doomed =
      loop.AddTimer(Micros{5'000}, [&] { cancelled_fired.fetch_add(1); });
  loop.AddTimer(Micros{1'000}, [&] {
    MutexLock lock(mu);
    ++fired;
    cv.NotifyAll();
  });
  loop.CancelTimer(doomed);

  {
    MutexLock lock(mu);
    while (fired == 0) cv.Wait(mu);
  }
  // Give the doomed timer's original deadline time to pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Drain(loop);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cancelled_fired.load(), 0);
  loop.Stop();
}

// Records when a one-shot timer fired; waiters block until it has.
class FireRecord {
 public:
  void Fire() {
    MutexLock lock(mu_);
    at_ = std::chrono::steady_clock::now();
    fired_ = true;
    cv_.NotifyAll();
  }
  std::chrono::steady_clock::time_point Await() {
    MutexLock lock(mu_);
    while (!fired_) cv_.Wait(mu_);
    return at_;
  }
  bool fired() {
    MutexLock lock(mu_);
    return fired_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool fired_ AFS_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point at_ AFS_GUARDED_BY(mu_);
};

TEST(EventLoopTest, SubMillisecondTimerLag) {
  EventLoop loop;
  ASSERT_OK(loop.Start());

  // A 25 us timer (the socket server's modelled service delay) fires at
  // its deadline, not at the next whole millisecond.
  constexpr Micros kDelay{25};
  constexpr int kTrials = 200;
  std::vector<std::int64_t> lag_us;
  for (int i = 0; i < kTrials; ++i) {
    FireRecord record;
    const auto armed = std::chrono::steady_clock::now();
    loop.AddTimer(kDelay, [&] { record.Fire(); });
    const auto waited = std::chrono::duration_cast<Micros>(
        record.Await() - armed);
    ASSERT_GE(waited, kDelay) << "trial " << i << " fired early";
    lag_us.push_back((waited - kDelay).count());
  }
  std::nth_element(lag_us.begin(), lag_us.begin() + kTrials / 2,
                   lag_us.end());
  EXPECT_LT(lag_us[kTrials / 2], 250) << "median timer lag in us";
  loop.Stop();
}

TEST(EventLoopTest, NearerTimerAddedLaterFiresFirst) {
  EventLoop loop;
  ASSERT_OK(loop.Start());
  using std::chrono::steady_clock;

  // The far timer arms the timerfd first; the near one must re-arm it.
  FireRecord far;
  FireRecord near;
  const auto far_armed = steady_clock::now();
  loop.AddTimer(Micros{100'000}, [&] { far.Fire(); });
  const auto near_armed = steady_clock::now();
  loop.AddTimer(Micros{100}, [&] { near.Fire(); });
  const auto near_at = near.Await();
  EXPECT_GE(near_at - near_armed, Micros{100});
  EXPECT_LT(near_at - near_armed, Micros{25'000});
  EXPECT_FALSE(far.fired());

  // Cancel the soonest armed timer: the timerfd re-arms to the later
  // deadline, which still fires, not before it is due and well inside
  // the loop's 1 s idle heartbeat.  The cancel runs in an fd callback
  // woken by a write made after Drain, so it can only be seen by a later
  // epoll_wait, and Run() arms the timerfd to this deadline before that
  // wait: the cancel always hits the armed deadline.
  std::atomic<int> cancelled_fired{0};
  const std::uint64_t soonest =
      loop.AddTimer(Micros{20'000}, [&] { cancelled_fired.fetch_add(1); });
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<bool> cancelled{false};
  ASSERT_OK(loop.RegisterFd(fds[0], EventLoop::kReadable,
                            [&](std::uint32_t) {
                              char byte;
                              (void)::read(fds[0], &byte, 1);
                              loop.CancelTimer(soonest);
                              cancelled = true;
                            }));
  Drain(loop);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  const auto far_waited = far.Await() - far_armed;
  EXPECT_TRUE(cancelled.load());
  EXPECT_GE(far_waited, Micros{100'000});
  EXPECT_LT(far_waited, Micros{500'000});
  EXPECT_EQ(cancelled_fired.load(), 0);
  loop.UnregisterFd(fds[0]);
  loop.Stop();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, FdReadinessCallbackSeesReadableMask) {
  EventLoop loop;
  ASSERT_OK(loop.Start());

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Mutex mu;
  CondVar cv;
  std::uint32_t seen = 0;
  ASSERT_OK(loop.RegisterFd(fds[0], EventLoop::kReadable,
                            [&](std::uint32_t ready) {
                              char byte;
                              (void)::read(fds[0], &byte, 1);
                              MutexLock lock(mu);
                              seen |= ready;
                              cv.NotifyAll();
                            }));
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  {
    MutexLock lock(mu);
    while ((seen & EventLoop::kReadable) == 0) cv.Wait(mu);
  }
  EXPECT_TRUE(seen & EventLoop::kReadable);

  loop.UnregisterFd(fds[0]);
  loop.Stop();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopPoolTest, RoundRobinDealsAcrossShardsAndPinWraps) {
  EventLoopPool pool(3);
  ASSERT_OK(pool.Start());
  ASSERT_EQ(pool.shard_count(), 3);

  // Round-robin: three successive picks hit three distinct shards.
  EventLoop* a = &pool.Shard();
  EventLoop* b = &pool.Shard();
  EventLoop* c = &pool.Shard();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, &pool.Shard());  // cursor wrapped

  // Pinning is stable and wraps modulo the pool.
  EXPECT_EQ(&pool.Shard(1), &pool.Shard(1));
  EXPECT_EQ(&pool.Shard(1), &pool.Shard(4));
  EXPECT_NE(&pool.Shard(0), &pool.Shard(1));

  // Every shard is live.
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) pool.Shard(i).Post([&] { ran.fetch_add(1); });
  for (int i = 0; i < 3; ++i) Drain(pool.Shard(i));
  EXPECT_EQ(ran.load(), 3);
  pool.Stop();
}

}  // namespace
}  // namespace afs::core
