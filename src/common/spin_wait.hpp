// Bounded spin before a park.
//
// A waiter whose peer runs on another core usually hears back within a few
// microseconds, while parking on a futex (CondVar, ppoll, FUTEX_WAIT) and
// being woken from another core costs ~10 µs on its own.  SpinWait polls a
// condition with a CPU pause for a short fixed budget first; only when the
// budget runs out does the caller fall through to the park it always had.
//
// Rules every call site keeps:
// - The budget is spent inside the op's deadline: the caller takes its
//   deadline before spinning and passes it here, so a timed-out op still
//   returns on time.
// - The condition includes whatever ends the wait early (shutdown, EOF,
//   a closed ring), so such a wait stops spinning at once.
// - Idle waits (heartbeat slices, an event loop's epoll_wait) never spin.
//
// With one usable CPU a spin only delays the peer it waits for, so the
// budget is zero there and SpinWait returns without spinning.
#pragma once

#include <chrono>

#include "common/clock.hpp"

namespace afs {

// The spin budget on a host with `usable_cpus` CPUs: 20 µs covers a
// cross-core answer (2 µs was measured too short), zero with one CPU.
constexpr Micros SpinBudgetFor(int usable_cpus) noexcept {
  return usable_cpus > 1 ? Micros{20} : Micros{0};
}

// The budget for this process, from the CPUs in its affinity mask
// (sched_getaffinity), read once.
Micros SpinBudget() noexcept;

// One spin-loop step: tells the core this is a busy wait.
inline void CpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Polls `done` with a CPU pause until it returns true (then true), or
// until the spin budget or `deadline` passes (then false, and the caller
// parks as before).
template <typename Done>
bool SpinWait(Done&& done,
              std::chrono::steady_clock::time_point deadline =
                  std::chrono::steady_clock::time_point::max()) {
  const Micros budget = SpinBudget();
  if (budget.count() == 0) return false;
  const auto now = std::chrono::steady_clock::now();
  const auto until = deadline - now > budget ? now + budget : deadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    CpuRelax();
  }
  return true;
}

}  // namespace afs
