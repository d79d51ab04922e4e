#include "common/spin_wait.hpp"

#include <sched.h>

namespace afs {

namespace {

// CPUs this process may run on; 1 when the mask cannot be read, so an
// unknown host never spins.
int UsableCpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

Micros SpinBudget() noexcept {
  static const Micros budget = SpinBudgetFor(UsableCpus());
  return budget;
}

}  // namespace afs
