// Overload protection: bounded admission for every queueing point on the
// request path.
//
// The paper's active-file host is shared infrastructure — one sentineld
// multiplexing many applications — and a shared host that queues without
// bound converts "too much traffic" into ballooning memory, wedged shards,
// and timeouts for everyone.  This module makes saturation a *handled*
// state instead: each queueing domain (a link's per-link budget, held by
// the strategy stub; a loop shard, held by the loop host) owns an
// AdmissionGate; an op either gets capacity charged against the gate's
// budgets or is shed immediately with kOverloaded and a retry-after hint
// the whole stack propagates (docs/OVERLOAD.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "sentinel/control.hpp"
#include "util/rate_limiter.hpp"

namespace afs::core {

// What a saturated queueing point does with the op that found it full
// (the `overload=` spec key; docs/OVERLOAD.md):
//   kShed     — fail fast with kOverloaded + retry-after (the default);
//   kBrownout — degrade instead of queueing: bulk payloads leave the shm
//               ring for pipes, admission sheds only after a short grace
//               wait;
//   kBlock    — classic backpressure: wait (bounded by the op deadline)
//               for capacity, shedding only when the wait expires.
enum class OverloadPolicy : std::uint8_t { kShed = 0, kBrownout = 1,
                                           kBlock = 2 };

std::string_view OverloadPolicyName(OverloadPolicy policy) noexcept;
Result<OverloadPolicy> ParseOverloadPolicy(std::string_view name);

// Parses the `overload` spec key from a sentinel config; `fallback` when
// the key is absent.
Result<OverloadPolicy> OverloadPolicyFromSpec(
    const std::map<std::string, std::string>& config, OverloadPolicy fallback);

// One queueing domain's admission budgets.  Thread-safe; Admit/Release
// pairs bracket an op's residence in the domain (queued + being served).
class AdmissionGate {
 public:
  struct Limits {
    std::size_t max_queue_bytes = 0;   // 0 = unlimited
    int max_inflight = 0;              // 0 = unlimited
    std::uint64_t rate_bytes_per_second = 0;  // token bucket; 0 = unlimited
    std::uint64_t burst_bytes = 0;     // bucket depth; 0 = rate (min 4 KiB)
  };

  explicit AdmissionGate(Limits limits);

  // Charges `bytes` against the budgets.  Ok() means admitted — the
  // caller MUST Release(bytes) exactly once when the op leaves the
  // domain.  kOverloaded (with a retry-after hint in both the message and
  // the returned hint slot) means shed: nothing was charged.
  Status Admit(std::size_t bytes);

  // Blocking variant for the kBlock policy: waits for byte/inflight
  // capacity up to `timeout` before shedding.  Rate-limiter shortfalls
  // also wait (in slices) while the bucket refills.
  Status AdmitFor(std::size_t bytes, Micros timeout);

  void Release(std::size_t bytes);

  std::size_t queue_bytes() const;
  int inflight() const;

 private:
  Status TryAdmitLocked(std::size_t bytes, Micros* retry_after)
      AFS_REQUIRES(mu_);
  Status ShedLocked(std::size_t bytes, Micros retry_after) AFS_REQUIRES(mu_);

  const Limits limits_;
  mutable Mutex mu_;
  CondVar capacity_;           // signalled by Release
  RateLimiter limiter_ AFS_GUARDED_BY(mu_);  // rate 0 => pass-through
  std::size_t queue_bytes_ AFS_GUARDED_BY(mu_) = 0;
  int inflight_ AFS_GUARDED_BY(mu_) = 0;
};

// Per-link admission budgets from the active-file spec (docs/OVERLOAD.md):
// admit_queue_bytes, admit_inflight, admit_bps, admit_burst.  Absent keys
// leave their budget unlimited.
AdmissionGate::Limits AdmissionLimitsFromSpec(
    const std::map<std::string, std::string>& config);

// True when any budget in `limits` is actually bounding.
bool AdmissionConfigured(const AdmissionGate::Limits& limits) noexcept;

// Policy-shaped admission: kShed fails fast, kBrownout grants a short
// grace wait before shedding, kBlock waits out `block_bound` (falling back
// to one second when the op carries no deadline).
Status AdmitWithPolicy(AdmissionGate& gate, std::size_t cost,
                       OverloadPolicy policy, Micros block_bound);

// Bytes one control op charges against an AdmissionGate: a fixed framing
// overhead plus the larger of the bulk lanes it moves (writes charge their
// source spans, reads the destination they asked to fill).
std::size_t ControlMessageCost(const sentinel::ControlMessage& message)
    noexcept;

// Ops that must never be shed: teardown releases resources, so refusing a
// kClose under load would leak the very capacity the gate is protecting
// ("no collateral damage", docs/OVERLOAD.md).  Its cost is a fixed 64
// bytes — exempting it cannot be gamed into unbounded queue growth.
inline bool AdmissionExempt(sentinel::ControlOp op) noexcept {
  return op == sentinel::ControlOp::kClose;
}

// Process-wide shed/admit accounting (core.overload.* in
// docs/OBSERVABILITY.md).  Call sites on hot paths cache the references.
namespace overload_metrics {
void RecordAdmitted();
void RecordShed(Micros retry_after);
void RecordBrownout();
void AddQueueBytes(std::int64_t delta);
}  // namespace overload_metrics

}  // namespace afs::core
