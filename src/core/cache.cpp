#include "core/cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "common/faultpoint.hpp"

namespace afs::core {
namespace {

std::int64_t SteadyNowMicros() {
  return SteadyClock::Instance().Now().count();
}

}  // namespace

// ---------------------------------------------------------------------------
// CacheLeaseChannel

void CacheLeaseChannel::Observe(const sentinel::ControlResponse& response,
                                bool heartbeat) {
  const bool empty = response.cache_grant == 0 &&
                     response.cache_lease_ms == 0 && response.cache_epoch == 0;
  if (heartbeat && empty) {
    // Liveness frames from endpoints without lease state wired decode to
    // all-zero cache fields; they carry no grant information.
    return;
  }
  if (fault::Enabled() && !fault::Hit("core.cache.grant").ok()) {
    // Injected grant loss: this observation never reaches the client, so
    // the lease ages toward expiry exactly as if the response were
    // delayed on the wire.
    return;
  }
  grant_.store(response.cache_grant, std::memory_order_relaxed);
  lease_ms_.store(response.cache_lease_ms, std::memory_order_relaxed);
  epoch_.store(response.cache_epoch, std::memory_order_relaxed);
  if ((response.cache_grant &
       (sentinel::kGrantRead | sentinel::kGrantWrite)) != 0) {
    ever_granted_.store(true, std::memory_order_relaxed);
    deadline_us_.store(
        SteadyNowMicros() +
            static_cast<std::int64_t>(response.cache_lease_ms) * 1000,
        std::memory_order_relaxed);
  } else {
    deadline_us_.store(0, std::memory_order_relaxed);
  }
  if ((response.cache_grant & sentinel::kGrantRecall) == 0) {
    // The sentinel no longer shows a recall in flight; any pending ack
    // has been consumed.
    ack_pending_.store(false, std::memory_order_relaxed);
  }
}

std::uint8_t CacheLeaseChannel::OutgoingFlags() const noexcept {
  std::uint8_t flags = sentinel::kCacheWantLease;
  if (ack_pending_.load(std::memory_order_relaxed)) {
    flags |= sentinel::kCacheRecallAck;
  }
  return flags;
}

void CacheLeaseChannel::AckRecall() noexcept {
  ack_pending_.store(true, std::memory_order_relaxed);
}

void CacheLeaseChannel::Revoke() noexcept {
  grant_.store(0, std::memory_order_relaxed);
  deadline_us_.store(0, std::memory_order_relaxed);
  revocations_.fetch_add(1, std::memory_order_relaxed);
}

CacheLeaseChannel::State CacheLeaseChannel::Snapshot() const noexcept {
  State state;
  const std::uint8_t grant = grant_.load(std::memory_order_relaxed);
  state.read = (grant & sentinel::kGrantRead) != 0;
  state.write = (grant & sentinel::kGrantWrite) != 0;
  state.recall = (grant & sentinel::kGrantRecall) != 0;
  state.epoch = epoch_.load(std::memory_order_relaxed);
  state.revocations = revocations_.load(std::memory_order_relaxed);
  state.granted_once = ever_granted_.load(std::memory_order_relaxed);
  state.live =
      (state.read || state.write) &&
      SteadyNowMicros() <= deadline_us_.load(std::memory_order_relaxed);
  return state;
}

// ---------------------------------------------------------------------------
// Spec parsing

Result<ClientCacheMode> ParseClientCacheMode(std::string_view name) {
  if (name == "off" || name == "none" || name == "disk" ||
      name == "memory" || name.empty()) {
    return ClientCacheMode::kOff;
  }
  if (name == "read") return ClientCacheMode::kRead;
  if (name == "write") return ClientCacheMode::kWrite;
  return InvalidArgumentError("unknown cache mode: " + std::string(name));
}

ClientCacheOptions ClientCacheOptionsFromSpec(
    const std::map<std::string, std::string>& config) {
  ClientCacheOptions options;
  options.mode = ClientCacheMode::kOff;
  auto it = config.find("cache");
  if (it != config.end()) {
    auto mode = ParseClientCacheMode(it->second);
    if (mode.ok()) options.mode = *mode;
  }
  it = config.find("cache_bytes");
  if (it != config.end()) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(it->second.c_str(),
                                                    &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      options.cache_bytes = static_cast<std::size_t>(parsed);
    }
  }
  // The budget must hold at least one block or the cache can never admit
  // anything.
  options.cache_bytes = std::max(options.cache_bytes, kCacheBlockSize);
  return options;
}

}  // namespace afs::core
