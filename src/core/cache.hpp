// Lease-based client-side block cache for remote-backed active files
// (docs/CACHING.md — ROADMAP item 3, Gray & Cheriton leases applied to
// the paper's "remote source" column).
//
// Two cooperating pieces:
//
//   CacheLeaseChannel — the client's view of the sentinel-granted lease.
//     Every decoded control response (and idle heartbeat) carries the
//     cache-lease fields (PROTOCOL.md §3.4); the link feeds them into
//     Observe, which latches the grant bits, re-arms the lease deadline,
//     and records the sentinel's content epoch.  OutgoingFlags is stamped
//     into every outbound control message, which is how the client asks
//     for a lease and acknowledges recalls.  Revoke is the supervision
//     hook: a dead sentinel's lease is void immediately, not at expiry.
//
//   CachedHandle — wraps a strategy-opened (possibly supervised) handle.
//     While a read lease is live, reads are served from 4 KiB blocks in
//     client memory and never cross the IPC boundary; a write lease adds
//     bounded write-behind whose dirty blocks flush through the inner
//     handle's positional write path, so supervised restart and
//     kill-replay stay byte-exact.  A stale lease is renewed with one
//     cheap crossing before any cached byte is served; a recall or
//     revocation flushes dirty blocks and drops the rest.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>

#include "common/mutex.hpp"
#include "common/status.hpp"
#include "core/overload.hpp"
#include "core/strategies.hpp"
#include "sentinel/control.hpp"
#include "vfs/file_handle.hpp"

namespace afs::core {

// The `cache=` spec key's client-cache face (docs/CACHING.md): off keeps
// the classic uncached link; read caches clean blocks under a read lease;
// write adds write-behind under a write lease.  (The same key's legacy
// values none/disk/memory select the sentinel-side data part and imply
// off here.)
enum class ClientCacheMode : std::uint8_t { kOff = 0, kRead = 1, kWrite = 2 };

// The lease state shared between the link (observer side) and the cached
// handle (consumer side).  Lock-free: links observe from their transport
// threads while the handle snapshots from the op path.
class CacheLeaseChannel {
 public:
  // One coherent view of the lease for an op to act on.
  struct State {
    bool read = false;        // read lease granted
    bool write = false;       // write lease granted
    bool recall = false;      // sentinel is recalling cached blocks
    bool live = false;        // grant present and the deadline has not passed
    bool granted_once = false;  // any grant ever observed
    std::uint32_t epoch = 0;  // sentinel content epoch of the grant
    std::uint64_t revocations = 0;  // supervision revoke count
  };

  // Latches the grant carried by one decoded response.  Heartbeat frames
  // whose cache fields are all zero carry no lease information (an
  // endpoint without lease state wired) and are ignored; everything else
  // is authoritative, including an all-zero grant from a sentinel that
  // stopped granting.  `heartbeat` marks liveness frames.
  void Observe(const sentinel::ControlResponse& response, bool heartbeat);
  void Observe(const sentinel::ControlResponse& response) {
    Observe(response, response.heartbeat);
  }

  // The cache flags the next outbound message should carry: kCacheWantLease
  // always (this channel exists because the client caches), plus
  // kCacheRecallAck while an acknowledged drop awaits the sentinel's
  // recall-clear.
  std::uint8_t OutgoingFlags() const noexcept;

  // Called by the cached handle after it has dropped its blocks for the
  // recalled epoch; the next outbound message carries the ack.
  void AckRecall() noexcept;

  // Supervision hook (lease expiry / sentinel death / restart): voids the
  // grant immediately so the cache drops instead of serving stale blocks,
  // and bumps the revocation counter — which is what disambiguates a
  // restarted sentinel's epoch numbering from the old incarnation's.
  void Revoke() noexcept;

  State Snapshot() const noexcept;

 private:
  std::atomic<std::uint8_t> grant_{0};
  std::atomic<std::uint32_t> lease_ms_{0};
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::int64_t> deadline_us_{0};  // steady-clock micros
  std::atomic<std::uint64_t> revocations_{0};
  std::atomic<bool> ack_pending_{false};
  // Latches once a grant arrives.  Sentinels that grant nothing never set
  // it, which is what keeps the passthrough path free of per-op renewal
  // crossings.
  std::atomic<bool> ever_granted_{false};
};

// Options for one cached open, parsed from the spec by the manager:
//   cache        : read | write (off never constructs a CachedHandle)
//   cache_bytes  : total block-cache budget (default 256 KiB); also the
//                  AdmissionGate budget bounding dirty write-behind bytes
//   lease_ms     : granted by the sentinel; the client only consumes it
struct ClientCacheOptions {
  ClientCacheMode mode = ClientCacheMode::kRead;
  std::size_t cache_bytes = 256 * 1024;
};

// Builds the options from a sentinel spec config.  Returns kOff mode when
// the spec does not ask for a client cache.
ClientCacheOptions ClientCacheOptionsFromSpec(
    const std::map<std::string, std::string>& config);

// Parses the `cache=` key's client-cache face: off|none|disk|memory -> kOff
// (legacy data-part values imply no client cache), read -> kRead,
// write -> kWrite.
Result<ClientCacheMode> ParseClientCacheMode(std::string_view name);

// Wraps `inner` (the strategy/supervised stub) in the lease-consuming
// block cache.  `channel` must be the same channel the inner handle's
// link observes responses into.
std::unique_ptr<vfs::FileHandle> WrapCached(
    std::unique_ptr<vfs::FileHandle> inner,
    std::shared_ptr<CacheLeaseChannel> channel,
    const ClientCacheOptions& options);

}  // namespace afs::core
