// The four implementation strategies of paper Section 4 / Figure 4.
//
//   kProcess         — sentinel in a forked child, two anonymous pipes on
//                      its standard streams; only read/write/close can
//                      travel (Section 4.1's stated limitation).
//   kProcessControl  — child plus a control channel carrying typed
//                      commands, supporting the full file API (Section 4.2).
//   kThread          — sentinel as an in-process thread over a shared-
//                      memory rendezvous ("DLL-with-thread", Section 4.3).
//   kDirect          — file operations call sentinel routines directly
//                      ("DLL-only", Section 4.4); no extra thread, no
//                      context switch.
//
// Plus one post-paper strategy:
//
//   kLoop            — sentinel sessions hosted on a shared pool of epoll
//                      event loops (core/loop_host.hpp): many sentinels
//                      per shard thread, no per-session descriptors.
#pragma once

#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "core/bundle.hpp"
#include "sentinel/context.hpp"
#include "sentinel/registry.hpp"
#include "vfs/file_handle.hpp"

namespace afs::core {

struct SessionProbe;      // core/supervisor.hpp
class CacheLeaseChannel;  // core/cache.hpp

enum class Strategy : std::uint8_t {
  kProcess = 1,
  kProcessControl = 2,
  kThread = 3,
  kDirect = 4,
  // Post-paper addition (the event-loop data plane): sentinel sessions
  // multiplexed onto a small shard pool of epoll loops instead of one
  // dedicated thread or process per open — see docs/EVENT_LOOP.md.
  kLoop = 5,
};

std::string_view StrategyName(Strategy strategy) noexcept;
Result<Strategy> ParseStrategy(std::string_view name);

enum class CacheMode : std::uint8_t { kNone = 0, kDisk = 1, kMemory = 2 };

std::string_view CacheModeName(CacheMode mode) noexcept;
Result<CacheMode> ParseCacheMode(std::string_view name);

// The sentinel's view of the data part for one open, assembled per cache
// mode.  kMemory loads the bundle's data region at open and (by default)
// writes it back at close; kDisk operates on the region in place; kNone
// exposes no data part.
struct CacheAssembly {
  std::unique_ptr<sentinel::DataStore> store;  // null for kNone
  std::shared_ptr<BundleFile> bundle;          // null for kNone
  CacheMode mode = CacheMode::kDisk;
  bool writeback = true;

  // Persists a memory cache back into the bundle.  Called after the
  // sentinel's OnClose, in whichever process the sentinel ran in.
  Status Finalize();
};

Result<CacheAssembly> AssembleCache(const std::string& host_path,
                                    const sentinel::SentinelSpec& spec);

// Everything a strategy needs to stand up one sentinel for one open.
struct OpenRequest {
  std::string vfs_path;   // what the application opened
  std::string host_path;  // the bundle on the host filesystem
  sentinel::SentinelSpec spec;
  sentinel::RemoteResolver* resolver = nullptr;  // may be null
  std::string lock_dir;

  // Supervision extras (set by core/active_file.cpp, zero by default):
  // positive → the sentinel side emits idle heartbeats / renews its lease
  // at this cadence.
  Micros heartbeat_interval{0};
  // Stream-strategy re-attach: the reader pump starts streaming at
  // resume_read_pos and the first inbound write applies at
  // resume_write_pos, so a restarted sentinel resumes mid-file instead of
  // replaying from byte zero.
  std::uint64_t resume_read_pos = 0;
  std::uint64_t resume_write_pos = 0;

  // Client-cache lease plumbing (set by the manager when the spec asks for
  // cache=read|write, null otherwise): the link stamps this channel's
  // OutgoingFlags into every control message and feeds every decoded
  // response back through Observe, so the cache stage of the
  // ActiveFileHandle above the stub always sees the sentinel's current
  // grant (docs/CACHING.md).
  std::shared_ptr<CacheLeaseChannel> cache_channel;
};

// Builds the application-side transport (the "stub") for the given
// strategy, spawning/injecting the sentinel as a side effect.  On error
// nothing is left running.  Transports are not thread-safe: the one
// ActiveFileHandle above (core/active_file.hpp) serializes every call and
// owns the closed state.  A non-null `probe` is filled with the
// session's liveness hooks (lease, child watch, force-down) for the
// supervisor; pass nullptr when the open is unsupervised.
Result<std::unique_ptr<vfs::FileHandle>> OpenWithStrategy(
    Strategy strategy, const sentinel::SentinelRegistry& registry,
    const OpenRequest& request, SessionProbe* probe = nullptr);

}  // namespace afs::core
