// The one vfs::FileHandle an application holds for an active file — the
// paper's stub, whatever the strategy behind it (core::ActiveFileHandle,
// defined in active_file.cpp).
//
// Every operation takes the handle's one mutex and runs the same fixed
// stages in order.  The first two exist only when the bundle's spec asks
// for them:
//
//   1. cache        (cache=read|write, docs/CACHING.md) — while the
//                   sentinel's lease is live, reads are served from 4 KiB
//                   blocks in client memory and cache=write buffers dirty
//                   blocks; a recall or revocation flushes and drops them.
//   2. supervision  (supervise=1, docs/RECOVERY.md) — journals each
//                   transport call write-ahead; on a sentinel crash it
//                   restarts the sentinel with bounded backoff and retries
//                   the call, or degrades to the bundle's data part.
//   3. transport    the strategy stub (core/strategies.hpp) that carries
//                   the call to the sentinel.  Transports hold no lock and
//                   no closed flag of their own.
//
// The handle owns the one logical file position.  It also tracks where the
// transport's own file pointer stands, and seeks the transport before a
// positional call only when the two differ: after the cache served ops
// from memory, or after a restart handed it a fresh sentinel at offset 0.
#pragma once

#include <memory>

#include "common/status.hpp"
#include "core/strategies.hpp"
#include "vfs/file_handle.hpp"

namespace afs::core {

class SessionJournal;
class Supervisor;

// Opens `request` with `strategy` behind an ActiveFileHandle; the spec's
// cache= and supervise= keys select stages 1 and 2.  Direct-strategy opens
// run the sentinel in the caller's frame and cannot be supervised
// (kUnsupported).
Result<std::unique_ptr<vfs::FileHandle>> OpenActiveFile(
    Supervisor& supervisor, SessionJournal& journal,
    const sentinel::SentinelRegistry& registry, Strategy strategy,
    OpenRequest request);

}  // namespace afs::core
