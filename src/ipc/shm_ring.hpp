// Cross-process shared-memory ring — the zero-copy bulk data plane for the
// process strategies.
//
// core::ThreadRendezvous realizes the paper's Appendix A.3 "events and
// shared memory" transport *inside one process*; ShmRing carries the same
// idea across a protection-domain boundary: one anonymous memory file
// (memfd_create, shm_open fallback) mapped by both the application and its
// sentinel, holding two single-producer/single-consumer byte rings — one
// per direction — whose head/tail words are C++ atomics in the shared
// mapping and whose blocking is futex waits on a per-direction eventcount
// word.  A bulk payload crosses the domain boundary with exactly
// one user-level copy per side and no kernel data movement, which is what
// closes most of the Figure 6 gap between the process strategies and the
// DLL series (docs/SHM_DATA_PLANE.md).
//
// Concurrency contract: per direction, at most one writer thread and one
// reader thread at a time (the link/endpoint layers already serialize to
// that).  The two directions are fully independent.
//
// Liveness: every wait is a chain of bounded futex slices against the
// caller's deadline — a peer that dies without closing costs the survivor
// kTimeout, never a parked thread.  A peer that closes (CloseDir/CloseAll,
// or ~ShmRing) wakes the other side immediately: readers drain buffered
// bytes then see EOF, writers fail with kClosed.
#pragma once

#include <cstddef>
#include <memory>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"

namespace afs::ipc {

class ShmRing {
 public:
  // Direction indices: the application produces into kToSentinel and
  // consumes from kToApp; the sentinel does the opposite.
  static constexpr int kToSentinel = 0;
  static constexpr int kToApp = 1;

  // Creates a fresh ring region sized `ring_bytes` per direction (rounded
  // up to a power of two, clamped to [4 KiB, 64 MiB]) backed by an
  // anonymous memory file.  The descriptor is inheritable (no close-on-exec)
  // so fork- and exec-mode sentinels can attach; see docs/SHM_DATA_PLANE.md
  // for how it travels at link setup.
  static Result<std::shared_ptr<ShmRing>> Create(std::size_t ring_bytes);

  // Maps an existing ring region from an inherited descriptor, taking
  // ownership of `fd`.  kProtocolError when the header does not validate
  // (wrong magic/version, size mismatch) — the caller falls back to pipes.
  static Result<std::shared_ptr<ShmRing>> Attach(int fd);

  ~ShmRing();

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  // The backing descriptor (for fd passing at link setup).
  int fd() const noexcept { return fd_; }

  // Capacity of one direction's ring in bytes.
  std::size_t ring_bytes() const noexcept;

  // Writes all of `bytes` into direction `dir`, futex-waiting (in bounded
  // slices against `timeout`; non-positive = unbounded) while the ring is
  // full.  kClosed if the direction is closed, kTimeout when the reader
  // stopped draining.  Payloads larger than the ring capacity stream
  // through it; the concurrent reader provides the space.
  Status Write(int dir, ByteSpan bytes, Micros timeout);

  // Blocks (bounded by `timeout`) until direction `dir` has at least one
  // byte or its write side closed; returns 0 only at end-of-stream (closed
  // and drained).
  Result<std::size_t> ReadSome(int dir, MutableByteSpan out, Micros timeout);

  // Reads exactly out.size() bytes; kClosed on premature end-of-stream.
  Status ReadExact(int dir, MutableByteSpan out, Micros timeout);

  // Signals end-of-stream on one direction: readers drain then see EOF,
  // writers fail with kClosed.  Idempotent.
  void CloseDir(int dir);

  // Closes both directions (link teardown).
  void CloseAll();

  bool dir_closed(int dir) const;

  // Bytes currently buffered (produced, not yet consumed) in `dir`.
  std::size_t buffered(int dir) const;

 private:
  struct Region;

  ShmRing(int fd, void* map, std::size_t map_len) noexcept
      : fd_(fd), map_(map), map_len_(map_len) {}

  Region* region() const noexcept;

  int fd_ = -1;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
};

}  // namespace afs::ipc
