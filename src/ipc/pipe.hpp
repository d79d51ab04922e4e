// RAII POSIX pipe endpoints.  The paper's process-based strategies attach
// anonymous pipes to the sentinel's standard input/output (Section 4.1);
// Pipe/PipeEnd are the equivalent.
//
// Every pipe is non-blocking from creation, so there is one transfer path:
// each call reads or writes first and waits (ppoll) only on EAGAIN.  Every
// transfer takes a deadline — each wait is capped by `timeout`, and a
// non-positive timeout waits forever, which is how blocking callers use
// the same functions.  A wedged peer costs a bounded caller kTimeout,
// never a hang.
#pragma once

#include <cstddef>
#include <ctime>
#include <initializer_list>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"

namespace afs::ipc {

// Default bound on one transfer leg (pipe, socket or shm ring) that no
// operator-configured deadline covers.  A live peer finishes a leg in
// microseconds; ten seconds without progress means it stopped draining
// or producing, and kTimeout beats a parked thread.
inline constexpr Micros kIoLegTimeout{10'000'000};

// The bytes of one WriteAll: a single span, or several spans written back
// to back by one writev(2).  A view — the spans must outlive the call.
class GatherList {
 public:
  GatherList(ByteSpan bytes) noexcept : one_(bytes) {}  // NOLINT(implicit)
  GatherList(std::span<const ByteSpan> parts) noexcept  // NOLINT(implicit)
      : parts_(parts) {}
  GatherList(std::initializer_list<ByteSpan> parts) noexcept
      : parts_(parts.begin(), parts.size()) {}

  std::span<const ByteSpan> parts() const noexcept {
    return parts_.data() != nullptr ? parts_
                                    : std::span<const ByteSpan>(&one_, 1);
  }

 private:
  ByteSpan one_;
  std::span<const ByteSpan> parts_;
};

// One end (read or write) of a pipe; owns the file descriptor.  Also
// borrowed over a connected stream socket (SocketClient), which is
// likewise non-blocking from creation.
class PipeEnd {
 public:
  PipeEnd() noexcept = default;
  explicit PipeEnd(int fd) noexcept : fd_(fd) {}
  ~PipeEnd() { Close(); }

  PipeEnd(PipeEnd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  PipeEnd& operator=(PipeEnd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  PipeEnd(const PipeEnd&) = delete;
  PipeEnd& operator=(const PipeEnd&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  // Releases ownership of the descriptor to the caller.
  int Release() noexcept { return std::exchange(fd_, -1); }

  void Close() noexcept;

  // Marks the descriptor close-on-exec.  Application-side ends must not
  // leak into exec'd sentinel children, or EOF never propagates.
  Status SetCloexec();

  // Reads what is available, up to out.size(); returns 0 at EOF (peer
  // closed).  Waits up to `timeout` for bytes only when none are pending.
  Result<std::size_t> ReadSome(MutableByteSpan out, Micros timeout = {});

  // Reads exactly out.size() bytes or fails (kClosed on premature EOF).
  Status ReadExact(MutableByteSpan out, Micros timeout = {});

  // Writes every byte of `bytes` — one writev(2) when the pipe has room —
  // retrying short writes and EINTR.  kClosed when the reader is gone.
  Status WriteAll(GatherList bytes, Micros timeout = {});

  // Blocks until the descriptor is readable (data or EOF pending), at
  // most `timeout`; kTimeout when the deadline passes first.
  Status WaitReadable(Micros timeout) const;

  // Blocks until the descriptor accepts bytes (POLLOUT), at most
  // `timeout`; kTimeout when the deadline passes first.
  Status WaitWritable(Micros timeout) const;

  // Readability probe that never waits: true when data (or EOF) is
  // already pending.  Lets a monitor thread drain heartbeat frames
  // without ever stalling on an idle pipe.
  Result<bool> Poll() const;

 private:
  // One ppoll(2) for `events`; false when `bound` (nullptr = no limit)
  // passes first.  Errors and hangups count as ready: the transfer that
  // follows reports them.
  Result<bool> PollFor(short events, const timespec* bound) const;

  int fd_ = -1;
};

// An anonymous pipe pair, both ends O_NONBLOCK.
struct Pipe {
  PipeEnd read_end;
  PipeEnd write_end;

  static Result<Pipe> Create();
};

// True while at least one read end of the pipe whose write end is `write_fd`
// remains open (POLLERR on a pipe write end means every reader is gone).
// Instant, non-blocking; false on a bad descriptor.  This disambiguates the
// stream strategy's EOF: a finished pump still holds the app->sentinel read
// end, while a killed sentinel loses every descriptor at once.
bool PipeWriterHasReader(int write_fd) noexcept;

}  // namespace afs::ipc
