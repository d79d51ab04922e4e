#include "ipc/pipe.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/faultpoint.hpp"
#include "common/spin_wait.hpp"

namespace afs::ipc {

namespace {

// ppoll's form of a wait bound: nullptr (no limit) when non-positive.
const timespec* Bound(Micros timeout, timespec& storage) {
  if (timeout.count() <= 0) return nullptr;
  storage.tv_sec = static_cast<time_t>(timeout.count() / 1'000'000);
  storage.tv_nsec = static_cast<long>(timeout.count() % 1'000'000) * 1000;
  return &storage;
}

// iovec slots per writev; longer gather lists go out in batches.
constexpr int kGatherBatch = 16;

}  // namespace

void PipeEnd::Close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status PipeEnd::SetCloexec() {
  if (!valid()) return ClosedError("cloexec on closed pipe end");
  const int flags = ::fcntl(fd_, F_GETFD);
  if (flags < 0 || ::fcntl(fd_, F_SETFD, flags | FD_CLOEXEC) != 0) {
    return IoError(std::string("fcntl FD_CLOEXEC: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Result<bool> PipeEnd::PollFor(short events, const timespec* bound) const {
  if (!valid()) return ClosedError("wait on closed pipe end");
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = events;
  while (true) {
    const int rc = ::ppoll(&pfd, 1, bound, nullptr);
    if (rc >= 0) return rc > 0;
    if (errno == EINTR) continue;
    return IoError(std::string("pipe poll: ") + std::strerror(errno));
  }
}

Status PipeEnd::WaitReadable(Micros timeout) const {
  timespec storage{};
  AFS_ASSIGN_OR_RETURN(bool ready, PollFor(POLLIN, Bound(timeout, storage)));
  return ready ? Status::Ok() : TimeoutError("pipe read timed out");
}

Status PipeEnd::WaitWritable(Micros timeout) const {
  timespec storage{};
  AFS_ASSIGN_OR_RETURN(bool ready, PollFor(POLLOUT, Bound(timeout, storage)));
  return ready ? Status::Ok() : TimeoutError("pipe write timed out");
}

Result<bool> PipeEnd::Poll() const {
  const timespec now{};
  return PollFor(POLLIN, &now);
}

Result<std::size_t> PipeEnd::ReadSome(MutableByteSpan out, Micros timeout) {
  if (!valid()) return ClosedError("read on closed pipe end");
  AFS_FAULT_POINT("ipc.pipe.read");
  // A truncate fault shortens the transfer; truncating to zero makes the
  // caller observe a premature EOF, the classic dead-peer shape.
  out = out.first(AFS_FAULT_TRUNCATE("ipc.pipe.read", out.size()));
  ssize_t n = -1;
  int error = 0;
  // One read; false only while the pipe is empty (or the read was
  // interrupted).  Data, EOF and hard errors all end the wait.
  auto attempt = [&] {
    n = ::read(fd_, out.data(), out.size());
    error = n < 0 ? errno : 0;
    return n >= 0 ||
           (error != EAGAIN && error != EWOULDBLOCK && error != EINTR);
  };
  if (!attempt()) {
    // Taken before the spin, so the spin is part of the wait `timeout`
    // bounds.
    const bool bounded = timeout.count() > 0;
    const auto deadline =
        bounded ? std::chrono::steady_clock::now() + timeout
                : std::chrono::steady_clock::time_point::max();
    // A peer on another core usually answers within microseconds: an
    // empty pipe is read again for the spin budget before ppoll parks the
    // thread.  A spin that ran out has just read, so the park comes first.
    if (!SpinWait(attempt, deadline)) {
      do {
        Micros wait = timeout;
        if (bounded) {
          wait = std::chrono::duration_cast<Micros>(
              deadline - std::chrono::steady_clock::now());
          if (wait.count() <= 0) return TimeoutError("pipe read timed out");
        }
        AFS_RETURN_IF_ERROR(WaitReadable(wait));
      } while (!attempt());
    }
  }
  if (n >= 0) return static_cast<std::size_t>(n);
  return IoError(std::string("pipe read: ") + std::strerror(error));
}

Status PipeEnd::ReadExact(MutableByteSpan out, Micros timeout) {
  std::size_t done = 0;
  while (done < out.size()) {
    AFS_ASSIGN_OR_RETURN(std::size_t n,
                         ReadSome(out.subspan(done), timeout));
    if (n == 0) return ClosedError("pipe peer closed mid-message");
    done += n;
  }
  return Status::Ok();
}

Status PipeEnd::WriteAll(GatherList bytes, Micros timeout) {
  if (!valid()) return ClosedError("write on closed pipe end");
  AFS_FAULT_POINT("ipc.pipe.write");
  const std::span<const ByteSpan> parts = bytes.parts();
  std::size_t total = 0;
  for (ByteSpan part : parts) total += part.size();
  // A truncate fault ships a prefix of the gathered bytes and then fails
  // as if the peer vanished mid-message — the receiver sees a torn frame.
  const std::size_t keep = AFS_FAULT_TRUNCATE("ipc.pipe.write", total);
  std::size_t left = keep;
  std::size_t part = 0;    // first part with unwritten bytes
  std::size_t offset = 0;  // bytes of parts[part] already written
  while (left > 0) {
    iovec iov[kGatherBatch];
    int count = 0;
    std::size_t room = left;
    for (std::size_t i = part;
         i < parts.size() && count < kGatherBatch && room > 0; ++i) {
      const std::size_t skip = i == part ? offset : 0;
      const std::size_t len = std::min(parts[i].size() - skip, room);
      if (len == 0) continue;
      // writev(2) takes a non-const base pointer but only reads through it.
      // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
      iov[count++] = {const_cast<std::uint8_t*>(parts[i].data() + skip), len};
      room -= len;
    }
    const ssize_t n = ::writev(fd_, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        AFS_RETURN_IF_ERROR(WaitWritable(timeout));
        continue;
      }
      if (errno == EPIPE) return ClosedError("pipe peer closed");
      return IoError(std::string("pipe write: ") + std::strerror(errno));
    }
    left -= static_cast<std::size_t>(n);
    offset += static_cast<std::size_t>(n);
    while (part < parts.size() && offset >= parts[part].size()) {
      offset -= parts[part].size();
      ++part;
    }
  }
  if (keep < total) return ClosedError("pipe peer closed mid-write (fault)");
  return Status::Ok();
}

bool PipeWriterHasReader(int write_fd) noexcept {
  if (write_fd < 0) return false;
  pollfd pfd{};
  pfd.fd = write_fd;
  pfd.events = 0;  // POLLERR is reported regardless of the event mask
  while (true) {
    const int rc = ::poll(&pfd, 1, 0);
    if (rc >= 0) return (pfd.revents & (POLLERR | POLLNVAL)) == 0;
    if (errno == EINTR) continue;
    return false;
  }
}

Result<Pipe> Pipe::Create() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK) != 0) {
    return IoError(std::string("pipe: ") + std::strerror(errno));
  }
  Pipe p;
  p.read_end = PipeEnd(fds[0]);
  p.write_end = PipeEnd(fds[1]);
  return p;
}

}  // namespace afs::ipc
