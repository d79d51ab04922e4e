#include "net/socket_transport.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/backoff.hpp"
#include "common/faultpoint.hpp"
#include "ipc/framing.hpp"
#include "ipc/pipe.hpp"
#include "ipc/process.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace afs::net {

using core::EventLoop;

namespace {

Status FillSockaddr(const std::string& path, sockaddr_un& addr) {
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path too long: " + path);
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

}  // namespace

SocketServer::SocketServer(std::string socket_path, RpcHandler& handler)
    : SocketServer(std::move(socket_path), handler, Options{}) {}

SocketServer::SocketServer(std::string socket_path, RpcHandler& handler,
                           Options options)
    : path_(std::move(socket_path)), handler_(handler), options_(options) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (running_.load()) return Status::Ok();
  // A peer vanishing mid-write must surface as EPIPE, not kill the process.
  ipc::IgnoreSigpipe();
  sockaddr_un addr;
  AFS_RETURN_IF_ERROR(FillSockaddr(path_, addr));

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path_.c_str());  // stale socket from a previous run
  // sockaddr_un -> sockaddr is the POSIX-sanctioned sockets-API pun.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IoError("bind " + path_ + ": " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IoError(std::string("listen: ") + std::strerror(err));
  }
  Status started = loop_.Start();
  if (started.ok()) {
    started = loop_.RegisterFd(listen_fd_, EventLoop::kReadable,
                               [this](std::uint32_t) { OnListenReady(); });
  }
  if (!started.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    return started;
  }
  running_.store(true);
  return Status::Ok();
}

void SocketServer::Stop() {
  if (!running_.exchange(false)) return;
  // Stop the loop first: once its thread joins, no callback can touch the
  // connection table, so this thread owns the teardown below.
  loop_.Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  ::unlink(path_.c_str());
}

void SocketServer::OnListenReady() {
  // Drain the accept backlog: edge-ish batching — one wakeup admits every
  // connection that is already queued.
  while (true) {
    int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0 && !fault::Hit("net.accept.emfile").ok()) {
      // Injected descriptor exhaustion: treat the accept as if it had
      // failed with EMFILE so the backoff path is testable on demand.
      ::close(fd);
      fd = -1;
      errno = EMFILE;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      if (errno == EMFILE || errno == ENFILE) {
        BackOffAccept();
        return;
      }
      return;  // transient accept error: wait for the next wakeup
    }
    Connection conn;
    conn.gen = next_gen_++;
    conns_.emplace(fd, std::move(conn));
    const Status reg =
        loop_.RegisterFd(fd, EventLoop::kReadable, [this, fd](
                                                       std::uint32_t ready) {
          OnConnReady(fd, ready);
        });
    if (!reg.ok()) {
      conns_.erase(fd);
      ::close(fd);
    }
  }
}

void SocketServer::BackOffAccept() {
  // Out of descriptors: the listener stays readable for as long as the
  // backlog holds connections we cannot accept, so leaving it registered
  // would spin the level-triggered loop at 100% CPU.  Park it and re-arm
  // from a timer; pending clients wait in the listen backlog meanwhile.
  static obs::Counter& emfile =
      obs::Registry::Global().GetCounter("net.accept.emfile");
  emfile.Add(1);
  loop_.UnregisterFd(listen_fd_);
  constexpr Micros kAcceptBackoff{50'000};
  loop_.AddTimer(kAcceptBackoff, [this] {
    if (!running_.load()) return;
    const Status reg =
        loop_.RegisterFd(listen_fd_, EventLoop::kReadable,
                         [this](std::uint32_t) { OnListenReady(); });
    // Still exhausted (epoll_ctl needs a descriptor too): go around again.
    if (!reg.ok()) BackOffAccept();
  });
}

void SocketServer::OnConnReady(int fd, std::uint32_t ready) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::uint64_t gen = it->second.gen;
  if ((ready & EventLoop::kWritable) != 0 && it->second.want_write) {
    if (!FlushConn(fd, it->second)) return;
  }
  if ((ready & EventLoop::kReadable) == 0) return;
  std::uint8_t chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {  // orderly shutdown from the client
      CloseConn(fd);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained
      CloseConn(fd);
      return;
    }
    if (!it->second.decoder
             .Append(ByteSpan(chunk, static_cast<std::size_t>(n)))
             .ok()) {
      CloseConn(fd);  // corrupt length prefix: the peer is not speaking AFS
      return;
    }
  }
  // Dispatch every complete frame the read produced.  HandleFrame can close
  // the connection (injected fault), so re-validate the entry per frame.
  while (true) {
    auto live = conns_.find(fd);
    if (live == conns_.end() || live->second.gen != gen) return;
    std::optional<Buffer> frame = live->second.decoder.Next();
    if (!frame.has_value()) return;
    HandleFrame(fd, gen, std::move(*frame));
  }
}

void SocketServer::HandleFrame(int fd, std::uint64_t gen, Buffer request) {
  // Injected server-side fault: drop the connection without replying —
  // the client observes a mid-call disconnect and must recover.
  if (!fault::Hit("net.socket.serve").ok()) {
    CloseConn(fd);
    return;
  }
  if (options_.service_delay.count() > 0) {
    // The modeled service time is a loop timer, not a sleep: a delayed
    // request parks no thread and stalls no other connection.  The
    // generation check drops the work if this descriptor number was
    // recycled for a newer connection before the timer fired.
    loop_.AddTimer(options_.service_delay,
                   [this, fd, gen, request = std::move(request)] {
                     auto it = conns_.find(fd);
                     if (it == conns_.end() || it->second.gen != gen) return;
                     RunRequest(fd, request);
                   });
    return;
  }
  RunRequest(fd, request);
}

void SocketServer::RunRequest(int fd, const Buffer& request) {
  Buffer envelope = RunHandlerToEnvelope(handler_, request);
  // Count before the reply ships: a client that has its response must
  // observe the incremented counter.
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  if (options_.max_outbuf_bytes > 0 &&
      (conn.outbuf.size() - conn.out_off) + envelope.size() + 4 >
          options_.max_outbuf_bytes) {
    // Slow consumer: the peer keeps sending requests but stopped draining
    // responses.  Disconnect instead of buffering without bound — the
    // client observes kClosed and recovers through its retry path.
    static obs::Counter& slow =
        obs::Registry::Global().GetCounter("net.socket.slow_reader_drops");
    slow.Add(1);
    CloseConn(fd);
    return;
  }
  AppendU32(conn.outbuf, static_cast<std::uint32_t>(envelope.size()));
  conn.outbuf.insert(conn.outbuf.end(), envelope.begin(), envelope.end());
  (void)FlushConn(fd, conn);
}

bool SocketServer::FlushConn(int fd, Connection& conn) {
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n = ::send(fd, conn.outbuf.data() + conn.out_off,
                             conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: hand the rest to write-readiness and move on.
        if (!conn.want_write) {
          conn.want_write = true;
          if (!loop_.ModifyFd(fd, EventLoop::kReadable | EventLoop::kWritable)
                   .ok()) {
            // No write-readiness means the reply can never drain.
            CloseConn(fd);
            return false;
          }
        }
        return true;
      }
      CloseConn(fd);
      return false;
    }
    conn.out_off += static_cast<std::size_t>(n);
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    if (!loop_.ModifyFd(fd, EventLoop::kReadable).ok()) {
      // Unknown epoll interest state: drop the connection rather than risk
      // a busy-loop of spurious write wakeups.
      CloseConn(fd);
      return false;
    }
  }
  return true;
}

void SocketServer::CloseConn(int fd) {
  loop_.UnregisterFd(fd);
  ::close(fd);
  conns_.erase(fd);
}

SocketClient::SocketClient(std::string socket_path)
    : SocketClient(std::move(socket_path), Options{}) {}

SocketClient::SocketClient(std::string socket_path, Options options)
    : path_(std::move(socket_path)), options_(options) {
  ipc::IgnoreSigpipe();
}

SocketClient::~SocketClient() { Disconnect(); }

Status SocketClient::EnsureConnected() {
  if (fd_ >= 0) return Status::Ok();
  static obs::Counter& connects =
      obs::Registry::Global().GetCounter("net.socket.connects");
  connects.Add(1);
  AFS_FAULT_POINT("net.socket.connect");
  sockaddr_un addr;
  AFS_RETURN_IF_ERROR(FillSockaddr(path_, addr));
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  const Micros bound = options_.call_timeout.count() > 0
                           ? options_.call_timeout
                           : ipc::kIoLegTimeout;
  // sockaddr_un -> sockaddr is the POSIX-sanctioned sockets-API pun.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  // afs-lint: allow(nonblocking: O_NONBLOCK connect; bounded by the WaitWritable deadline below)
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const int err = errno;
      Disconnect();
      return IoError("connect " + path_ + ": " + std::strerror(err));
    }
    // Connect in flight: wait (bounded) for writability, then read the
    // kernel's verdict out of SO_ERROR.
    ipc::PipeEnd probe(fd_);
    const Status ready = probe.WaitWritable(bound);
    int so_error = 0;
    if (ready.ok()) {
      socklen_t len = sizeof(so_error);
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
        so_error = errno;
      }
    }
    (void)probe.Release();
    if (!ready.ok()) {
      Disconnect();
      return ready;
    }
    if (so_error != 0) {
      Disconnect();
      return IoError("connect " + path_ + ": " + std::strerror(so_error));
    }
  }
  // The socket stays non-blocking as socket() made it: CallOnce's frame
  // transfers wait only on EAGAIN, each wait under its deadline.
  return Status::Ok();
}

void SocketClient::Disconnect() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Buffer> SocketClient::CallOnce(ByteSpan request) {
  AFS_RETURN_IF_ERROR(EnsureConnected());
  AFS_FAULT_POINT("net.socket.call");
  // Borrow the fd for framing without transferring ownership.
  ipc::PipeEnd stream(fd_);
  const Micros bound = options_.call_timeout.count() > 0
                           ? options_.call_timeout
                           : ipc::kIoLegTimeout;
  Status sent = ipc::WriteFrame(stream, request, bound);
  if (!sent.ok()) {
    (void)stream.Release();
    Disconnect();
    return sent;
  }
  Result<Buffer> envelope = ipc::ReadFrame(stream, options_.call_timeout);
  (void)stream.Release();
  if (!envelope.ok()) {
    Disconnect();
    return envelope.status();
  }
  return DecodeResponseEnvelope(*envelope);
}

Result<Buffer> SocketClient::Call(ByteSpan request) {
  static obs::Counter& calls =
      obs::Registry::Global().GetCounter("net.socket.calls");
  static obs::Counter& retries =
      obs::Registry::Global().GetCounter("net.socket.retries");
  static obs::Counter& bytes_out =
      obs::Registry::Global().GetCounter("net.socket.bytes_out");
  static obs::Counter& bytes_in =
      obs::Registry::Global().GetCounter("net.socket.bytes_in");
  static obs::Histogram& latency =
      obs::Registry::Global().GetHistogram("net.socket.call_us");
  // The remote leg of the trace: when a sentinel serves a traced command
  // by fetching from a remote source, this span nests under the dispatch
  // span and rides home with it.
  obs::Span span("net.socket.call");
  const std::uint64_t n = calls.Increment();
  obs::ScopedLatencyTimer timer((n & 15) == 0 ? &latency : nullptr);
  bytes_out.Add(request.size());
  Result<Buffer> reply = CallOnce(request);
  Backoff backoff(options_.max_retries, options_.retry_backoff,
                  options_.retry_backoff_cap);
  while (!reply.ok()) {
    const ErrorCode code = reply.status().code();
    // Only transport-level failures are retryable.  A timeout means the
    // request may have executed — retrying would break at-most-once — and
    // any other code is an answer from the server, not a transport fault.
    const bool transient =
        code == ErrorCode::kIoError || code == ErrorCode::kClosed;
    if (!transient || !backoff.Next(SteadyClock::Instance())) break;
    retries.Add(1);
    reply = CallOnce(request);
  }
  if (reply.ok()) bytes_in.Add(reply->size());
  return reply;
}

}  // namespace afs::net
