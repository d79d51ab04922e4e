#include "net/http_server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/faultpoint.hpp"
#include "ipc/process.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "util/strings.hpp"

namespace afs::net {
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

bool WriteAllFd(int fd, ByteSpan data) {
  std::size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as EPIPE,
    // not a process-fatal SIGPIPE (belt to IgnoreSigpipe's suspenders —
    // this path must be safe even in embedders with their own handlers).
    const ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads until the end of headers (\r\n\r\n or \n\n); returns the raw text
// and leaves any body prefix in `overflow`.
bool ReadHead(int fd, std::string& head, Buffer& overflow) {
  head.clear();
  overflow.clear();
  char c = 0;
  while (head.size() < 16 * 1024) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n == 0) return !head.empty();
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    head.push_back(c);
    if (head.size() >= 2 && head.compare(head.size() - 2, 2, "\n\n") == 0) {
      return true;
    }
    if (head.size() >= 4 &&
        head.compare(head.size() - 4, 4, "\r\n\r\n") == 0) {
      return true;
    }
  }
  return false;
}

bool ReadExactFd(int fd, MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::map<std::string, std::string> ParseHeaders(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto [name, value] = SplitOnce(lines[i], ':');
    if (!name.empty()) {
      headers[ToLowerAscii(TrimWhitespace(name))] = TrimWhitespace(value);
    }
  }
  return headers;
}

std::string ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 206: return "Partial Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void SendResponse(int fd, int code,
                  const std::map<std::string, std::string>& headers,
                  ByteSpan body, bool include_body) {
  std::string head =
      "HTTP/1.0 " + std::to_string(code) + " " + ReasonPhrase(code) + "\r\n";
  for (const auto& [name, value] : headers) {
    head += name + ": " + value + "\r\n";
  }
  head += "content-length: " + std::to_string(body.size()) + "\r\n";
  head += "connection: close\r\n\r\n";
  if (!WriteAllFd(fd, AsBytes(head))) return;
  if (include_body && !body.empty()) (void)WriteAllFd(fd, body);
}

}  // namespace

HttpServer::HttpServer(std::string socket_path, FileServer& store)
    : HttpServer(std::move(socket_path), store, Options{}) {}

HttpServer::HttpServer(std::string socket_path, FileServer& store,
                       Options options)
    : path_(std::move(socket_path)), store_(store), options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load()) return Status::Ok();
  ipc::IgnoreSigpipe();
  sockaddr_un addr;
  AFS_RETURN_IF_ERROR(FillSockaddr(path_, addr));
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path_.c_str());
  // sockaddr_un -> sockaddr is the POSIX-sanctioned sockets-API pun.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IoError("bind/listen " + path_ + ": " + std::strerror(err));
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the accept loop, and only close the listener once it has exited:
  // a descriptor closed under a running accept() could be reused before
  // the loop sees the shutdown.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> threads;
  {
    MutexLock lock(conn_mu_);
    threads.swap(conn_threads_);
    for (auto& finished : finished_threads_) {
      threads.push_back(std::move(finished));
    }
    finished_threads_.clear();
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock lock(conn_mu_);
    conn_fds_.clear();
  }
  ::unlink(path_.c_str());
}

void HttpServer::AcceptLoop() {
  std::int64_t backoff_us = 10'000;  // EMFILE recovery: 10ms doubling to 500ms
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0 && !fault::Hit("net.accept.emfile").ok()) {
      // Injected descriptor exhaustion: treat the accept as if it had
      // failed with EMFILE so the backoff path is testable on demand.
      ::close(fd);
      fd = -1;
      errno = EMFILE;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion is a load condition, not a dead listener:
        // sleep (instead of hot-spinning accept) and retry.  Pending
        // clients wait in the listen backlog meanwhile.
        static obs::Counter& emfile =
            obs::Registry::Global().GetCounter("net.accept.emfile");
        emfile.Add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        if (backoff_us < 500'000) backoff_us *= 2;
        continue;
      }
      return;
    }
    backoff_us = 10'000;
    if (options_.max_connections > 0 &&
        active_conns_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      // Over the concurrency cap: shed with an explicit 503 + Retry-After
      // instead of queueing an unbounded thread per connection.  The reply
      // is tiny (fits the socket buffer), so the inline write cannot park
      // the accept loop behind a slow client.
      static obs::Counter& shed =
          obs::Registry::Global().GetCounter("net.http.shed");
      shed.Add(1);
      std::map<std::string, std::string> headers;
      headers["retry-after"] =
          std::to_string((options_.retry_after_ms + 999) / 1000);
      SendResponse(fd, 503, headers, AsBytes("server at connection capacity"),
                   true);
      ::close(fd);
      continue;
    }
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(conn_mu_);
    ReapFinishedLocked();
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void HttpServer::ReapFinishedLocked() {
  for (auto& thread : finished_threads_) {
    if (thread.joinable()) thread.join();
  }
  finished_threads_.clear();
}

void HttpServer::ServeConnection(int fd) {
  std::string head;
  Buffer overflow;
  if (ReadHead(fd, head, overflow)) {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    const auto lines = SplitLines(head);
    const auto request_parts = lines.empty()
                                   ? std::vector<std::string>{}
                                   : Split(lines[0], ' ');
    const auto headers = ParseHeaders(lines);
    if (request_parts.size() < 2) {
      SendResponse(fd, 400, {}, AsBytes("bad request line"), true);
    } else {
      const std::string method = ToLowerAscii(request_parts[0]);
      std::string target = request_parts[1];
      if (!target.empty() && target.front() == '/') target.erase(0, 1);

      if ((method == "get" || method == "head") &&
          (target == "stats" || target == "stats.txt")) {
        // Observability endpoint, reserved ahead of the store namespace:
        // GET /stats is the same snapshot afsctl renders (both call into
        // obs::StatsJson), /stats.txt the human form.
        static obs::Counter& stats_requests =
            obs::Registry::Global().GetCounter("net.http.stats_requests");
        stats_requests.Add(1);
        const std::string body =
            target == "stats" ? obs::StatsJson() : obs::StatsText();
        std::map<std::string, std::string> response_headers;
        response_headers["content-type"] =
            target == "stats" ? "application/json" : "text/plain";
        SendResponse(fd, 200, response_headers, AsBytes(body),
                     method == "get");
      } else if (method == "get" || method == "head") {
        auto data = store_.Get(target);
        if (!data.ok()) {
          SendResponse(fd, 404, {}, AsBytes("no such file"), true);
        } else {
          std::map<std::string, std::string> response_headers;
          response_headers["x-revision"] =
              std::to_string(store_.Stat(target).revision);
          auto range = headers.find("range");
          if (method == "get" && range != headers.end() &&
              StartsWith(range->second, "bytes=")) {
            const auto [first_text, last_text] =
                SplitOnce(range->second.substr(6), '-');
            std::uint64_t first = 0;
            std::uint64_t last = 0;
            if (ParseU64(first_text, first) && ParseU64(last_text, last) &&
                first <= last) {
              const std::uint64_t begin =
                  std::min<std::uint64_t>(first, data->size());
              const std::uint64_t end =
                  std::min<std::uint64_t>(last + 1, data->size());
              Buffer part(data->begin() + begin, data->begin() + end);
              SendResponse(fd, 206, response_headers, ByteSpan(part), true);
            } else {
              SendResponse(fd, 400, {}, AsBytes("bad range"), true);
            }
          } else {
            SendResponse(fd, 200, response_headers, ByteSpan(*data),
                         method == "get");
          }
        }
      } else if (method == "put") {
        std::uint64_t length = 0;
        auto it = headers.find("content-length");
        if (it == headers.end() || !ParseU64(it->second, length) ||
            length > 64 * 1024 * 1024) {
          SendResponse(fd, 400, {}, AsBytes("bad content-length"), true);
        } else {
          Buffer body(overflow);
          const std::size_t need = static_cast<std::size_t>(length);
          if (body.size() > need) body.resize(need);
          const std::size_t have = body.size();
          body.resize(need);
          if (need > have &&
              !ReadExactFd(fd, MutableByteSpan(body.data() + have,
                                               need - have))) {
            // connection died mid-body; drop it
          } else {
            const Status stored = store_.Put(target, ByteSpan(body));
            if (stored.ok()) {
              std::map<std::string, std::string> response_headers;
              response_headers["x-revision"] =
                  std::to_string(store_.Stat(target).revision);
              SendResponse(fd, 200, response_headers, AsBytes("stored"),
                           true);
            } else {
              SendResponse(fd, 400, {}, AsBytes(stored.ToString()), true);
            }
          }
        }
      } else {
        SendResponse(fd, 405, {}, AsBytes("method not allowed"), true);
      }
    }
  }
  // Retire this connection's bookkeeping: the fd entry goes away (before
  // the close, so a recycled descriptor number can't alias a new entry)
  // and the thread handle parks in finished_threads_ for the accept loop
  // (or Stop) to join, keeping both tables bounded by the connection cap.
  {
    MutexLock lock(conn_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
    for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
      if (it->get_id() == std::this_thread::get_id()) {
        finished_threads_.push_back(std::move(*it));
        conn_threads_.erase(it);
        break;
      }
    }
  }
  ::close(fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

Result<HttpResponse> HttpClient::Request(
    const std::string& method, const std::string& target, ByteSpan body,
    const std::vector<std::string>& extra_headers) {
  ipc::IgnoreSigpipe();
  sockaddr_un addr;
  AFS_RETURN_IF_ERROR(FillSockaddr(path_, addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return IoError(std::string("socket: ") + std::strerror(errno));
  // sockaddr_un -> sockaddr is the POSIX-sanctioned sockets-API pun.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return IoError("connect " + path_ + ": " + std::strerror(err));
  }

  std::string head = method + " /" + target + " HTTP/1.0\r\n";
  for (const auto& header : extra_headers) head += header + "\r\n";
  if (!body.empty() || method == "PUT") {
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  head += "\r\n";
  // An early reply can race the request: a server shedding at accept
  // (503 + close, before reading a byte) leaves the response buffered on
  // the socket while our send hits EPIPE.  A send failure therefore falls
  // through to the read — the failure only stands if no reply arrived.
  const bool sent = WriteAllFd(fd, AsBytes(head)) &&
                    (body.empty() || WriteAllFd(fd, body));

  std::string response_head;
  Buffer overflow;
  if (!ReadHead(fd, response_head, overflow)) {
    ::close(fd);
    return sent ? ProtocolError("http response head unreadable")
                : IoError("http send failed");
  }
  const auto lines = SplitLines(response_head);
  const auto status_parts =
      lines.empty() ? std::vector<std::string>{} : Split(lines[0], ' ');
  HttpResponse response;
  std::uint64_t code = 0;
  if (status_parts.size() < 2 || !ParseU64(status_parts[1], code)) {
    ::close(fd);
    return ProtocolError("bad http status line");
  }
  response.status_code = static_cast<int>(code);
  response.headers = ParseHeaders(lines);

  std::uint64_t length = 0;
  auto it = response.headers.find("content-length");
  if (it != response.headers.end()) (void)ParseU64(it->second, length);
  // HEAD advertises the length but carries no body.
  if (method == "HEAD") length = 0;
  response.body = std::move(overflow);
  const std::size_t have = response.body.size();
  response.body.resize(static_cast<std::size_t>(length));
  if (length > have &&
      !ReadExactFd(fd, MutableByteSpan(response.body.data() + have,
                                       static_cast<std::size_t>(length) -
                                           have))) {
    ::close(fd);
    return ClosedError("http body truncated");
  }
  ::close(fd);
  return response;
}

namespace {
Status FromHttpCode(int code, const HttpResponse& response) {
  if (code == 404) return NotFoundError("http 404: " +
                                        ToString(ByteSpan(response.body)));
  if (code == 503) {
    // Server-side shed: surface as the typed overload code and carry the
    // Retry-After header (delta-seconds per RFC 9110) back as the same
    // retry-after-ms hint the control protocol uses.
    std::uint64_t seconds = 0;
    auto it = response.headers.find("retry-after");
    if (it != response.headers.end()) (void)ParseU64(it->second, seconds);
    return OverloadedError("http 503: " + ToString(ByteSpan(response.body)),
                           static_cast<std::int64_t>(seconds) * 1000);
  }
  return RemoteError("http " + std::to_string(code));
}
}  // namespace

Result<Buffer> HttpClient::Get(const std::string& target) {
  AFS_ASSIGN_OR_RETURN(HttpResponse response, Request("GET", target));
  if (response.status_code != 200) {
    return FromHttpCode(response.status_code, response);
  }
  return std::move(response.body);
}

Result<Buffer> HttpClient::GetRange(const std::string& target,
                                    std::uint64_t first, std::uint64_t last) {
  AFS_ASSIGN_OR_RETURN(
      HttpResponse response,
      Request("GET", target, {},
              {"Range: bytes=" + std::to_string(first) + "-" +
               std::to_string(last)}));
  if (response.status_code != 206) {
    return FromHttpCode(response.status_code, response);
  }
  return std::move(response.body);
}

Result<std::uint64_t> HttpClient::Head(const std::string& target) {
  AFS_ASSIGN_OR_RETURN(HttpResponse response, Request("HEAD", target));
  if (response.status_code != 200) {
    return FromHttpCode(response.status_code, response);
  }
  std::uint64_t size = 0;
  auto it = response.headers.find("content-length");
  if (it == response.headers.end() || !ParseU64(it->second, size)) {
    return ProtocolError("HEAD without content-length");
  }
  return size;
}

Status HttpClient::Put(const std::string& target, ByteSpan body) {
  AFS_ASSIGN_OR_RETURN(HttpResponse response, Request("PUT", target, body));
  if (response.status_code != 200) {
    return FromHttpCode(response.status_code, response);
  }
  return Status::Ok();
}

}  // namespace afs::net
