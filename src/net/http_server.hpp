// Minimal HTTP/1.0-style file service — the second "standard protocol"
// the paper names for remote access ("e.g., FTP or HTTP").  Implements
// exactly the subset a fetch-a-copy sentinel needs:
//
//   GET /path HTTP/1.0                      -> 200 + body | 404
//   HEAD /path HTTP/1.0                     -> 200 headers only | 404
//   PUT /path HTTP/1.0 + Content-Length     -> 200 | 400
//   GET with "Range: bytes=a-b"             -> 206 + partial body
//
// Responses carry Content-Length (and X-Revision with the store's
// revision, enabling cheap revalidation).  One request per connection
// (HTTP/1.0 semantics, Connection: close).
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "net/file_server.hpp"

namespace afs::net {

struct HttpResponse {
  int status_code = 0;
  std::map<std::string, std::string> headers;  // lower-cased names
  Buffer body;
};

class HttpServer {
 public:
  struct Options {
    // Concurrent connection cap; over the cap the server sheds the new
    // connection with "503 Service Unavailable" + Retry-After instead of
    // growing an unbounded thread pool.  0 disables the cap.
    int max_connections = 64;
    // Advertised shed hint, surfaced as a Retry-After header (rounded up
    // to whole seconds per RFC 9110) and parsed back by HttpClient into
    // an OverloadedError retry-after-ms tag.
    int retry_after_ms = 1000;
  };

  HttpServer(std::string socket_path, FileServer& store);
  HttpServer(std::string socket_path, FileServer& store, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  Status Start();
  void Stop();

  const std::string& socket_path() const noexcept { return path_; }
  std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }
  int active_connections() const noexcept {
    return active_conns_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  // Joins threads whose connections have finished (they parked themselves
  // in finished_threads_) so a long-lived server's thread table stays
  // bounded by the connection cap instead of growing per request.
  void ReapFinishedLocked() AFS_REQUIRES(conn_mu_);

  const std::string path_;
  FileServer& store_;
  const Options options_;
  // afs-lint: allow(guarded-member: written by Start/Stop only while no accept thread runs)
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<int> active_conns_{0};
  // afs-lint: allow(guarded-member: Start() spawns, Stop() joins; owner thread only)
  std::thread accept_thread_;
  Mutex conn_mu_;
  // Bounded by Options::max_connections (over-cap accepts are shed with
  // 503 before a thread is spawned); reaped as connections finish.
  // afs-lint: allow(bounded-queue: capped by Options::max_connections)
  std::vector<std::thread> conn_threads_ AFS_GUARDED_BY(conn_mu_);
  // afs-lint: allow(bounded-queue: capped by Options::max_connections)
  std::vector<int> conn_fds_ AFS_GUARDED_BY(conn_mu_);
  // afs-lint: allow(bounded-queue: drained by ReapFinishedLocked on every accept)
  std::vector<std::thread> finished_threads_ AFS_GUARDED_BY(conn_mu_);
};

// One-request-per-connection client.
class HttpClient {
 public:
  explicit HttpClient(std::string socket_path) : path_(std::move(socket_path)) {}

  // method: "GET", "HEAD", "PUT".  extra_headers are sent verbatim.
  Result<HttpResponse> Request(
      const std::string& method, const std::string& target, ByteSpan body = {},
      const std::vector<std::string>& extra_headers = {});

  // Conveniences mapping HTTP status to Status codes (404 -> kNotFound,
  // 503 -> kOverloaded carrying the Retry-After hint, other non-2xx ->
  // kRemoteError).
  Result<Buffer> Get(const std::string& target);
  Result<Buffer> GetRange(const std::string& target, std::uint64_t first,
                          std::uint64_t last);
  Result<std::uint64_t> Head(const std::string& target);  // -> size
  Status Put(const std::string& target, ByteSpan body);

 private:
  std::string path_;
};

}  // namespace afs::net
