#include "core/strategies.hpp"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

#include "common/faultpoint.hpp"
#include "core/cache.hpp"
#include "core/links.hpp"
#include "core/loop_host.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/supervisor.hpp"
#include "ipc/process.hpp"
#include "sentinel/dispatch.hpp"
#include "sentinel/stream.hpp"

namespace afs::core {

using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;
using sentinel::SentinelContext;

std::string_view StrategyName(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kProcess: return "process";
    case Strategy::kProcessControl: return "process_control";
    case Strategy::kThread: return "thread";
    case Strategy::kDirect: return "direct";
    case Strategy::kLoop: return "loop";
  }
  return "?";
}

Result<Strategy> ParseStrategy(std::string_view name) {
  if (name == "process") return Strategy::kProcess;
  if (name == "process_control") return Strategy::kProcessControl;
  if (name == "thread") return Strategy::kThread;
  if (name == "direct") return Strategy::kDirect;
  if (name == "loop") return Strategy::kLoop;
  return InvalidArgumentError("unknown strategy: " + std::string(name));
}

std::string_view CacheModeName(CacheMode mode) noexcept {
  switch (mode) {
    case CacheMode::kNone: return "none";
    case CacheMode::kDisk: return "disk";
    case CacheMode::kMemory: return "memory";
  }
  return "?";
}

Result<CacheMode> ParseCacheMode(std::string_view name) {
  if (name == "none" || name == "off") return CacheMode::kNone;
  if (name == "disk") return CacheMode::kDisk;
  // The client-cache faces of the key (cache=read|write, docs/CACHING.md)
  // keep the sentinel's data part in memory: the sentinel stays the
  // authority the client's lease is checked against, with no bundle region
  // to hold stale bytes on disk.
  if (name == "memory" || name == "read" || name == "write") {
    return CacheMode::kMemory;
  }
  return InvalidArgumentError("unknown cache mode: " + std::string(name));
}

Status CacheAssembly::Finalize() {
  if (mode != CacheMode::kMemory || !writeback || store == nullptr ||
      bundle == nullptr) {
    return Status::Ok();
  }
  auto* memory = static_cast<sentinel::MemoryDataStore*>(store.get());
  return bundle->ReplaceData(ByteSpan(memory->contents()));
}

Result<CacheAssembly> AssembleCache(const std::string& host_path,
                                    const sentinel::SentinelSpec& spec) {
  CacheAssembly assembly;
  auto cache_it = spec.config.find("cache");
  if (cache_it != spec.config.end()) {
    AFS_ASSIGN_OR_RETURN(assembly.mode, ParseCacheMode(cache_it->second));
  }
  auto wb_it = spec.config.find("writeback");
  if (wb_it != spec.config.end()) assembly.writeback = wb_it->second != "0";

  if (assembly.mode == CacheMode::kNone) return assembly;

  AFS_ASSIGN_OR_RETURN(std::unique_ptr<BundleFile> opened,
                       BundleFile::Open(host_path));
  assembly.bundle = std::shared_ptr<BundleFile>(std::move(opened));
  if (assembly.mode == CacheMode::kDisk) {
    assembly.store = std::make_unique<BundleDataStore>(assembly.bundle);
  } else {
    AFS_ASSIGN_OR_RETURN(Buffer data, assembly.bundle->ReadAllData());
    assembly.store =
        std::make_unique<sentinel::MemoryDataStore>(std::move(data));
    if (!assembly.writeback) {
      // Nothing will be written back at close, so the bundle — and its
      // descriptor — is dead weight for the rest of the session.  Dropping
      // it here is what keeps a memory-cache open descriptor-free, which
      // the loop strategy's 100k-handle saturation target depends on.
      assembly.bundle.reset();
    }
  }
  return assembly;
}

namespace {

// Per-operation response deadline from the "op_timeout_ms" config key.
// Zero (the default) preserves the historical block-forever behavior; any
// positive value is the strategy-independent bound on how long one file
// operation may wait for its sentinel.
Micros OpTimeout(const OpenRequest& request) {
  auto it = request.spec.config.find("op_timeout_ms");
  if (it == request.spec.config.end()) return Micros{0};
  const long long ms = std::strtoll(it->second.c_str(), nullptr, 10);
  return ms > 0 ? Micros{ms * 1000} : Micros{0};
}

// Bound on one shm-ring stream leg (mirrors the pipe bound in links.cpp):
// ten seconds of a full/empty ring means the peer stopped participating.
constexpr Micros kRingIoTimeout{10'000'000};

// Poll cadence for ring-mode stream reads: each elapsed slice re-checks
// peer liveness before re-arming the wait.
constexpr Micros kRingPollSlice{200'000};

// Wire segment table of a vectored op: u32 count then the u32 segment
// lengths; `total` receives the summed payload size.
template <typename Seg>
Buffer EncodeVecTable(std::span<Seg> segments, std::size_t* total) {
  Buffer table;
  table.reserve(4 + 4 * segments.size());
  AppendU32(table, static_cast<std::uint32_t>(segments.size()));
  *total = 0;
  for (const auto& segment : segments) {
    AppendU32(table, static_cast<std::uint32_t>(segment.size()));
    *total += segment.size();
  }
  return table;
}

// Creates the shared ring for a process-strategy open, or null when the
// spec disabled it / setup failed (counted; pipes carry everything then).
std::shared_ptr<ipc::ShmRing> CreateRingOrFallback(const ShmConfig& shm) {
  if (!shm.enabled) return nullptr;
  Result<std::shared_ptr<ipc::ShmRing>> created =
      ipc::ShmRing::Create(shm.ring_bytes);
  if (created.ok()) return std::move(*created);
  static obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ipc.shm.fallbacks");
  fallbacks.Add(1);
  return nullptr;
}

SentinelContext BuildContext(const OpenRequest& request,
                             const CacheAssembly& cache) {
  SentinelContext ctx;
  ctx.cache = cache.store.get();
  ctx.config = request.spec.config;
  ctx.resolver = request.resolver;
  ctx.lock_dir = request.lock_dir;
  ctx.path = request.vfs_path;
  return ctx;
}

// ---------------------------------------------------------------------
// Stub for the command strategies (process-plus-control, thread and loop):
// a FileHandle whose every operation becomes a control message.
class LinkHandle final : public vfs::FileHandle {
 public:
  // `admit` holds the spec's per-link admission budgets (admit_* keys,
  // docs/OVERLOAD.md); when any is bounding, every round trip but kClose
  // charges them under `overload`, a kBlock wait bounded by `op_timeout`.
  LinkHandle(sentinel::SentinelLink* link, std::shared_ptr<void> keepalive,
             std::function<void()> cleanup,
             std::shared_ptr<CacheLeaseChannel> cache_channel,
             const AdmissionGate::Limits& admit, OverloadPolicy overload,
             Micros op_timeout)
      : link_(link),
        keepalive_(std::move(keepalive)),
        cleanup_(std::move(cleanup)),
        cache_channel_(std::move(cache_channel)),
        gate_(AdmissionConfigured(admit)
                  ? std::make_unique<AdmissionGate>(admit)
                  : nullptr),
        overload_(overload),
        op_timeout_(op_timeout) {}

  ~LinkHandle() override { Abort(); }

  Result<std::size_t> Read(MutableByteSpan out) override {
    ControlMessage msg;
    msg.op = ControlOp::kRead;
    msg.length = static_cast<std::uint32_t>(out.size());
    msg.inline_out = out;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    if (!resp.payload.empty()) {
      // Pipe lane: the data arrived in the response frame.
      const std::size_t n = std::min(resp.payload.size(), out.size());
      std::memcpy(out.data(), resp.payload.data(), n);
      return n;
    }
    return static_cast<std::size_t>(resp.number);
  }

  Result<std::size_t> Write(ByteSpan data) override {
    ControlMessage msg;
    msg.op = ControlOp::kWrite;
    msg.length = static_cast<std::uint32_t>(data.size());
    msg.inline_in = data;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return static_cast<std::size_t>(resp.number);
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    ControlMessage msg;
    msg.op = ControlOp::kSeek;
    msg.offset = offset;
    msg.origin = static_cast<std::uint8_t>(origin);
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return resp.number;
  }

  Result<std::uint64_t> Size() override {
    ControlMessage msg;
    msg.op = ControlOp::kGetSize;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return resp.number;
  }

  Status SetEndOfFile() override { return SimpleOp(ControlOp::kSetEof); }
  Status Flush() override { return SimpleOp(ControlOp::kFlush); }

  // The whole scatter list takes one crossing: the segment table rides
  // the control frame, the bytes come back on the response lane (ring or
  // frame) and land in the segments.
  Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) override {
    ControlMessage msg;
    msg.op = ControlOp::kReadVec;
    std::size_t total = 0;
    msg.payload = EncodeVecTable(segments, &total);
    msg.length = static_cast<std::uint32_t>(total);
    msg.vec_out.assign(segments.begin(), segments.end());
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    if (!resp.payload.empty()) {
      // Pipe lane: scatter the concatenated frame payload.
      std::size_t at = 0;
      for (auto& segment : segments) {
        const std::size_t n =
            std::min(segment.size(), resp.payload.size() - at);
        std::memcpy(segment.data(), resp.payload.data() + at, n);
        at += n;
        if (at == resp.payload.size()) break;
      }
      return at;
    }
    return static_cast<std::size_t>(resp.number);
  }

  // One crossing for the whole gather list; the segments travel
  // concatenated on the write lane (ring or pipe).
  Result<std::size_t> WriteGather(std::span<ByteSpan> segments) override {
    ControlMessage msg;
    msg.op = ControlOp::kWriteVec;
    std::size_t total = 0;
    msg.payload = EncodeVecTable(segments, &total);
    msg.length = static_cast<std::uint32_t>(total);
    msg.vec_in.assign(segments.begin(), segments.end());
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return static_cast<std::size_t>(resp.number);
  }

  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    return RangeOp(ControlOp::kLock, offset, length);
  }
  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    return RangeOp(ControlOp::kUnlock, offset, length);
  }

  // Application-specific command, tunneled to the sentinel's OnControl
  // (the control channel's extensibility, paper Section 4.2).
  Result<Buffer> Control(ByteSpan request) override {
    ControlMessage msg;
    msg.op = ControlOp::kCustom;
    msg.payload.assign(request.begin(), request.end());
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return std::move(resp.payload);
  }

  // Tears the connection down without the close protocol; used when the
  // open banner reports failure (the sentinel loop has already exited).
  void Abort() {
    if (cleanup_) {
      cleanup_();
      cleanup_ = nullptr;
    }
  }

  Status Close() override {
    ControlMessage msg;
    msg.op = ControlOp::kClose;
    Status status = Status::Ok();
    Result<ControlResponse> resp = RoundTrip(msg);
    if (resp.ok()) {
      status = resp->status;
    } else if (resp.status().code() != ErrorCode::kClosed) {
      status = resp.status();
    }
    Abort();
    return status;
  }

 private:
  // One command/response exchange with the sentinel.
  Result<ControlResponse> RoundTrip(ControlMessage& msg) AFS_NONBLOCKING {
    if (poisoned_) return ClosedError("handle poisoned by transport failure");
    // The link leg of the trace: the sentinel parents its own span on this
    // one (the ids travel in the command frame), and the spans it ships
    // back in the response are adopted below — after this hop the local
    // TraceLog holds the full app→link→sentinel tree.
    obs::Span span("link.roundtrip");
    msg.trace_id = span.trace_id();
    msg.parent_span = span.span_id();
    static obs::Counter& roundtrips =
        obs::Registry::Global().GetCounter("core.link.roundtrips");
    static obs::Histogram& latency =
        obs::Registry::Global().GetHistogram("core.link.roundtrip_us");
    const std::uint64_t n = roundtrips.Increment();
    obs::ScopedLatencyTimer timer((n & 63) == 0 ? &latency : nullptr);
    AFS_FAULT_POINT("core.link.roundtrip");
    if (cache_channel_ != nullptr) {
      // Lease request / recall ack ride the command frame (§3.4).
      msg.cache_flags = cache_channel_->OutgoingFlags();
    }
    // The per-link admission bracket: the op is charged before its command
    // leaves and released exactly once when its answer (or its failure)
    // comes back.  The handle runs one op at a time, so the link holds at
    // most this one.  Teardown is exempt — a shed close leaks.
    std::size_t admitted = 0;
    if (gate_ != nullptr && !AdmissionExempt(msg.op)) {
      admitted = ControlMessageCost(msg);
      AFS_RETURN_IF_ERROR(
          AdmitWithPolicy(*gate_, admitted, overload_, op_timeout_));
    }
    const Status sent = link_->AF_SendControl(msg);
    Result<ControlResponse> resp =
        sent.ok() ? link_->AF_GetResponse() : Result<ControlResponse>(sent);
    if (admitted != 0) gate_->Release(admitted);
    if (sent.code() == ErrorCode::kOverloaded) {
      // Shed before any frame left the link: the command/response stream
      // is still synchronized, so the handle stays usable — kOverloaded is
      // retryable (after the carried hint), never poisonous.
      return sent;
    }
    if (!resp.ok()) return Poison(resp.status());
    if (cache_channel_ != nullptr) {
      // Every decoded answer re-arms (or revokes) the client's lease —
      // including error responses, which still carry the grant triple.
      cache_channel_->Observe(*resp);
    }
    if (!resp->remote_spans.empty()) {
      obs::TraceLog::Global().AppendAll(std::move(resp->remote_spans));
    }
    if (msg.op != ControlOp::kClose && !resp->status.ok()) {
      if (resp->status.code() == ErrorCode::kOverloaded &&
          resp->retry_after_ms > 0 && RetryAfterHintMs(resp->status) == 0) {
        // Fold the wire's typed retry-after (PROTOCOL.md §3.4) back into
        // the status so Status-only seams above us keep the hint.
        return OverloadedError(resp->status.message(), resp->retry_after_ms);
      }
      return resp->status;  // sentinel-side failure becomes the op's status
    }
    return std::move(*resp);
  }

  // A transport failure mid-round-trip desynchronizes the command/response
  // stream (a late response would answer the wrong command), so the handle
  // is dead from here on: this op reports what happened — kTimeout stays
  // kTimeout, anything else collapses to kClosed — and every later op gets
  // kClosed immediately instead of blocking on a broken link.
  Status Poison(Status cause) {
    poisoned_ = true;
    if (cause.code() == ErrorCode::kTimeout ||
        cause.code() == ErrorCode::kClosed) {
      return cause;
    }
    return ClosedError("sentinel link failed: " + cause.ToString());
  }

  Status SimpleOp(ControlOp op) {
    ControlMessage msg;
    msg.op = op;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    (void)resp;
    return Status::Ok();
  }

  Status RangeOp(ControlOp op, std::uint64_t offset, std::uint64_t length) {
    ControlMessage msg;
    msg.op = op;
    msg.offset = static_cast<std::int64_t>(offset);
    msg.range_len = length;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    (void)resp;
    return Status::Ok();
  }

  sentinel::SentinelLink* const link_;
  // Only extends the resource bundle's lifetime.
  const std::shared_ptr<void> keepalive_;
  std::function<void()> cleanup_;  // null once the link is torn down
  // Internally lock-free; shared with the link's transport threads.
  const std::shared_ptr<CacheLeaseChannel> cache_channel_;
  const std::unique_ptr<AdmissionGate> gate_;  // null: no per-link budget
  const OverloadPolicy overload_;
  const Micros op_timeout_;
  bool poisoned_ = false;
};

// The common tail of the command-strategy opens: wraps `link` in the stub,
// waits for the open banner (OnOpen's status decides whether the open
// succeeds), tears the link down when it does not, and hands the banner's
// open-time cache grant to the client cache, so a caching client holds its
// lease before the first data op.
Result<std::unique_ptr<vfs::FileHandle>> FinishLinkOpen(
    const OpenRequest& request, OverloadPolicy overload,
    sentinel::SentinelLink* link, std::shared_ptr<void> keepalive,
    std::function<void()> cleanup) {
  auto handle = std::make_unique<LinkHandle>(
      link, std::move(keepalive), std::move(cleanup), request.cache_channel,
      AdmissionLimitsFromSpec(request.spec.config), overload,
      OpTimeout(request));
  Result<ControlResponse> banner = link->AF_GetResponse();
  if (!banner.ok() || !banner->status.ok()) {
    handle->Abort();
    return banner.ok() ? banner->status : banner.status();
  }
  if (request.cache_channel != nullptr) {
    request.cache_channel->Observe(*banner);
  }
  return std::unique_ptr<vfs::FileHandle>(std::move(handle));
}

// ---------------------------------------------------------------------
// DLL-only strategy: operations call the sentinel directly.
class DirectHandle final : public vfs::FileHandle {
 public:
  DirectHandle(std::unique_ptr<sentinel::Sentinel> sent, SentinelContext ctx,
               CacheAssembly cache)
      : sentinel_(std::move(sent)),
        ctx_(std::move(ctx)),
        cache_(std::move(cache)) {
    ctx_.cache = cache_.store.get();
  }

  ~DirectHandle() override { (void)Close(); }

  Result<std::size_t> Read(MutableByteSpan out) override {
    // Same span name the dispatch loop uses, so direct-strategy traces
    // have the same shape as command-strategy ones minus the link leg.
    obs::Span span("sentinel.read");
    AFS_FAULT_POINT("core.direct.op");
    AFS_ASSIGN_OR_RETURN(std::size_t n, sentinel_->OnRead(ctx_, out));
    ctx_.position += n;
    return n;
  }

  Result<std::size_t> Write(ByteSpan data) override {
    obs::Span span("sentinel.write");
    AFS_FAULT_POINT("core.direct.op");
    AFS_ASSIGN_OR_RETURN(std::size_t n, sentinel_->OnWrite(ctx_, data));
    ctx_.position += n;
    return n;
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    return sentinel_->OnSeek(ctx_, offset, origin);
  }

  Result<std::uint64_t> Size() override { return sentinel_->OnGetSize(ctx_); }
  Status SetEndOfFile() override { return sentinel_->OnSetEof(ctx_); }
  Status Flush() override { return sentinel_->OnFlush(ctx_); }

  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    return sentinel_->OnLock(ctx_, offset, length);
  }
  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    return sentinel_->OnUnlock(ctx_, offset, length);
  }

  Result<Buffer> Control(ByteSpan request) override {
    return sentinel_->OnControl(ctx_, request);
  }

  Status Close() override {
    if (!open_) return Status::Ok();
    open_ = false;
    const Status status = sentinel_->OnClose(ctx_);
    const Status flushed = cache_.Finalize();
    return status.ok() ? flushed : status;
  }

  Status Open() {
    const Status status = sentinel_->OnOpen(ctx_);
    // Mirror the dispatch loop's lifecycle: a failed OnOpen means no
    // session — OnClose must not run and nothing is written back.
    open_ = status.ok();
    return status;
  }

 private:
  std::unique_ptr<sentinel::Sentinel> sentinel_;
  SentinelContext ctx_;
  CacheAssembly cache_;
  bool open_ = false;  // between a successful OnOpen and OnClose
};

// ---------------------------------------------------------------------
// Plain process strategy stub: raw pipe ends, no control channel.
class ProcessHandle final : public vfs::FileHandle {
 public:
  ProcessHandle(ipc::PipeEnd to_sentinel, ipc::PipeEnd from_sentinel,
                std::shared_ptr<ipc::ProcessWatch> child, Micros read_timeout,
                std::shared_ptr<ipc::ShmRing> ring = nullptr)
      : to_sentinel_(std::move(to_sentinel)),
        from_sentinel_(std::move(from_sentinel)),
        child_(std::move(child)),
        read_timeout_(read_timeout),
        ring_(std::move(ring)) {}

  Result<std::size_t> Read(MutableByteSpan out) override {
    // Raw byte stream, no control frames: the trace cannot cross into the
    // sentinel here, so this app-side span is the leaf of the trace.
    obs::Span span("link.stream.read");
    if (ring_) {
      // Ring mode: bytes only ever travel the ring; the pipes stay open
      // purely as liveness probes.  Each elapsed slice re-checks the
      // outbound pipe — it turns readable (EOF) exactly when a sentinel
      // died without closing the ring.
      const bool bounded = read_timeout_.count() > 0;
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(read_timeout_.count());
      while (true) {
        Micros slice = kRingPollSlice;
        if (bounded) {
          const auto left =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  deadline - std::chrono::steady_clock::now());
          if (left.count() <= 0) {
            return TimeoutError("stream sentinel stopped producing");
          }
          slice = std::min(slice, Micros{left.count()});
        }
        Result<std::size_t> n =
            ring_->ReadSome(ipc::ShmRing::kToApp, out, slice);
        if (n.ok() || n.status().code() != ErrorCode::kTimeout) return n;
        Result<bool> eof = from_sentinel_.Poll();
        if (!eof.ok() || *eof) return std::size_t{0};  // sentinel is gone
      }
    }
    // A sentinel that stops producing must cost kTimeout, not a hang; a
    // dead one closes its end and the read below reports EOF.
    AFS_RETURN_IF_ERROR(from_sentinel_.WaitReadable(read_timeout_));
    return from_sentinel_.ReadSome(out);
  }

  Result<std::size_t> Write(ByteSpan data) override {
    obs::Span span("link.stream.write");
    if (ring_) {
      AFS_RETURN_IF_ERROR(
          ring_->Write(ipc::ShmRing::kToSentinel, data, kRingIoTimeout));
      return data.size();
    }
    AFS_RETURN_IF_ERROR(to_sentinel_.WriteAll(data));
    return data.size();
  }

  // No control channel: these cannot travel to the sentinel (paper §4.1 —
  // "operations such as ReadFileScatter (or seek in Unix) and GetFileSize
  // cannot be implemented").
  Result<std::uint64_t> Seek(std::int64_t, vfs::SeekOrigin) override {
    return UnsupportedError("seek not supported by process strategy");
  }
  Result<std::uint64_t> Size() override {
    return UnsupportedError("GetFileSize not supported by process strategy");
  }
  Result<std::size_t> ReadScatter(std::span<MutableByteSpan>) override {
    return UnsupportedError(
        "ReadFileScatter not supported by process strategy");
  }

  Status Close() override {
    if (ring_) ring_->CloseAll();  // ring-mode EOF for the sentinel's pump
    to_sentinel_.Close();    // sentinel's writer loop sees EOF
    from_sentinel_.Close();  // unblocks an eagerly-pushing sentinel (EPIPE)
    // Bounded reap: a wedged sentinel is escalated TERM -> KILL rather
    // than blocking Close forever.
    const ipc::ExitStatus ended = child_->Shutdown();
    if (!ended.clean()) {
      return InternalError("sentinel exited with code " +
                           std::to_string(ended.code));
    }
    return Status::Ok();
  }

 private:
  ipc::PipeEnd to_sentinel_;
  ipc::PipeEnd from_sentinel_;
  const std::shared_ptr<ipc::ProcessWatch> child_;
  const Micros read_timeout_;
  // Bulk data plane when non-null (fork mode only; an exec'd stream binary
  // has no handshake to learn about the ring).
  const std::shared_ptr<ipc::ShmRing> ring_;
};

// ---------------------------------------------------------------------

Result<std::unique_ptr<vfs::FileHandle>> OpenDirect(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request) {
  AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                       registry.Create(request.spec));
  SentinelContext ctx = BuildContext(request, cache);
  auto handle = std::make_unique<DirectHandle>(std::move(sent),
                                               std::move(ctx),
                                               std::move(cache));
  AFS_RETURN_IF_ERROR(handle->Open());
  return std::unique_ptr<vfs::FileHandle>(std::move(handle));
}

Result<std::unique_ptr<vfs::FileHandle>> OpenThread(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    SessionProbe* probe) {
  struct Resources {
    ThreadRendezvous rendezvous;
    std::unique_ptr<sentinel::Sentinel> sent;
    SentinelContext ctx;
    CacheAssembly cache;
    std::thread worker;
  };
  auto res = std::make_shared<Resources>();
  AFS_ASSIGN_OR_RETURN(res->cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(res->sent, registry.Create(request.spec));
  res->ctx = BuildContext(request, res->cache);

  // Overload policy of the per-link admission budgets (docs/OVERLOAD.md).
  AFS_ASSIGN_OR_RETURN(
      OverloadPolicy overload,
      OverloadPolicyFromSpec(request.spec.config, OverloadPolicy::kShed));
  res->rendezvous.set_response_timeout(OpTimeout(request));
  if (probe != nullptr && request.heartbeat_interval.count() > 0) {
    // In-process lease: the sentinel thread stamps shared memory from
    // inside its waits — no frames involved.
    auto lease = std::make_shared<Lease>();
    res->rendezvous.set_lease(lease, request.heartbeat_interval);
    probe->lease = std::move(lease);
  }
  if (probe != nullptr) {
    probe->force_down = [res] { res->rendezvous.Shutdown(); };
  }

  // "Inject" the sentinel: a thread inside the application's process.
  Resources* raw = res.get();
  res->worker = std::thread([raw] {
    (void)sentinel::RunSentinelLoop(*raw->sent, raw->rendezvous, raw->ctx);
    // afs-lint: allow(status-discard: loop already exited; cache dir is temp-scoped)
    (void)raw->cache.Finalize();
    // The loop can exit on its own (injected fault, dispatch failure)
    // while the stub still waits for a response; close the slot so that
    // wait ends in kClosed instead of hanging.
    raw->rendezvous.Shutdown();
  });

  auto cleanup = [res]() {
    res->rendezvous.Shutdown();
    if (res->worker.joinable()) res->worker.join();
  };
  return FinishLinkOpen(request, overload, &res->rendezvous, res, cleanup);
}

// Event-loop strategy: the sentinel is neither a process nor a dedicated
// thread — it is state serviced by a shard of the global LoopHost pool.
Result<std::unique_ptr<vfs::FileHandle>> OpenLoop(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    SessionProbe* probe) {
  AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                       registry.Create(request.spec));
  SentinelContext ctx = BuildContext(request, cache);

  // "loop_shard" pins co-tenant bundles onto one shard (shared-fate tests,
  // cache locality); unset falls back to round-robin placement.
  int shard_pin = -1;
  if (auto it = request.spec.config.find("loop_shard");
      it != request.spec.config.end()) {
    shard_pin = static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
  }

  std::shared_ptr<Lease> lease;
  if (probe != nullptr && request.heartbeat_interval.count() > 0) {
    // In-process lease, renewed by the shard's heartbeat timer and around
    // every serviced command — a wedged shard starves it.
    lease = std::make_shared<Lease>();
  }

  // Admission (docs/OVERLOAD.md): every command charges the shard's gate
  // (shared with its co-tenants) and, when the spec bounds this link, the
  // stub's per-link gate on top; one policy shapes both.
  AFS_ASSIGN_OR_RETURN(
      OverloadPolicy overload,
      OverloadPolicyFromSpec(request.spec.config, OverloadPolicy::kShed));

  AFS_ASSIGN_OR_RETURN(
      std::shared_ptr<LoopSession> session,
      LoopHost::Global().Open(std::move(sent), std::move(ctx),
                              std::move(cache), shard_pin, OpTimeout(request),
                              request.heartbeat_interval, lease, overload));
  if (probe != nullptr) {
    probe->lease = std::move(lease);
    probe->force_down = [session] { session->ForceDown(); };
  }

  auto cleanup = [session]() { session->Shutdown(); };
  return FinishLinkOpen(request, overload, session.get(), session, cleanup);
}

// The "exec" config key switches the process strategies to the paper's
// literal model: the active part is an external sentinel executable,
// launched fresh rather than forked from the application.
std::string ExecPath(const OpenRequest& request) {
  auto it = request.spec.config.find("exec");
  return it == request.spec.config.end() ? std::string() : it->second;
}

Result<std::unique_ptr<vfs::FileHandle>> OpenProcessControl(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    SessionProbe* probe) {
  struct Resources {
    std::unique_ptr<PipeLink> link;
    std::shared_ptr<ipc::ProcessWatch> child;
  };
  ipc::IgnoreSigpipe();

  AFS_ASSIGN_OR_RETURN(auto pipes, CreatePipePair());
  auto res = std::make_shared<Resources>();
  res->link = std::make_unique<PipeLink>(std::move(pipes.first));
  res->link->set_response_timeout(OpTimeout(request));

  // Overload handling (docs/OVERLOAD.md): the ring lane defaults to
  // brownout (a congested ring reroutes bulk bytes onto the pipes); the
  // spec's `overload` key switches the whole link to shed or block, and
  // the same policy shapes the stub's per-link admission budgets.
  AFS_ASSIGN_OR_RETURN(
      OverloadPolicy overload,
      OverloadPolicyFromSpec(request.spec.config, OverloadPolicy::kBrownout));
  res->link->set_overload(overload);

  std::shared_ptr<Lease> lease;
  if (probe != nullptr && request.heartbeat_interval.count() > 0) {
    lease = std::make_shared<Lease>();
    res->link->set_lease(lease);
  }
  if (request.cache_channel != nullptr) {
    // Heartbeat frames double as recall pushes; the link must feed them
    // (not just op responses) into the channel.
    res->link->set_cache_channel(request.cache_channel);
  }

  // Shared-memory bulk data plane (docs/SHM_DATA_PLANE.md): the
  // application creates the ring; the sentinel attaches via fork
  // inheritance or the --shm-fd handle.  Any setup failure falls back to
  // pipes — the classic data plane stays fully functional.
  const ShmConfig shm = ParseShmConfig(request.spec.config);
  std::shared_ptr<ipc::ShmRing> ring = CreateRingOrFallback(shm);

  const std::string exec_path = ExecPath(request);
  if (!exec_path.empty()) {
    // fork+exec of the sentinel executable; it reopens the bundle itself.
    // The app-side ends must not leak into the exec'd image, or the
    // sentinel never observes EOF when the application closes.  (The ring
    // descriptor, by contrast, is deliberately inheritable.)
    AFS_RETURN_IF_ERROR(res->link->SetCloexec());
    PipeEndpointFds fds = std::move(pipes.second);
    std::vector<std::string> argv = {
        exec_path, "--mode=control",
        "--control-fd=" + std::to_string(fds.control_read.fd()),
        "--response-fd=" + std::to_string(fds.response_write.fd()),
        "--data-fd=" + std::to_string(fds.data_read.fd()),
        "--bundle=" + request.host_path, "--path=" + request.vfs_path,
        "--lockdir=" + request.lock_dir};
    if (request.heartbeat_interval.count() > 0) {
      argv.push_back("--heartbeat-ms=" +
                     std::to_string(request.heartbeat_interval.count() / 1000));
    }
    if (ring) {
      // A sentinel whose attach fails reports it in its open banner, and
      // the link keeps everything on pipes (docs/SHM_DATA_PLANE.md).
      argv.push_back("--shm-fd=" + std::to_string(ring->fd()));
      argv.push_back("--shm-threshold=" + std::to_string(shm.threshold));
    }
    Result<ipc::ChildProcess> spawned = ipc::SpawnExec(argv);
    AFS_RETURN_IF_ERROR(spawned.status());
    res->child = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
    // fds destruct here: the parent's copies close, the child's survive
    // the exec.
  } else {
    AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                         AssembleCache(request.host_path, request.spec));
    AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                         registry.Create(request.spec));
    SentinelContext ctx = BuildContext(request, cache);

    PipeEndpoint endpoint(std::move(pipes.second));
    endpoint.set_heartbeat_interval(request.heartbeat_interval);
    if (ring) endpoint.set_shm(ring, shm.threshold);
    endpoint.set_overload(overload);
    // Idle heartbeats double as the lease-recall push channel: the
    // endpoint stamps the sentinel's current grant into every beat (the
    // ctx outlives the child's loop — both live in the forked frame).
    endpoint.set_cache_state(&ctx.cache_grant);
    // The child's copy of the stack keeps every referenced object alive:
    // it runs the loop inside this call frame and _exit()s.
    Result<ipc::ChildProcess> spawned = ipc::SpawnFunction([&]() -> int {
      // NOTE: the link has no ring attached yet (set_shm below runs only
      // in the parent, after the fork), so this Shutdown touches only the
      // child's copies of the app-side pipe ends — a ring CloseAll here
      // would poison the shared mapping for the parent too.
      res->link->Shutdown();
      const int code = sentinel::RunSentinelLoop(*sent, endpoint, ctx);
      // afs-lint: allow(status-discard: child is about to _exit; exit code is the loop's)
      (void)cache.Finalize();
      // Mark the shared rings closed before _exit so application-side
      // waits end in EOF/kClosed now instead of a timeout later.
      if (ring) ring->CloseAll();
      return code;
    });
    AFS_RETURN_IF_ERROR(spawned.status());
    res->child = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
    // Parent's copies of the sentinel-side ends close here (scope exit),
    // so EOF propagates if either side dies.
  }
  // Attach the ring to the application side only after the child exists:
  // the fork-mode child's frame must not carry a ring-owning link (see the
  // Shutdown note above).
  if (ring) res->link->set_shm(ring, shm.threshold);

  if (probe != nullptr) {
    probe->lease = lease;
    probe->child = res->child;
    probe->force_down = [res] { res->child->Kill(); };
    probe->poll_heartbeats = [res] { res->link->PollHeartbeats(); };
  }

  auto cleanup = [res]() {
    res->link->Shutdown();
    (void)res->child->Shutdown();
  };
  return FinishLinkOpen(request, overload, res->link.get(), res, cleanup);
}

// Fills the probe for a freshly spawned stream/exec sentinel child.  No
// lease: the raw byte streams carry no heartbeat frames, so liveness for
// this strategy rests on waitpid alone.
void FillChildProbe(SessionProbe* probe,
                    const std::shared_ptr<ipc::ProcessWatch>& watch,
                    int to_sentinel_fd) {
  if (probe == nullptr) return;
  probe->child = watch;
  probe->force_down = [watch] { watch->Kill(); };
  // The fd stays stable when the PipeEnd moves into the handle; the
  // supervised handle clears this closure before that handle is destroyed.
  probe->peer_alive = [to_sentinel_fd] {
    return ipc::PipeWriterHasReader(to_sentinel_fd);
  };
}

Result<std::unique_ptr<vfs::FileHandle>> OpenProcess(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    SessionProbe* probe) {
  ipc::IgnoreSigpipe();
  // app -> sentinel (the sentinel's standard input in the paper's model).
  AFS_ASSIGN_OR_RETURN(ipc::Pipe inbound, ipc::Pipe::Create());
  // sentinel -> app (its standard output).
  AFS_ASSIGN_OR_RETURN(ipc::Pipe outbound, ipc::Pipe::Create());

  const std::string exec_path = ExecPath(request);
  if (!exec_path.empty()) {
    AFS_RETURN_IF_ERROR(inbound.write_end.SetCloexec());
    AFS_RETURN_IF_ERROR(outbound.read_end.SetCloexec());
    std::vector<std::string> argv = {
        exec_path, "--mode=stream",
        "--in-fd=" + std::to_string(inbound.read_end.fd()),
        "--out-fd=" + std::to_string(outbound.write_end.fd()),
        "--bundle=" + request.host_path, "--path=" + request.vfs_path,
        "--lockdir=" + request.lock_dir};
    if (request.resume_read_pos > 0 || request.resume_write_pos > 0) {
      argv.push_back("--resume-read=" +
                     std::to_string(request.resume_read_pos));
      argv.push_back("--resume-write=" +
                     std::to_string(request.resume_write_pos));
    }
    Result<ipc::ChildProcess> spawned = ipc::SpawnExec(argv);
    AFS_RETURN_IF_ERROR(spawned.status());
    inbound.read_end.Close();
    outbound.write_end.Close();
    auto watch = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
    FillChildProbe(probe, watch, inbound.write_end.fd());
    return std::unique_ptr<vfs::FileHandle>(std::make_unique<ProcessHandle>(
        std::move(inbound.write_end), std::move(outbound.read_end),
        std::move(watch), OpTimeout(request)));
  }

  AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                       registry.Create(request.spec));
  SentinelContext ctx = BuildContext(request, cache);
  const sentinel::StreamResume resume{request.resume_read_pos,
                                      request.resume_write_pos};

  // Fork-mode streams ride the shared ring (same image on both sides, no
  // handshake needed); the pipes stay open as pure liveness probes.  An
  // exec'd stream binary keeps the classic pipe plane — the raw byte
  // protocol has no banner to advertise the ring through.
  const ShmConfig shm = ParseShmConfig(request.spec.config);
  std::shared_ptr<ipc::ShmRing> ring = CreateRingOrFallback(shm);

  Result<ipc::ChildProcess> spawned = ipc::SpawnFunction([&]() -> int {
    // Child's copies of the application-side ends must close for EOF.
    inbound.write_end.Close();
    outbound.read_end.Close();
    sentinel::StreamIo io;
    if (ring) {
      io.read_from_app = [&](MutableByteSpan out) -> Result<std::size_t> {
        // Bounded slices with a liveness probe between them: an
        // application that died without closing the ring leaves its pipe
        // end — which carries no data in ring mode — at EOF (readable).
        while (true) {
          Result<std::size_t> n = ring->ReadSome(ipc::ShmRing::kToSentinel,
                                                 out, kRingPollSlice);
          if (n.ok() || n.status().code() != ErrorCode::kTimeout) return n;
          Result<bool> eof = inbound.read_end.Poll();
          if (!eof.ok() || *eof) return std::size_t{0};  // app is gone
        }
      };
      io.write_to_app = [&](ByteSpan data) {
        return ring->Write(ipc::ShmRing::kToApp, data, kRingIoTimeout);
      };
      io.finish_output = [&]() {
        ring->CloseDir(ipc::ShmRing::kToApp);
        outbound.write_end.Close();
      };
    } else {
      io.read_from_app = [&](MutableByteSpan out) {
        return inbound.read_end.ReadSome(out);
      };
      io.write_to_app = [&](ByteSpan data) {
        return outbound.write_end.WriteAll(data);
      };
      io.finish_output = [&]() { outbound.write_end.Close(); };
    }
    const int code = sentinel::RunStreamPump(*sent, io, ctx, resume);
    // afs-lint: allow(status-discard: child is about to _exit; exit code is the pump's)
    (void)cache.Finalize();
    // Mark the rings closed before _exit so application-side waits end in
    // EOF now instead of a liveness-probe round trip later.
    if (ring) ring->CloseAll();
    return code;
  });
  AFS_RETURN_IF_ERROR(spawned.status());

  // Parent's copies of the sentinel-side ends.
  inbound.read_end.Close();
  outbound.write_end.Close();

  auto watch = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
  FillChildProbe(probe, watch, inbound.write_end.fd());
  return std::unique_ptr<vfs::FileHandle>(std::make_unique<ProcessHandle>(
      std::move(inbound.write_end), std::move(outbound.read_end),
      std::move(watch), OpTimeout(request), std::move(ring)));
}

}  // namespace

Result<std::unique_ptr<vfs::FileHandle>> OpenWithStrategy(
    Strategy strategy, const sentinel::SentinelRegistry& registry,
    const OpenRequest& request, SessionProbe* probe) {
  AFS_FAULT_POINT("core.strategy.open");
  // One open counter per strategy (core.open.process, core.open.thread,
  // ...).  Opens fork/spawn anyway, so the registry lookup is noise here.
  obs::Registry::Global()
      .GetCounter(std::string("core.open.") +
                  std::string(StrategyName(strategy)))
      .Add(1);
  switch (strategy) {
    case Strategy::kProcess:
      return OpenProcess(registry, request, probe);
    case Strategy::kProcessControl:
      return OpenProcessControl(registry, request, probe);
    case Strategy::kThread:
      return OpenThread(registry, request, probe);
    case Strategy::kDirect:
      return OpenDirect(registry, request);
    case Strategy::kLoop:
      return OpenLoop(registry, request, probe);
  }
  return InvalidArgumentError("bad strategy");
}

}  // namespace afs::core
