#include "core/active_file.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/backoff.hpp"
#include "common/clock.hpp"
#include "common/faultpoint.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "core/bundle.hpp"
#include "core/cache.hpp"
#include "core/overload.hpp"
#include "core/session_journal.hpp"
#include "core/supervisor.hpp"
#include "obs/metrics.hpp"

namespace afs::core {
namespace {

// Replaying a crashed stream session means re-sending every write the
// application ever issued (stream writes are unacknowledged, so all are in
// doubt).  Past this many logged bytes the handle stops being restartable
// and a crash degrades instead.
constexpr std::size_t kWriteLogCap = 4u << 20;  // 4 MiB

// Journal records are write-ahead best-effort: a lost record degrades crash
// recovery (replay may resume from a stale cursor) but must never fail the
// application's I/O.  The drop counter is how a sick journal disk surfaces.
void JournalDrop(const Status& recorded) {
  if (recorded.ok()) return;
  static obs::Counter& drops =
      obs::Registry::Global().GetCounter("core.supervisor.journal_drops");
  drops.Add(1);
}

const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

struct CacheMetrics {
  obs::Counter& hits = obs::Registry::Global().GetCounter("core.cache.hits");
  obs::Counter& misses =
      obs::Registry::Global().GetCounter("core.cache.misses");
  obs::Counter& recalls =
      obs::Registry::Global().GetCounter("core.cache.recalls");
  obs::Counter& lease_renews =
      obs::Registry::Global().GetCounter("core.cache.lease_renews");
  obs::Gauge& dirty_bytes =
      obs::Registry::Global().GetGauge("core.cache.dirty_bytes");
};

constexpr auto kBlockBytes = static_cast<std::int64_t>(kCacheBlockSize);

CacheMetrics& CacheStats() {
  static CacheMetrics metrics;
  return metrics;
}

// ---------------------------------------------------------------------
// Degraded transport: serves the bundle's data part directly once the
// sentinel is permanently gone.
class DegradedHandle final : public vfs::FileHandle {
 public:
  // `split_pointers` mirrors stream-strategy semantics (independent read
  // and write streams, no seek); otherwise one shared file pointer.
  DegradedHandle(std::unique_ptr<BundleFile> bundle, bool writable,
                 bool split_pointers, std::uint64_t read_pos,
                 std::uint64_t write_pos)
      : bundle_(std::move(bundle)),
        writable_(writable),
        split_(split_pointers),
        read_pos_(read_pos),
        write_pos_(write_pos) {}

  Result<std::size_t> Read(MutableByteSpan out) override {
    AFS_ASSIGN_OR_RETURN(std::size_t n, bundle_->ReadDataAt(read_pos_, out));
    read_pos_ += n;
    if (!split_) write_pos_ = read_pos_;
    return n;
  }

  Result<std::size_t> Write(ByteSpan data) override {
    if (!writable_) {
      return PermissionDeniedError("active file degraded to readonly");
    }
    AFS_ASSIGN_OR_RETURN(std::size_t n,
                         bundle_->WriteDataAt(write_pos_, data));
    write_pos_ += n;
    if (!split_) read_pos_ = write_pos_;
    return n;
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    if (split_) {
      return UnsupportedError("seek not supported by process strategy");
    }
    std::int64_t base = 0;
    switch (origin) {
      case vfs::SeekOrigin::kBegin: base = 0; break;
      case vfs::SeekOrigin::kCurrent:
        base = static_cast<std::int64_t>(read_pos_);
        break;
      case vfs::SeekOrigin::kEnd: {
        AFS_ASSIGN_OR_RETURN(std::uint64_t size, bundle_->DataSize());
        base = static_cast<std::int64_t>(size);
        break;
      }
    }
    const std::int64_t target = base + offset;
    if (target < 0) return OutOfRangeError("seek before start of file");
    read_pos_ = static_cast<std::uint64_t>(target);
    write_pos_ = read_pos_;
    return read_pos_;
  }

  Result<std::uint64_t> Size() override {
    if (split_) {
      return UnsupportedError("GetFileSize not supported by process strategy");
    }
    return bundle_->DataSize();
  }

  Status SetEndOfFile() override {
    if (split_) return UnsupportedError("SetEndOfFile");
    if (!writable_) {
      return PermissionDeniedError("active file degraded to readonly");
    }
    return bundle_->TruncateData(read_pos_);
  }

  Status Flush() override { return bundle_->Flush(); }

  Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) override {
    if (split_) {
      return UnsupportedError(
          "ReadFileScatter not supported by process strategy");
    }
    return vfs::FileHandle::ReadScatter(segments);
  }

  Status Close() override {
    const Status flushed = bundle_->Flush();
    bundle_.reset();
    return flushed;
  }

  BundleFile* bundle() noexcept { return bundle_.get(); }

 private:
  std::unique_ptr<BundleFile> bundle_;
  const bool writable_;
  const bool split_;
  std::uint64_t read_pos_;
  std::uint64_t write_pos_;
};

// ---------------------------------------------------------------------
// The handle (see active_file.hpp for the stages).

class ActiveFileHandle final : public vfs::FileHandle {
 public:
  ActiveFileHandle(Strategy strategy, OpenRequest request)
      : strategy_(strategy),
        stream_(strategy == Strategy::kProcess),
        request_(std::move(request)) {}

  ~ActiveFileHandle() override {
    MutexLock lock(mu_);
    if (sup_ != nullptr) DetachSessionLocked();
    transport_.reset();
  }

  // Builds the stages the spec asked for and opens the first transport.
  // A supervised first open treats a crash before the open acknowledgement
  // like any later crash: it consumes restart budget.
  Status Open(const sentinel::SentinelRegistry& registry,
              const ClientCacheOptions& cache_options, Supervisor& supervisor,
              SessionJournal& journal, const RestartPolicy& policy) {
    MutexLock lock(mu_);
    if (request_.cache_channel != nullptr) {
      cache_ = std::make_unique<Cache>(request_.cache_channel, cache_options);
    }
    if (!policy.supervised) {
      AFS_ASSIGN_OR_RETURN(transport_,
                           OpenWithStrategy(strategy_, registry, request_));
      return Status::Ok();
    }
    sup_ = std::make_unique<Supervision>(supervisor, journal, registry, policy);
    JournalDrop(journal.RecordOpen(
        sup_->id, std::string(StrategyName(strategy_)), request_.vfs_path));
    while (true) {
      const Status opened = OpenSessionLocked();
      if (opened.ok()) return Status::Ok();
      if (!CrashClass(opened)) return opened;  // legitimate open failure
      AFS_RETURN_IF_ERROR(NextRestartLocked("open"));
      if (sup_->mode == Supervision::Mode::kDegraded) return Status::Ok();
    }
  }

  Result<std::size_t> Read(MutableByteSpan out) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    return ReadLocked(std::span<MutableByteSpan>(&out, 1), false);
  }

  Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    return ReadLocked(segments, true);
  }

  Result<std::size_t> Write(ByteSpan data) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    return WriteLocked(std::span<ByteSpan>(&data, 1), false);
  }

  Result<std::size_t> WriteGather(std::span<ByteSpan> segments) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    return WriteLocked(segments, true);
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    bool cached = false;
    if (cache_ != nullptr) {
      AFS_ASSIGN_OR_RETURN(cached, BlocksServeReadsLocked());
    }
    if (!cached) {
      // The sentinel resolves the seek by its own rules.  Its end includes
      // any pending write-behind, and a relative seek needs the transport
      // at the logical position.
      std::optional<std::uint64_t> at;
      if (origin == vfs::SeekOrigin::kCurrent) at = pos_;
      if (origin == vfs::SeekOrigin::kEnd) {
        AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      }
      AFS_ASSIGN_OR_RETURN(pos_, TransportSeekLocked(offset, origin, at));
      return pos_;
    }
    // Cached blocks serve what follows, so the seek stays in client
    // memory: only the end needs asking.
    std::int64_t base = static_cast<std::int64_t>(pos_);
    if (origin == vfs::SeekOrigin::kBegin) base = 0;
    if (origin == vfs::SeekOrigin::kEnd) {
      AFS_ASSIGN_OR_RETURN(std::uint64_t size, SizeLocked());
      base = static_cast<std::int64_t>(size);
    }
    const std::int64_t target = base + offset;
    if (target < 0) return InvalidArgumentError("seek before start of file");
    pos_ = static_cast<std::uint64_t>(target);
    return pos_;
  }

  Result<std::uint64_t> Size() override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    return SizeLocked();
  }

  Status SetEndOfFile() override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    DropAllLocked();
    auto truncate = [&]() AFS_REQUIRES(mu_) {
      return transport_->SetEndOfFile();
    };
    return CallLocked("seteof", pos_, 0, CallKind::kReplayable, truncate);
  }

  Status Flush() override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    auto flush = [&]() AFS_REQUIRES(mu_) { return transport_->Flush(); };
    return CallLocked("flush", std::nullopt, 0, CallKind::kUnjournaled, flush);
  }

  // Range locks coordinate with other openers; anything cached may be
  // invalidated by what the lock now protects against.
  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    DropAllLocked();
    auto range_lock = [&]() AFS_REQUIRES(mu_) {
      return transport_->LockRange(offset, length);
    };
    return CallLocked("lock", std::nullopt, 0, CallKind::kNotReplayable,
                      range_lock);
  }

  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    auto range_unlock = [&]() AFS_REQUIRES(mu_) {
      return transport_->UnlockRange(offset, length);
    };
    return CallLocked("unlock", std::nullopt, 0, CallKind::kNotReplayable,
                      range_unlock);
  }

  // OnControl may mutate the data part arbitrarily.
  Result<Buffer> Control(ByteSpan request) override {
    MutexLock lock(mu_);
    if (!Ready()) return NotReady();
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    DropAllLocked();
    auto control = [&]() AFS_REQUIRES(mu_) {
      return transport_->Control(request);
    };
    return CallLocked("custom", std::nullopt, request.size(),
                      CallKind::kNotReplayable, control);
  }

  Status Close() override {
    MutexLock lock(mu_);
    if (closed_) return Status::Ok();
    // Write-behind must land before the session tears down; a flush
    // failure still closes the transport but wins the return value.
    const Status flushed = FlushDirtyLocked();
    DropAllLocked();
    Status closed = Status::Ok();
    if (transport_ != nullptr) {  // a failed handle has nothing to close
      // A crash during close leaves the sentinel's OnClose side effects in
      // doubt, so stage 2 restarts and closes again on a live sentinel, or
      // closes the degraded fallback, which flushes the data part.
      auto close = [&]() AFS_REQUIRES(mu_) -> Status {
        const Status status = transport_->Close();
        // The control strategies tolerate a sentinel that vanishes instead
        // of acking the close (their Close reports OK), and the stream one
        // reports an abnormal exit as kInternal.  Under supervision a child
        // that died abnormally means OnClose never ran: a crash.
        if ((status.ok() || status.code() == ErrorCode::kInternal) &&
            ChildDiedAbnormally()) {
          return ClosedError("sentinel died during close");
        }
        return status;
      };
      closed =
          CallLocked("close", std::nullopt, 0, CallKind::kReplayable, close);
    }
    if (sup_ != nullptr) {
      DetachSessionLocked();
      JournalDrop(sup_->journal.RecordClose(sup_->id));
    }
    transport_.reset();
    closed_ = true;
    return flushed.ok() ? closed : flushed;
  }

 private:
  struct Block {
    Buffer data;
    std::size_t len = 0;  // valid bytes; < kCacheBlockSize only at EOF
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  // Stage 1 state.
  struct Cache {
    Cache(std::shared_ptr<CacheLeaseChannel> lease_channel,
          const ClientCacheOptions& cache_options)
        : channel(std::move(lease_channel)),
          options(cache_options),
          dirty_gate(AdmissionGate::Limits{
              /*max_queue_bytes=*/cache_options.cache_bytes,
              /*max_inflight=*/0, /*rate_bytes_per_second=*/0,
              /*burst_bytes=*/0}) {}

    // Lock-free; the link observes grants into it from transport threads.
    const std::shared_ptr<CacheLeaseChannel> channel;
    const ClientCacheOptions options;
    AdmissionGate dirty_gate;  // bounds un-flushed write-behind
    std::map<std::uint64_t, Block> blocks;
    std::uint32_t seen_epoch = 0;
    std::uint32_t acked_epoch = 0;
    std::uint64_t seen_revocations = 0;
    std::uint64_t lru_tick = 0;
  };

  // Stage 2 state.
  struct Supervision {
    enum class Mode : std::uint8_t { kActive, kDegraded, kFailed };

    Supervision(Supervisor& monitor, SessionJournal& session_journal,
                const sentinel::SentinelRegistry& sentinels,
                const RestartPolicy& restart_policy)
        : supervisor(monitor),
          journal(session_journal),
          registry(sentinels),
          policy(restart_policy),
          id(session_journal.NextId()) {}

    Supervisor& supervisor;
    SessionJournal& journal;
    const sentinel::SentinelRegistry& registry;
    const RestartPolicy policy;
    const std::uint64_t id;

    std::shared_ptr<Supervisor::Session> session;
    std::shared_ptr<ipc::ProcessWatch> child;
    // Probes a descriptor the transport owns: dropped before it.
    std::function<bool()> peer_alive;
    Mode mode = Mode::kActive;
    int restarts = 0;

    // Stream replay state: the independent write pointer and the write
    // log a restarted pump re-applies from byte zero.
    std::uint64_t write_pos = 0;
    std::vector<Buffer> write_log;
    std::size_t write_log_bytes = 0;
    bool write_log_overflow = false;
  };

  // How stage 2 treats one transport call: journaled and retried after a
  // restart; retried but not journaled (queries); or journaled and, not
  // being idempotent, reported after the handle recovers.
  enum class CallKind : std::uint8_t {
    kReplayable,
    kUnjournaled,
    kNotReplayable
  };

  // Open, with a transport to call; NotReady() says which is missing.
  bool Ready() const AFS_REQUIRES(mu_) {
    return !closed_ && transport_ != nullptr;
  }
  Status NotReady() const AFS_REQUIRES(mu_) {
    if (closed_) return ClosedError("handle closed");
    return ClosedError("active file failed permanently (degrade=fail)");
  }

  bool Supervising() const AFS_REQUIRES(mu_) {
    return sup_ != nullptr && sup_->mode == Supervision::Mode::kActive;
  }

  Result<std::size_t> ReadLocked(std::span<MutableByteSpan> segments,
                                 bool vectored) AFS_REQUIRES(mu_) {
    bool cached = false;
    if (cache_ != nullptr) {
      AFS_ASSIGN_OR_RETURN(cached, BlocksServeReadsLocked());
    }
    if (!cached) {
      Result<std::size_t> n = TransportReadLocked(pos_, segments, vectored);
      if (n.ok()) pos_ += *n;
      return n;
    }
    std::size_t total = 0;
    for (MutableByteSpan segment : segments) {
      AFS_ASSIGN_OR_RETURN(std::size_t n, ReadBlocksLocked(segment));
      total += n;
      if (n < segment.size()) break;
    }
    return total;
  }

  Result<std::size_t> WriteLocked(std::span<ByteSpan> segments, bool vectored)
      AFS_REQUIRES(mu_) {
    if (cache_ != nullptr) {
      AFS_ASSIGN_OR_RETURN(CacheLeaseChannel::State lease,
                           PrepareLeaseLocked());
      if (cache_->options.mode == ClientCacheMode::kWrite && lease.live &&
          lease.write) {
        std::size_t total = 0;
        for (ByteSpan segment : segments) {
          AFS_ASSIGN_OR_RETURN(std::size_t n, WriteBlocksLocked(segment));
          total += n;
        }
        return total;
      }
      // Writes bypass the cache: flush anything pending first (ordering),
      // and drop cached blocks the write would invalidate.
      AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      DropAllLocked();
    }
    if (stream_) return StreamWriteLocked(segments);
    Result<std::size_t> n = TransportWriteLocked(pos_, segments, vectored);
    if (n.ok()) pos_ += *n;
    return n;
  }

  // The authoritative size includes un-flushed write-behind.
  Result<std::uint64_t> SizeLocked() AFS_REQUIRES(mu_) {
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    auto size = [&]() AFS_REQUIRES(mu_) { return transport_->Size(); };
    return CallLocked("size", std::nullopt, 0, CallKind::kUnjournaled, size);
  }

  // ---- stage 1: the lease-checked block cache ---------------------------

  // True when a live read lease lets cached blocks serve reads; without
  // one, the sentinel (which revalidates against its upstream) does.
  Result<bool> BlocksServeReadsLocked() AFS_REQUIRES(mu_) {
    AFS_ASSIGN_OR_RETURN(CacheLeaseChannel::State lease, PrepareLeaseLocked());
    return lease.live && lease.read;
  }

  // Reconciles the cached blocks with the channel's lease state, then
  // renews a stale lease with one cheap crossing so a hit-only workload
  // cannot coast past its deadline on stale blocks.  Only peers that have
  // granted before are worth a renewal crossing; a sentinel that never
  // grants stays pure passthrough with zero extra round trips.
  Result<CacheLeaseChannel::State> PrepareLeaseLocked() AFS_REQUIRES(mu_) {
    CacheLeaseChannel::State lease;
    AFS_RETURN_IF_ERROR(SyncLeaseLocked(lease));
    if (!lease.live && lease.granted_once) {
      // A seek to the transport's own position is position-neutral on the
      // sentinel; its response re-arms the lease via the link's Observe,
      // and consistency=always sentinels revalidate on it.
      AFS_RETURN_IF_ERROR(
          TransportSeekLocked(0, vfs::SeekOrigin::kCurrent, std::nullopt)
              .status());
      CacheStats().lease_renews.Add(1);
      AFS_RETURN_IF_ERROR(SyncLeaseLocked(lease));
    }
    return lease;
  }

  Status SyncLeaseLocked(CacheLeaseChannel::State& lease) AFS_REQUIRES(mu_) {
    Cache& cache = *cache_;
    lease = cache.channel->Snapshot();
    if (lease.revocations != cache.seen_revocations) {
      // Supervision voided the lease (sentinel death, restart, or expiry
      // while down).  Dirty blocks are committed application writes: flush
      // them through stage 2 — whose restart re-attaches the session first
      // — then drop the rest rather than serve blocks from a dead
      // incarnation.
      AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      DropAllLocked();
      cache.seen_revocations = lease.revocations;
      cache.seen_epoch = 0;
      cache.acked_epoch = 0;
      CacheStats().recalls.Add(1);
      lease = cache.channel->Snapshot();
    }
    const bool epoch_changed = lease.epoch != cache.seen_epoch;
    const bool unacked_recall =
        lease.recall && cache.acked_epoch != lease.epoch;
    if (epoch_changed || unacked_recall) {
      if (fault::Enabled() && !fault::Hit("core.cache.recall").ok()) {
        // Injected recall loss: the drop is deferred to a later crossing;
        // the lease deadline still bounds how long stale blocks can be
        // served (docs/CACHING.md).
        return Status::Ok();
      }
      const bool counted = lease.recall || cache.seen_epoch != 0;
      AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      DropAllLocked();
      cache.seen_epoch = lease.epoch;
      if (lease.recall) {
        cache.acked_epoch = lease.epoch;
        cache.channel->AckRecall();
      }
      if (counted) CacheStats().recalls.Add(1);
    }
    return Status::Ok();
  }

  Result<std::size_t> ReadBlocksLocked(MutableByteSpan out)
      AFS_REQUIRES(mu_) {
    std::size_t total = 0;
    while (total < out.size()) {
      const std::size_t offset =
          static_cast<std::size_t>(pos_ % kCacheBlockSize);
      AFS_ASSIGN_OR_RETURN(Block * block,
                           FetchBlockLocked(pos_ / kCacheBlockSize, false));
      if (offset >= block->len) break;  // EOF inside this block
      const std::size_t n = std::min(out.size() - total, block->len - offset);
      std::memcpy(out.data() + total, block->data.data() + offset, n);
      pos_ += n;
      total += n;
      if (block->len < kCacheBlockSize) break;  // the block ends at EOF
    }
    return total;
  }

  Result<std::size_t> WriteBlocksLocked(ByteSpan data) AFS_REQUIRES(mu_) {
    std::size_t total = 0;
    while (total < data.size()) {
      const std::size_t offset =
          static_cast<std::size_t>(pos_ % kCacheBlockSize);
      const std::size_t n =
          std::min(data.size() - total, kCacheBlockSize - offset);
      // A full overwrite needs no read-modify-write fetch.
      AFS_ASSIGN_OR_RETURN(
          Block * block,
          FetchBlockLocked(pos_ / kCacheBlockSize,
                           offset == 0 && n == kCacheBlockSize));
      if (!block->dirty) {
        // Charge one block against the dirty budget; on overload the
        // pending write-behind flushes (releasing its charges) and the
        // admit retries.  Flushing never erases blocks, so `block` stays
        // valid.
        if (!cache_->dirty_gate.Admit(kCacheBlockSize).ok()) {
          AFS_RETURN_IF_ERROR(FlushDirtyLocked());
          AFS_RETURN_IF_ERROR(cache_->dirty_gate.Admit(kCacheBlockSize));
        }
        block->dirty = true;
        CacheStats().dirty_bytes.Add(kBlockBytes);
      }
      std::memcpy(block->data.data() + offset, data.data() + total, n);
      block->len = std::max(block->len, offset + n);
      pos_ += n;
      total += n;
    }
    return total;
  }

  // Finds block `index`, fetching a missing one through stages 2+3 — or,
  // when `blank`, inserting it zero-filled because it is about to be fully
  // overwritten.
  Result<Block*> FetchBlockLocked(std::uint64_t index, bool blank)
      AFS_REQUIRES(mu_) {
    Cache& cache = *cache_;
    auto it = cache.blocks.find(index);
    if (it != cache.blocks.end()) {
      CacheStats().hits.Add(1);
      it->second.lru = ++cache.lru_tick;
      return &it->second;
    }
    Block block;
    block.data.resize(kCacheBlockSize);  // short fetches keep the zeros
    if (!blank) {
      CacheStats().misses.Add(1);
      while (block.len < kCacheBlockSize) {
        MutableByteSpan rest(block.data.data() + block.len,
                             kCacheBlockSize - block.len);
        AFS_ASSIGN_OR_RETURN(
            std::size_t n,
            TransportReadLocked(index * kCacheBlockSize + block.len,
                                {&rest, 1}, false));
        if (n == 0) break;
        block.len += n;
      }
    }
    // Keep the resident set within cache_bytes, preferring clean victims;
    // when every block is dirty, the pending write-behind flushes first.
    const std::size_t budget_blocks =
        std::max<std::size_t>(1, cache.options.cache_bytes / kCacheBlockSize);
    while (cache.blocks.size() >= budget_blocks) {
      auto victim = cache.blocks.end();
      for (auto at = cache.blocks.begin(); at != cache.blocks.end(); ++at) {
        if (at->second.dirty) continue;
        if (victim == cache.blocks.end() ||
            at->second.lru < victim->second.lru) {
          victim = at;
        }
      }
      if (victim == cache.blocks.end()) {
        AFS_RETURN_IF_ERROR(FlushDirtyLocked());
        continue;  // every block is clean now; re-pick a victim
      }
      cache.blocks.erase(victim);
    }
    block.lru = ++cache.lru_tick;
    return &cache.blocks.emplace(index, std::move(block)).first->second;
  }

  // Pushes every dirty block through the positional write path, in
  // ascending offset order.  Under supervision those writes land in the
  // session journal, which is what makes kill-with-dirty-blocks replay
  // byte-exact.
  Status FlushDirtyLocked() AFS_REQUIRES(mu_) {
    if (cache_ == nullptr) return Status::Ok();
    AFS_FAULT_POINT("core.cache.flush");
    for (auto& [index, block] : cache_->blocks) {
      if (!block.dirty) continue;
      std::size_t written = 0;
      while (written < block.len) {
        ByteSpan rest(block.data.data() + written, block.len - written);
        AFS_ASSIGN_OR_RETURN(
            std::size_t n,
            TransportWriteLocked(index * kCacheBlockSize + written,
                                 {&rest, 1}, false));
        if (n == 0) return IoError("short write flushing cache block");
        written += n;
      }
      block.dirty = false;
      cache_->dirty_gate.Release(kCacheBlockSize);
      CacheStats().dirty_bytes.Add(-kBlockBytes);
    }
    return Status::Ok();
  }

  void DropAllLocked() AFS_REQUIRES(mu_) {
    if (cache_ == nullptr) return;
    // Callers flush first; any block still dirty here is being discarded
    // deliberately, so its budget charge must come back.
    for (auto& [index, block] : cache_->blocks) {
      if (!block.dirty) continue;
      cache_->dirty_gate.Release(kCacheBlockSize);
      CacheStats().dirty_bytes.Add(-kBlockBytes);
    }
    cache_->blocks.clear();
  }

  // ---- stages 2+3: one transport call ----------------------------------

  // Runs `op` against the transport, first moving the transport's pointer
  // to `at` when given.  `op` runs under the handle lock and keeps
  // transport_pos_ current.  Under supervision the call is journaled
  // write-ahead (per `kind`), and a crash restarts the sentinel and
  // retries the call or, for a call that is not replayable, reports it.
  template <typename Op>
  auto CallLocked(const char* op_name, std::optional<std::uint64_t> at,
                  std::uint64_t length, CallKind kind, Op&& op)
      -> decltype(op()) AFS_REQUIRES(mu_) {
    using R = decltype(op());
    // Supervision may have given up earlier in this same operation.
    if (transport_ == nullptr) return R(NotReady());
    if (!Supervising()) {
      if (!TransportAt(at)) AFS_RETURN_IF_ERROR(SyncTransportLocked(at));
      return op();
    }
    const bool journaled = kind != CallKind::kUnjournaled;
    if (journaled) {
      JournalDrop(sup_->journal.RecordOp(
          sup_->id, op_name,
          static_cast<std::int64_t>(at.value_or(transport_pos_)), length));
    }
    while (true) {
      const Status synced = SyncTransportLocked(at);
      R result = synced.ok() ? op() : R(synced);
      if (result.ok()) {
        if (journaled && Supervising()) {
          JournalDrop(sup_->journal.RecordDone(
              sup_->id, static_cast<std::int64_t>(transport_pos_)));
        }
        return result;
      }
      // Degraded transports and sentinel-side errors pass through.
      if (!Supervising() || !CrashClass(StatusOf(result))) return result;
      if (kind == CallKind::kNotReplayable) {
        (void)RecoverLocked(op_name);  // heal the handle, report the failure
        return result;
      }
      AFS_RETURN_IF_ERROR(RecoverLocked(op_name));
    }
  }

  // The one position rule: a positional call first moves the transport's
  // pointer to where the call needs it, unless it is already there.
  // Stream transports cannot seek and always sit at the read pointer.
  bool TransportAt(std::optional<std::uint64_t> at) const AFS_REQUIRES(mu_) {
    return !at.has_value() || stream_ || *at == transport_pos_;
  }
  Status SyncTransportLocked(std::optional<std::uint64_t> at)
      AFS_REQUIRES(mu_) {
    if (TransportAt(at)) return Status::Ok();
    AFS_ASSIGN_OR_RETURN(transport_pos_,
                         transport_->Seek(static_cast<std::int64_t>(*at),
                                          vfs::SeekOrigin::kBegin));
    return Status::Ok();
  }

  // A vectored read or write is one transport call, however many segments
  // it carries.
  Result<std::size_t> TransportReadLocked(std::uint64_t at,
                                          std::span<MutableByteSpan> segments,
                                          bool vectored) AFS_REQUIRES(mu_) {
    std::size_t length = 0;
    for (MutableByteSpan segment : segments) length += segment.size();
    auto read = [&]() AFS_REQUIRES(mu_) -> Result<std::size_t> {
      Result<std::size_t> n = vectored ? transport_->ReadScatter(segments)
                                       : transport_->Read(segments.front());
      if (!n.ok()) return n;
      if (*n == 0 && StreamEofWasCrash()) {
        return ClosedError("sentinel died mid-stream");
      }
      transport_pos_ += *n;
      return n;
    };
    return CallLocked(vectored ? "readv" : "read", at, length,
                      CallKind::kReplayable, read);
  }

  Result<std::size_t> TransportWriteLocked(std::uint64_t at,
                                           std::span<ByteSpan> segments,
                                           bool vectored) AFS_REQUIRES(mu_) {
    std::size_t length = 0;
    for (ByteSpan segment : segments) length += segment.size();
    auto write = [&]() AFS_REQUIRES(mu_) -> Result<std::size_t> {
      Result<std::size_t> n = vectored ? transport_->WriteGather(segments)
                                       : transport_->Write(segments.front());
      if (n.ok()) transport_pos_ += *n;
      return n;
    };
    return CallLocked(vectored ? "writev" : "write", at, length,
                      CallKind::kReplayable, write);
  }

  Result<std::uint64_t> TransportSeekLocked(std::int64_t offset,
                                            vfs::SeekOrigin origin,
                                            std::optional<std::uint64_t> at)
      AFS_REQUIRES(mu_) {
    auto seek = [&]() AFS_REQUIRES(mu_) -> Result<std::uint64_t> {
      Result<std::uint64_t> pos = transport_->Seek(offset, origin);
      if (pos.ok()) transport_pos_ = *pos;
      return pos;
    };
    return CallLocked("seek", at, 0, CallKind::kReplayable, seek);
  }

  // Stream writes are fire-and-forget, so under supervision the crash
  // retry IS the replay: the restarted pump re-applies the whole logged
  // write sequence from position zero (positional OnWrite makes that
  // idempotent), and this write rides along — it must not be sent again
  // afterwards.
  Result<std::size_t> StreamWriteLocked(std::span<ByteSpan> segments)
      AFS_REQUIRES(mu_) {
    if (!Supervising()) return transport_->WriteGather(segments);
    Supervision& sup = *sup_;
    std::size_t length = 0;
    for (ByteSpan segment : segments) length += segment.size();
    JournalDrop(sup.journal.RecordOp(
        sup.id, "write", static_cast<std::int64_t>(sup.write_pos), length));
    for (ByteSpan segment : segments) {
      if (sup.write_log_bytes + segment.size() > kWriteLogCap) {
        if (!sup.write_log_overflow) {
          sup.write_log_overflow = true;
          AFS_LOG(kWarn, "afs.supervisor")
              << request_.vfs_path << ": write log exceeded " << kWriteLogCap
              << " bytes; a crash now degrades instead of restarting";
        }
        break;
      }
      sup.write_log.emplace_back(segment.begin(), segment.end());
      sup.write_log_bytes += segment.size();
    }
    std::size_t n = length;  // a recovery replays the log, this write too
    Result<std::size_t> wrote = transport_->WriteGather(segments);
    if (wrote.ok()) {
      n = *wrote;
    } else {
      if (!CrashClass(wrote.status())) return wrote;
      AFS_RETURN_IF_ERROR(RecoverLocked("write"));
      if (!Supervising()) return transport_->WriteGather(segments);
    }
    sup.write_pos += n;
    JournalDrop(sup.journal.RecordDone(
        sup.id, static_cast<std::int64_t>(transport_pos_)));
    return n;
  }

  // ---- stage 2: sessions, restarts, degrade -----------------------------

  // Spawns one session (sentinel + probe) and registers it with the
  // monitor.
  Status OpenSessionLocked() AFS_REQUIRES(mu_) {
    Supervision& sup = *sup_;
    OpenRequest request = request_;
    if (sup.policy.lease.count() > 0) {
      // Three beats per lease keeps one lost wakeup from a false positive.
      request.heartbeat_interval =
          Micros{std::max<std::int64_t>(sup.policy.lease.count() / 3, 1000)};
    }
    if (stream_) {
      request.resume_read_pos = pos_;
      request.resume_write_pos = 0;  // the write log replays from zero
    }
    SessionProbe probe;
    AFS_ASSIGN_OR_RETURN(
        std::unique_ptr<vfs::FileHandle> opened,
        OpenWithStrategy(strategy_, sup.registry, request, &probe));
    if (request_.cache_channel != nullptr) {
      probe.cache_revoke = [channel = request_.cache_channel] {
        channel->Revoke();
      };
    }
    DetachSessionLocked();  // drop any previous incarnation first
    sup.child = probe.child;
    sup.peer_alive = probe.peer_alive;
    transport_ = std::move(opened);
    // A fresh sentinel opens at offset 0; a stream resumes at the read
    // pointer.  The next positional call re-seeks from there.
    transport_pos_ = stream_ ? pos_ : 0;
    sup.session = sup.supervisor.Attach(std::move(probe), sup.policy.lease);
    return Status::Ok();
  }

  // Full crash recovery: tear down, restart with backoff, re-attach.  OK =
  // retry the interrupted call (active again or degraded); error =
  // permanently failed.
  Status RecoverLocked(const char* why) AFS_REQUIRES(mu_) {
    Supervision& sup = *sup_;
    Supervisor::MarkDead(sup.session);
    if (request_.cache_channel != nullptr) {
      // Recovery entered from the op path can beat the monitor's sweep;
      // void the cache's lease before a restarted sentinel (whose epoch
      // numbering starts over) answers anything.
      request_.cache_channel->Revoke();
    }
    static obs::Counter& replays =
        obs::Registry::Global().GetCounter("core.supervisor.session_replays");
    while (true) {
      AFS_RETURN_IF_ERROR(NextRestartLocked(why));
      if (sup.mode == Supervision::Mode::kDegraded) return Status::Ok();
      if (!OpenSessionLocked().ok()) continue;  // crashed before open-ack
      replays.Add(1);
      const Status replayed = ReplayWriteLogLocked();
      if (replayed.ok()) return Status::Ok();
      AFS_LOG(kWarn, "afs.supervisor")
          << request_.vfs_path << ": session replay failed ("
          << replayed.ToString() << "); retrying";
    }
  }

  // Re-sends a stream session's write log to its restarted pump.  Command
  // strategies need nothing here: the next positional call re-seeks their
  // file pointer.
  Status ReplayWriteLogLocked() AFS_REQUIRES(mu_) {
    if (!stream_) return Status::Ok();
    for (const Buffer& logged : sup_->write_log) {
      AFS_ASSIGN_OR_RETURN(std::size_t n, transport_->Write(ByteSpan(logged)));
      if (n != logged.size()) {
        return IoError("short write during session replay");
      }
    }
    return Status::Ok();
  }

  // Consumes one unit of restart budget (with backoff) or degrades.  OK
  // when the caller may retry (restarted or degraded); an error when the
  // handle is permanently failed.
  Status NextRestartLocked(const char* why) AFS_REQUIRES(mu_) {
    Supervision& sup = *sup_;
    DetachSessionLocked();
    transport_.reset();
    if (sup.restarts >= sup.policy.max_restarts ||
        (stream_ && sup.write_log_overflow)) {
      return DegradeLocked(why);
    }
    ++sup.restarts;
    static obs::Counter& restarts =
        obs::Registry::Global().GetCounter("core.supervisor.restarts");
    restarts.Add(1);
    JournalDrop(sup.journal.RecordRestart(sup.id, sup.restarts));
    // Doubling delay, recomputed from the attempt number so the budget is
    // global to the handle rather than per-operation.
    Micros delay = sup.policy.backoff_initial;
    for (int i = 1; i < sup.restarts && delay < sup.policy.backoff_cap; ++i) {
      delay = std::min(delay * 2, sup.policy.backoff_cap);
    }
    Backoff backoff(1, delay, sup.policy.backoff_cap);
    (void)backoff.Next(SteadyClock::Instance());
    AFS_LOG(kWarn, "afs.supervisor")
        << request_.vfs_path << ": restarting sentinel after crash during "
        << why << " (attempt " << sup.restarts << "/"
        << sup.policy.max_restarts << ")";
    return Status::Ok();
  }

  // Restart budget exhausted (or restart impossible): fall back to the
  // bundle's data part per the declared degrade mode.
  Status DegradeLocked(const char* why) AFS_REQUIRES(mu_) {
    Supervision& sup = *sup_;
    static obs::Counter& degrades =
        obs::Registry::Global().GetCounter("core.supervisor.degrades");
    degrades.Add(1);
    JournalDrop(sup.journal.RecordDegrade(
        sup.id, std::string(DegradeModeName(sup.policy.degrade))));
    sup.mode = Supervision::Mode::kFailed;
    if (sup.policy.degrade == DegradeMode::kFail) {
      AFS_LOG(kError, "afs.supervisor")
          << request_.vfs_path << ": sentinel permanently failed during "
          << why << " after " << sup.restarts << " restart(s)";
      return ClosedError("sentinel permanently failed (crash during " +
                         std::string(why) + ")");
    }
    Result<std::unique_ptr<BundleFile>> bundle =
        BundleFile::Open(request_.host_path);
    if (!bundle.ok()) {
      return ClosedError("cannot degrade: " + bundle.status().ToString());
    }
    const bool writable = sup.policy.degrade == DegradeMode::kPassthrough;
    // Like a fresh sentinel, a shared-pointer fallback starts at 0 and is
    // re-seeked by the next positional call; a stream one keeps its split
    // read and write pointers.
    auto fallback = std::make_unique<DegradedHandle>(
        std::move(*bundle), writable, stream_, stream_ ? pos_ : 0,
        stream_ ? sup.write_pos : 0);
    if (stream_ && writable && !sup.write_log_overflow) {
      // Make the data part byte-exact: unacknowledged stream writes may or
      // may not have been applied by the dead sentinel, so re-apply the
      // whole log positionally.
      std::uint64_t offset = 0;
      for (const Buffer& logged : sup.write_log) {
        Result<std::size_t> n =
            fallback->bundle()->WriteDataAt(offset, ByteSpan(logged));
        if (!n.ok()) {
          return ClosedError("cannot degrade: " + n.status().ToString());
        }
        offset += *n;
      }
    }
    transport_ = std::move(fallback);
    transport_pos_ = stream_ ? pos_ : 0;
    sup.mode = Supervision::Mode::kDegraded;
    AFS_LOG(kWarn, "afs.supervisor")
        << request_.vfs_path << ": degraded to "
        << DegradeModeName(sup.policy.degrade) << " after crash during "
        << why;
    return Status::Ok();
  }

  void DetachSessionLocked() AFS_REQUIRES(mu_) {
    Supervision& sup = *sup_;
    if (sup.session != nullptr) {
      sup.supervisor.Detach(sup.session);
      sup.session.reset();
    }
    sup.child.reset();
    sup.peer_alive = nullptr;
  }

  // Transport failures that mean "the sentinel is gone", as opposed to
  // sentinel-side operation errors (which pass through untouched).
  bool CrashClass(const Status& status) AFS_REQUIRES(mu_) {
    switch (status.code()) {
      case ErrorCode::kClosed:
      case ErrorCode::kTimeout:
        return true;
      case ErrorCode::kIoError:
        return ChildDiedAbnormally();
      default:
        return false;
    }
  }

  bool ChildDiedAbnormally() AFS_REQUIRES(mu_) {
    if (sup_ == nullptr || sup_->child == nullptr) return false;
    const std::optional<ipc::ExitStatus> ended = sup_->child->Poll();
    return ended.has_value() && !ended->clean();
  }

  // A raw-stream EOF is ambiguous: a finished pump closes its output end,
  // but so does the kernel tearing down a killed sentinel.  The teardown
  // is not atomic: the EOF routinely becomes visible to the application
  // before either the child is reapable or the companion pipe reports its
  // reader gone (measured up to ~8ms apart under load).  So no single
  // instant probe can classify the EOF; instead, wait for whichever
  // durable signal settles first:
  //   - child exits            -> crash iff the exit was abnormal;
  //   - reader present, and it STAYS present across the teardown window
  //                            -> genuine end-of-data (a healthy pump
  //                               holds the app->sentinel read end until
  //                               close);
  //   - reader gone but child never reapable within the deadline
  //                            -> the child is mid-exit: a crash.
  bool StreamEofWasCrash() AFS_REQUIRES(mu_) {
    if (!stream_ || !Supervising() || sup_->child == nullptr) return false;
    constexpr auto kStep = std::chrono::microseconds(500);
    constexpr int kIters = 200;         // 100ms hard deadline
    constexpr int kConfirmStreak = 40;  // reader must hold ~20ms to be trusted
    int alive_streak = 0;
    bool reader_gone = false;
    for (int i = 0; i < kIters; ++i) {
      const std::optional<ipc::ExitStatus> ended = sup_->child->Poll();
      if (ended.has_value()) return !ended->clean();
      if (sup_->peer_alive) {
        if (sup_->peer_alive()) {
          if (++alive_streak >= kConfirmStreak) return false;
        } else {
          alive_streak = 0;
          reader_gone = true;
        }
      }
      std::this_thread::sleep_for(kStep);
    }
    // Deadline passed with the child running.  A live pump would have held
    // its read end the whole time; if the reader ever vanished, the child
    // is stuck mid-exit and the EOF was its death, not end-of-data.
    return reader_gone;
  }

  const Strategy strategy_;
  // The plain process strategy: split read/write streams, no seek.
  const bool stream_;
  const OpenRequest request_;

  Mutex mu_;
  std::unique_ptr<vfs::FileHandle> transport_ AFS_GUARDED_BY(mu_);
  std::unique_ptr<Cache> cache_ AFS_GUARDED_BY(mu_);       // stage 1
  std::unique_ptr<Supervision> sup_ AFS_GUARDED_BY(mu_);  // stage 2
  bool closed_ AFS_GUARDED_BY(mu_) = false;
  // The application's file pointer (the read pointer for streams).
  std::uint64_t pos_ AFS_GUARDED_BY(mu_) = 0;
  // Where the transport's file pointer stands.  A failed call leaves it
  // unmoved: sentinels only advance on success, and a failed link is
  // either poisoned or, under supervision, replaced.
  std::uint64_t transport_pos_ AFS_GUARDED_BY(mu_) = 0;
};

}  // namespace

Result<std::unique_ptr<vfs::FileHandle>> OpenActiveFile(
    Supervisor& supervisor, SessionJournal& journal,
    const sentinel::SentinelRegistry& registry, Strategy strategy,
    OpenRequest request) {
  // The channel rides the OpenRequest so every link incarnation —
  // including supervised restarts — observes grants into it.  The plain
  // process strategy cannot seek, which the block cache's flush path
  // requires, so it stays uncached.
  const ClientCacheOptions cache_options =
      ClientCacheOptionsFromSpec(request.spec.config);
  if (cache_options.mode != ClientCacheMode::kOff &&
      strategy != Strategy::kProcess) {
    request.cache_channel = std::make_shared<CacheLeaseChannel>();
  }
  AFS_ASSIGN_OR_RETURN(RestartPolicy policy,
                       RestartPolicy::FromSpec(request.spec.config));
  if (policy.supervised && strategy == Strategy::kDirect) {
    return UnsupportedError(
        "direct strategy runs the sentinel in the caller's frame and "
        "cannot be supervised");
  }
  auto handle =
      std::make_unique<ActiveFileHandle>(strategy, std::move(request));
  AFS_RETURN_IF_ERROR(
      handle->Open(registry, cache_options, supervisor, journal, policy));
  return std::unique_ptr<vfs::FileHandle>(std::move(handle));
}

}  // namespace afs::core
