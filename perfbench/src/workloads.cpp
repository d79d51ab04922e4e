// The four workloads, the op executor with its shadow check, and the
// environment they run in.  Why each workload exists is recorded in
// BENCHMARK.json and perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using afs::Prng;
using afs::core::Strategy;
namespace vfs = afs::vfs;

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

const char* SeriesName(Series series) {
  switch (series) {
    case Series::kProcess: return "process";
    case Series::kThread: return "thread";
    case Series::kDll: return "dll";
    case Series::kLoop: return "loop";
    case Series::kCached: return "cached";
    case Series::kPassive: return "passive";
    case Series::kCount: break;
  }
  return "?";
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

// ---------------------------------------------------------------------------
// Results

std::uint16_t RunStats::Complete(std::int64_t end_ns) {
  const auto w = static_cast<std::size_t>(
      std::clamp<std::int64_t>((end_ns - start_ns) / kWindowNs, 0, 0xFFFF));
  if (window_ops.size() <= w) {
    window_ops.resize(w + 1, 0);
    window_last_ns.resize(w + 1, 0);
  }
  ++window_ops[w];
  window_last_ns[w] = std::max(window_last_ns[w], end_ns);
  return static_cast<std::uint16_t>(w);
}

void RunStats::Merge(RunStats&& other) {
  if (start_ns == 0 || (other.start_ns != 0 && other.start_ns < start_ns)) {
    start_ns = other.start_ns;
  }
  if (window_ops.size() < other.window_ops.size()) {
    window_ops.resize(other.window_ops.size(), 0);
    window_last_ns.resize(other.window_ops.size(), 0);
  }
  for (std::size_t w = 0; w < other.window_ops.size(); ++w) {
    window_ops[w] += other.window_ops[w];
    window_last_ns[w] = std::max(window_last_ns[w], other.window_last_ns[w]);
  }
  for (int i = 0; i < kSeriesCount; ++i) {
    SeriesStats& mine = series[i];
    SeriesStats& theirs = other.series[i];
    mine.ns.insert(mine.ns.end(), theirs.ns.begin(), theirs.ns.end());
    mine.window.insert(mine.window.end(), theirs.window.begin(),
                       theirs.window.end());
    mine.bytes += theirs.bytes;
    mine.busy_ns += theirs.busy_ns;
  }
  open_ns.insert(open_ns.end(), other.open_ns.begin(), other.open_ns.end());
  gen_lag_ns.insert(gen_lag_ns.end(), other.gen_lag_ns.begin(),
                    other.gen_lag_ns.end());
  attempted += other.attempted;
  failed += other.failed;
  shed += other.shed;
  mismatched += other.mismatched;
  data_ops += other.data_ops;
  elapsed_s = std::max(elapsed_s, other.elapsed_s);
}

std::vector<std::uint32_t> RunStats::Pooled() const {
  std::vector<std::uint32_t> all;
  for (int i = 0; i < kSeriesCount; ++i) {
    if (static_cast<Series>(i) == Series::kPassive) continue;
    all.insert(all.end(), series[i].ns.begin(), series[i].ns.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// Spans

std::int32_t SpanLog::Begin(const char* name, std::int32_t parent, int series,
                            std::uint64_t op_id) {
  if (full()) return -1;
  spans_.push_back(SpanRec{name, parent, static_cast<std::int16_t>(series),
                           op_id, NowNs(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::End(std::int32_t index) { spans_[index].end_ns = NowNs(); }

void SpanLog::Append(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (SpanRec rec : other.spans_) {
    if (rec.parent >= 0) rec.parent += base;
    spans_.push_back(rec);
  }
}

// ---------------------------------------------------------------------------
// Environment

Env::Env(const std::string& root, afs::Micros service_delay, bool with_server)
    : root_(root) {
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
  std::filesystem::create_directories(root_, ec);
  api_ = std::make_unique<vfs::FileApi>(root_ + "/root");
  afs::sentinels::RegisterBuiltinSentinels();
  if (with_server) {
    // Unix socket paths are short: keep this one relative to the working
    // directory, which sentinel children inherit.
    socket_path_ =
        std::filesystem::relative(root_ + "/files.sock").string();
    afs::net::SocketServer::Options options;
    options.service_delay = service_delay;
    server_ = std::make_unique<afs::net::SocketServer>(socket_path_, files_,
                                                       options);
    afs::Status started = server_->Start();
    if (!started.ok()) Die("socket server: " + started.ToString());
  }
  afs::core::ManagerOptions manager_options;
  manager_options.resolver = &resolver_;
  manager_ = std::make_unique<afs::core::ActiveFileManager>(
      *api_, afs::sentinel::SentinelRegistry::Global(), manager_options);
  manager_->Install();
}

Env::~Env() {
  manager_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  api_.reset();
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
}

afs::core::Strategy StrategyOf(Series series) {
  switch (series) {
    case Series::kProcess: return Strategy::kProcessControl;
    case Series::kThread:
    case Series::kCached: return Strategy::kThread;
    case Series::kDll: return Strategy::kDirect;
    case Series::kLoop: return Strategy::kLoop;
    case Series::kPassive:
    case Series::kCount: break;
  }
  return Strategy::kDirect;
}

afs::sentinel::SentinelSpec NullSpec(Strategy strategy) {
  afs::sentinel::SentinelSpec spec;
  spec.name = "null";
  spec.config["cache"] = "memory";
  spec.config["writeback"] = "0";
  spec.config["strategy"] = std::string(afs::core::StrategyName(strategy));
  return spec;
}

void Stage(Env& env, const std::string& path,
           const afs::sentinel::SentinelSpec& spec, ByteSpan data) {
  afs::Status status =
      spec.name.empty() ? env.api().WriteWholeFile(path, data)
                        : env.manager().CreateActiveFile(path, spec, data);
  if (!status.ok()) Die("stage " + path + ": " + status.ToString());
}

vfs::HandleId OpenOrDie(Env& env, const std::string& path) {
  auto handle = env.api().OpenFile(path, vfs::OpenMode::kReadWrite);
  if (!handle.ok()) Die("open " + path + ": " + handle.status().ToString());
  return *handle;
}

// ---------------------------------------------------------------------------
// Executing one op

namespace {

constexpr std::size_t kPoolBytes = 1 << 18;

// Random write payloads come from a per-thread pool at a random offset,
// so preparing a write costs no fill inside or around the timed call.
const Buffer& WritePool() {
  static const Buffer pool = [] {
    Buffer bytes(kPoolBytes + (1 << 16));
    Prng rng(0x5EED);
    rng.Fill(MutableByteSpan(bytes));
    return bytes;
  }();
  return pool;
}

void Fail(OpResult& result, const afs::Status& status) {
  result.ok = false;
  result.shed = status.code() == afs::ErrorCode::kOverloaded;
  if (!result.shed) {
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 5) {
      std::fprintf(stderr, "perfbench: op failed: %s\n",
                   status.ToString().c_str());
    }
  }
}

}  // namespace

OpResult Execute(vfs::FileApi& api, Target& target, const Op& op,
                 std::optional<std::uint64_t> offset, Prng& fill,
                 Scratch& scratch, SpanLog* spans, std::int32_t parent,
                 std::uint64_t op_id) {
  OpResult result;
  const int series = static_cast<int>(target.series);
  const std::uint64_t size = op.size;
  std::uint64_t at = offset.value_or(target.pos);
  if (at + size > target.shadow.size()) at = 0;
  if (target.reseek || at != target.pos) {
    ScopedSpan span(spans, "vfs.SetFilePointer", parent, series, op_id);
    auto moved = api.SetFilePointer(target.id, static_cast<std::int64_t>(at),
                                    vfs::SeekOrigin::kBegin);
    if (!moved.ok() || *moved != at) {
      Fail(result, moved.ok() ? afs::InternalError("seek landed elsewhere")
                              : moved.status());
      result.start_ns = result.end_ns = NowNs();
      target.reseek = true;
      return result;
    }
    target.pos = at;
    target.reseek = false;
  }

  const std::uint32_t segments = std::max<std::uint32_t>(op.segments, 1);
  const std::size_t seg_bytes = size / segments;
  ByteSpan payload;
  if (op.kind == OpKind::kWrite || op.kind == OpKind::kGather) {
    payload = ByteSpan(WritePool()).subspan(fill.NextBelow(kPoolBytes), size);
  } else if (scratch.out.size() < size) {
    scratch.out.resize(size);
  }
  if (op.kind == OpKind::kScatter) {
    scratch.out_segs.clear();
    for (std::uint32_t i = 0; i < segments; ++i) {
      scratch.out_segs.emplace_back(scratch.out.data() + i * seg_bytes,
                                    seg_bytes);
    }
  } else if (op.kind == OpKind::kGather) {
    scratch.in_segs.clear();
    for (std::uint32_t i = 0; i < segments; ++i) {
      scratch.in_segs.push_back(payload.subspan(i * seg_bytes, seg_bytes));
    }
  }

  afs::Result<std::size_t> moved = std::size_t{0};
  {
    static constexpr const char* kNames[] = {
        "vfs.ReadFile", "vfs.WriteFile", "vfs.ReadFileScatter",
        "vfs.WriteFileGather"};
    ScopedSpan span(spans, kNames[static_cast<int>(op.kind)], parent, series,
                    op_id);
    result.start_ns = NowNs();
    switch (op.kind) {
      case OpKind::kRead:
        moved = api.ReadFile(target.id, MutableByteSpan(scratch.out).first(size));
        break;
      case OpKind::kWrite:
        moved = api.WriteFile(target.id, payload);
        break;
      case OpKind::kScatter:
        moved = api.ReadFileScatter(
            target.id, std::span<MutableByteSpan>(scratch.out_segs));
        break;
      case OpKind::kGather:
        moved = api.WriteFileGather(target.id,
                                    std::span<ByteSpan>(scratch.in_segs));
        break;
    }
    result.end_ns = NowNs();
  }
  if (!moved.ok()) {
    Fail(result, moved.status());
    target.reseek = true;
    return result;
  }

  ScopedSpan check(spans, "bench.check", parent, series, op_id);
  result.ok = true;
  if (*moved != size) {
    result.mismatch = true;
  } else if (op.kind == OpKind::kRead || op.kind == OpKind::kScatter) {
    result.mismatch =
        std::memcmp(scratch.out.data(), target.shadow.data() + at, size) != 0;
  } else {
    std::memcpy(target.shadow.data() + at, payload.data(), size);
  }
  if (result.mismatch) {
    target.reseek = true;
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 5) {
      std::fprintf(stderr,
                   "perfbench: read-back mismatch on %s (%s, %llu B at %llu)\n",
                   target.path.c_str(), SeriesName(target.series),
                   static_cast<unsigned long long>(size),
                   static_cast<unsigned long long>(at));
    }
  } else {
    target.pos = at + size;
  }
  return result;
}

void Record(RunStats& stats, Series series, const Op& op,
            const OpResult& result, std::int64_t from_ns) {
  ++stats.attempted;
  ++stats.data_ops;
  if (!result.ok) {
    ++(result.shed ? stats.shed : stats.failed);
    return;
  }
  if (result.mismatch) {
    ++stats.mismatched;
    return;
  }
  SeriesStats& s = stats.series[static_cast<int>(series)];
  const std::int64_t ns = std::max<std::int64_t>(result.end_ns - from_ns, 0);
  s.ns.push_back(static_cast<std::uint32_t>(
      std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
  s.window.push_back(stats.Complete(result.end_ns));
  s.bytes += op.size;
  s.busy_ns += static_cast<double>(ns);
}

afs::core::AdmissionGate::Limits Workload::AdmitLimits() const {
  // Handles without per-link budgets still pass their loop shard's gate,
  // whose default is a 256 MiB queue-bytes budget (core/loop_host.cpp).
  afs::core::AdmissionGate::Limits limits;
  limits.max_queue_bytes = std::size_t{256} << 20;
  return limits;
}

// ---------------------------------------------------------------------------
// Workloads

namespace {

constexpr std::uint32_t kSmallSizes[] = {8, 32, 128, 512, 2048};
constexpr std::uint32_t kFleetSizes[] = {16, 32, 64, 128, 256, 512};

template <std::size_t N>
std::uint32_t Pick(Prng& rng, const std::uint32_t (&sizes)[N]) {
  return sizes[rng.NextBelow(N)];
}

Buffer Content(std::uint64_t seed, std::size_t bytes) {
  Buffer data(bytes);
  Prng rng(seed);
  rng.Fill(MutableByteSpan(data));
  return data;
}

// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Sample(Prng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Common plumbing: one environment, a target table, the warm-up pass.
class WorkloadBase : public Workload {
 public:
  Env& env() override { return *env_; }
  void Teardown() override {
    for (Target& t : targets_) {
      if (t.id != vfs::kInvalidHandle) (void)env_->api().CloseHandle(t.id);
    }
    targets_.clear();
    env_.reset();
  }

 protected:
  // Opens a target over an already staged file, with its shadow.
  void AddTarget(Series series, const std::string& path, Buffer shadow) {
    Target t;
    t.series = series;
    t.path = path;
    t.shadow = std::move(shadow);
    t.id = OpenOrDie(*env_, path);
    targets_.push_back(std::move(t));
  }

  // Untimed, checked warm-up ops on every target; a failure here is a
  // correctness failure like any other.
  void WarmUp(int ops_per_target, std::uint64_t seed) {
    Prng rng(seed ^ 0xA11CE), fill(seed ^ 0xF111);
    Scratch scratch;
    for (Target& t : targets_) {
      for (int i = 0; i < ops_per_target; ++i) {
        const Op op = SampleOp(rng);
        const OpResult r = Execute(env_->api(), t, op, std::nullopt, fill,
                                   scratch, nullptr, -1, 0);
        if (!r.ok || r.mismatch) Die("warm-up op failed on " + t.path);
      }
    }
  }

  std::unique_ptr<Env> env_;
  std::vector<Target> targets_;
};

// Runs `step` (which picks a target and an op and executes it) in a closed
// loop on the calling thread until the deadline or `max_ops`.
template <typename Step>
RunStats ClosedLoop(double seconds, std::uint64_t max_ops, Step step) {
  RunStats stats;
  const std::int64_t start = stats.start_ns = NowNs();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0; i < max_ops; ++i) {
    if (NowNs() >= deadline) break;
    step(stats, i);
  }
  stats.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  return stats;
}

// --- local-small: Fig 6(c), one of each strategy plus a passive file -------

class LocalSmall final : public WorkloadBase {
 public:
  const WorkloadInfo& info() const override { return info_; }

  std::uint64_t Setup(const std::string& root, std::uint64_t seed) override {
    env_ = std::make_unique<Env>(root, afs::Micros(0), false);
    const Series kinds[] = {Series::kProcess, Series::kThread, Series::kDll,
                            Series::kLoop, Series::kPassive};
    for (Series s : kinds) {
      const std::string path = std::string("small-") + SeriesName(s) +
                               (s == Series::kPassive ? ".bin" : ".af");
      Buffer data = Content(seed * 31 + static_cast<int>(s), info_.data_bytes);
      afs::sentinel::SentinelSpec spec;
      if (s != Series::kPassive) spec = NullSpec(StrategyOf(s));
      Stage(*env_, path, spec, ByteSpan(data));
      AddTarget(s, path, std::move(data));
    }
    WarmUp(200, seed);
    return targets_.size();
  }

  Op SampleOp(Prng& rng) const override {
    Op op;
    op.kind = rng.NextBelow(10) < 7 ? OpKind::kRead : OpKind::kWrite;
    op.size = Pick(rng, kSmallSizes);
    return op;
  }

  RunStats Run(std::uint64_t seed, double seconds, SpanLog* spans,
               std::uint64_t max_ops) override {
    Prng tape(seed), fill(seed ^ 0xF111);
    Scratch scratch;
    return ClosedLoop(seconds, max_ops, [&](RunStats& stats, std::uint64_t i) {
      Target& t = targets_[tape.NextBelow(targets_.size())];
      const Op op = SampleOp(tape);
      ScopedSpan root(spans, "op", -1, static_cast<int>(t.series), i);
      const OpResult r = Execute(env_->api(), t, op, std::nullopt, fill,
                                 scratch, spans, root.index(), i);
      Record(stats, t.series, op, r, r.start_ns);
    });
  }

 private:
  WorkloadInfo info_{"local-small", false, 64 * 1024};
};

// --- remote-open: Fig 6(a) plus the lease cache, open loop ---------------------

class RemoteOpen final : public WorkloadBase {
 public:
  // Fixed arrival rate, below what today's uncached ~1.2 ms ops sustain.
  static constexpr double kRatePerSec = 400;
  static constexpr std::uint32_t kCachedFileBytes = 256 * 1024;
  static constexpr std::size_t kBlock = 4096;

  const WorkloadInfo& info() const override { return info_; }

  std::uint64_t Setup(const std::string& root, std::uint64_t seed) override {
    env_ = std::make_unique<Env>(root, afs::Micros(25), true);
    const Series kinds[] = {Series::kProcess, Series::kThread, Series::kDll,
                            Series::kCached};
    for (Series s : kinds) {
      const std::string remote = std::string("bench/") + SeriesName(s);
      const std::uint32_t bytes =
          s == Series::kCached ? kCachedFileBytes : info_.data_bytes;
      Buffer data = Content(seed * 37 + static_cast<int>(s), bytes);
      afs::Status put = env_->files().Put(remote, ByteSpan(data));
      if (!put.ok()) Die("remote put: " + put.ToString());
      afs::sentinel::SentinelSpec spec;
      spec.name = "remote";
      spec.config["url"] = env_->remote_url();
      spec.config["file"] = remote;
      spec.config["strategy"] =
          std::string(afs::core::StrategyName(StrategyOf(s)));
      if (s == Series::kCached) {
        // A budget of a quarter of the file: Zipf offsets give mostly hits
        // plus a steady stream of misses.
        spec.config["cache"] = "read";
        spec.config["cache_bytes"] = std::to_string(kCachedFileBytes / 4);
        spec.config["lease_ms"] = "1000";
      } else {
        spec.config["cache"] = "none";
      }
      const std::string path = std::string("remote-") + SeriesName(s) + ".af";
      Stage(*env_, path, spec, {});
      AddTarget(s, path, std::move(data));
    }
    WarmUp(20, seed);
    return targets_.size();
  }

  Op SampleOp(Prng& rng) const override {
    Op op;
    op.kind = rng.NextBelow(10) < 8 ? OpKind::kRead : OpKind::kWrite;
    op.size = Pick(rng, kSmallSizes);
    return op;
  }

  RunStats Run(std::uint64_t seed, double seconds, SpanLog* spans,
               std::uint64_t max_ops) override {
    Prng tape(seed), fill(seed ^ 0xF111);
    Scratch scratch;
    const Zipf blocks(kCachedFileBytes / kBlock, 1.1);
    RunStats stats;
    const auto interval = static_cast<std::int64_t>(1e9 / kRatePerSec);
    const std::int64_t start = stats.start_ns = NowNs() + 1'000'000;
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t i = 0; i < max_ops; ++i) {
      const std::int64_t due = start + static_cast<std::int64_t>(i) * interval;
      if (due >= deadline) break;
      // Sleep to just short of the due time, then spin: the generator's
      // own wake-up jitter would otherwise read as op latency.
      for (std::int64_t now = NowNs(); now < due; now = NowNs()) {
        if (due - now > 200'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 150'000));
        }
      }
      stats.gen_lag_ns.push_back(
          static_cast<std::uint32_t>(std::max<std::int64_t>(NowNs() - due, 0)));
      Target& t = targets_[tape.NextBelow(targets_.size())];
      Op op = SampleOp(tape);
      std::optional<std::uint64_t> offset;
      if (t.series == Series::kCached) {
        // The cached handle only reads: under cache=read every write
        // drops the whole client cache (core/cache.cpp), so this handle
        // measures the lease-checked read path.
        op.kind = OpKind::kRead;
        offset = blocks.Sample(tape) * kBlock +
                 tape.NextBelow(kBlock - op.size + 1);
      }
      ScopedSpan root(spans, "op", -1, static_cast<int>(t.series), i);
      const OpResult r = Execute(env_->api(), t, op, offset, fill, scratch,
                                 spans, root.index(), i);
      Record(stats, t.series, op, r, due);
    }
    stats.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
    return stats;
  }

 private:
  WorkloadInfo info_{"remote-open", true, 64 * 1024};
};

// --- loop-fleet: many users on one event-loop host -------------------------------

class LoopFleet final : public WorkloadBase {
 public:
  static constexpr int kBundles = 16;
  static constexpr int kHandles = 4096;
  static constexpr int kThreads = 2;
  // Far above the offered load: Admit/Release runs on every op, nothing
  // sheds.
  static constexpr std::uint64_t kAdmitBps = 4'000'000'000;

  const WorkloadInfo& info() const override { return info_; }

  afs::core::AdmissionGate::Limits AdmitLimits() const override {
    afs::core::AdmissionGate::Limits limits;
    limits.rate_bytes_per_second = kAdmitBps;
    return limits;
  }

  std::uint64_t Setup(const std::string& root, std::uint64_t seed) override {
    env_ = std::make_unique<Env>(root, afs::Micros(0), false);
    afs::sentinel::SentinelSpec spec = NullSpec(Strategy::kLoop);
    spec.config["admit_bps"] = std::to_string(kAdmitBps);
    contents_.clear();
    for (int b = 0; b < kBundles; ++b) {
      contents_.push_back(Content(seed * 41 + b, info_.data_bytes));
      Stage(*env_, BundlePath(b), spec, ByteSpan(contents_.back()));
    }
    targets_.reserve(kHandles);
    for (int h = 0; h < kHandles; ++h) {
      AddTarget(Series::kLoop, BundlePath(h % kBundles),
                contents_[h % kBundles]);
    }
    WarmUp(1, seed);
    return targets_.size();
  }

  Op SampleOp(Prng& rng) const override {
    Op op;
    op.kind = rng.NextBelow(10) < 8 ? OpKind::kRead : OpKind::kWrite;
    op.size = Pick(rng, kFleetSizes);
    return op;
  }

  RunStats Run(std::uint64_t seed, double seconds, SpanLog* spans,
               std::uint64_t max_ops) override {
    RunStats parts[kThreads];
    std::unique_ptr<SpanLog> logs[kThreads];
    std::vector<std::thread> threads;
    for (int k = 0; k < kThreads; ++k) {
      if (spans != nullptr) {
        logs[k] = std::make_unique<SpanLog>(spans->spans().capacity() /
                                            kThreads);
      }
      threads.emplace_back([&, k] {
        parts[k] = RunClient(k, seed, seconds, logs[k].get(),
                             max_ops / kThreads);
      });
    }
    for (std::thread& t : threads) t.join();
    RunStats stats;
    for (int k = 0; k < kThreads; ++k) {
      stats.Merge(std::move(parts[k]));
      if (spans != nullptr) spans->Append(*logs[k]);
    }
    return stats;
  }

 private:
  static std::string BundlePath(int b) {
    char name[32];
    std::snprintf(name, sizeof(name), "fleet-%02d.af", b);
    return name;
  }

  // Client `k` owns handles [k*N/T, (k+1)*N/T): a handle's file pointer is
  // only ever moved by one thread, so its shadow stays exact.
  RunStats RunClient(int k, std::uint64_t seed, double seconds,
                     SpanLog* spans, std::uint64_t max_ops) {
    constexpr int kPerThread = kHandles / kThreads;
    Prng tape(seed * 1000003 + k), fill(seed ^ (0xF111 + k));
    Scratch scratch;
    const Zipf zipf(kPerThread, 1.0);
    const std::uint64_t id_base = static_cast<std::uint64_t>(k) << 40;
    vfs::FileApi& api = env_->api();
    return ClosedLoop(seconds, max_ops, [&](RunStats& stats,
                                            std::uint64_t i) {
      const int h = k * kPerThread + static_cast<int>(zipf.Sample(tape));
      Target& t = targets_[h];
      const Op op = SampleOp(tape);
      const std::uint64_t op_id = id_base + i;
      if (tape.NextBelow(100) == 0) {
        Churn(stats, t, op, h % kBundles, fill, scratch, spans, op_id);
        return;
      }
      ScopedSpan root(spans, "op", -1, static_cast<int>(t.series), op_id);
      const OpResult r = Execute(api, t, op, std::nullopt, fill, scratch,
                                 spans, root.index(), op_id);
      Record(stats, t.series, op, r, r.start_ns);
    });
  }

  // Closes the handle, opens a fresh one on the same bundle and reads its
  // head: one open_p50_us sample.
  void Churn(RunStats& stats, Target& t, Op op, int bundle, Prng& fill,
             Scratch& scratch, SpanLog* spans, std::uint64_t op_id) {
    vfs::FileApi& api = env_->api();
    ++stats.attempted;
    ScopedSpan root(spans, "open", -1, -1, op_id);
    const std::int64_t start = NowNs();
    afs::Status closed;
    {
      ScopedSpan span(spans, "vfs.CloseHandle", root.index(), -1, op_id);
      closed = api.CloseHandle(t.id);
    }
    t.id = vfs::kInvalidHandle;
    afs::Result<vfs::HandleId> opened = vfs::kInvalidHandle;
    {
      ScopedSpan span(spans, "vfs.OpenFile", root.index(), -1, op_id);
      opened = api.OpenFile(t.path, vfs::OpenMode::kReadWrite);
    }
    if (!closed.ok() || !opened.ok()) {
      const afs::Status& bad = closed.ok() ? opened.status() : closed;
      ++(bad.code() == afs::ErrorCode::kOverloaded ? stats.shed
                                                   : stats.failed);
      // A handle that failed to reopen stays invalid: every later op on it
      // fails and is counted.
      if (opened.ok()) t.id = *opened;
      t.reseek = true;
      return;
    }
    t.id = *opened;
    t.shadow = contents_[bundle];
    t.pos = 0;
    t.reseek = false;
    op.kind = OpKind::kRead;
    const OpResult r = Execute(api, t, op, std::nullopt, fill, scratch, spans,
                               root.index(), op_id);
    if (!r.ok) {
      ++(r.shed ? stats.shed : stats.failed);
    } else if (r.mismatch) {
      ++stats.mismatched;
    } else {
      const std::int64_t end = NowNs();
      stats.open_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(end - start, 0xFFFFFFFFll)));
      stats.Complete(end);
    }
  }

  WorkloadInfo info_{"loop-fleet", false, 4 * 1024};
  std::vector<Buffer> contents_;
};

// --- bulk-shm: the ipc layer carrying bytes ----------------------------------------

class BulkShm final : public WorkloadBase {
 public:
  const WorkloadInfo& info() const override { return info_; }

  std::uint64_t Setup(const std::string& root, std::uint64_t seed) override {
    env_ = std::make_unique<Env>(root, afs::Micros(0), false);
    const Series kinds[] = {Series::kProcess, Series::kDll};
    for (Series s : kinds) {
      const std::string path = std::string("bulk-") + SeriesName(s) + ".af";
      Buffer data = Content(seed * 43 + static_cast<int>(s), info_.data_bytes);
      Stage(*env_, path, NullSpec(StrategyOf(s)), ByteSpan(data));
      AddTarget(s, path, std::move(data));
    }
    WarmUp(40, seed);
    return targets_.size();
  }

  Op SampleOp(Prng& rng) const override {
    static constexpr OpKind kKinds[] = {OpKind::kRead, OpKind::kWrite,
                                        OpKind::kScatter, OpKind::kGather};
    Op op;
    op.kind = kKinds[rng.NextBelow(4)];
    op.size = 64 * 1024;
    op.segments =
        (op.kind == OpKind::kScatter || op.kind == OpKind::kGather) ? 8 : 1;
    return op;
  }

  RunStats Run(std::uint64_t seed, double seconds, SpanLog* spans,
               std::uint64_t max_ops) override {
    Prng tape(seed), fill(seed ^ 0xF111);
    Scratch scratch;
    return ClosedLoop(seconds, max_ops, [&](RunStats& stats, std::uint64_t i) {
      Target& t = targets_[tape.NextBelow(targets_.size())];
      const Op op = SampleOp(tape);
      ScopedSpan root(spans, "op", -1, static_cast<int>(t.series), i);
      const OpResult r = Execute(env_->api(), t, op, std::nullopt, fill,
                                 scratch, spans, root.index(), i);
      Record(stats, t.series, op, r, r.start_ns);
    });
  }

 private:
  WorkloadInfo info_{"bulk-shm", false, 1024 * 1024};
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"local-small", "remote-open",
                                                 "loop-fleet", "bulk-shm"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "local-small") return std::make_unique<LocalSmall>();
  if (name == "remote-open") return std::make_unique<RemoteOpen>();
  if (name == "loop-fleet") return std::make_unique<LoopFleet>();
  if (name == "bulk-shm") return std::make_unique<BulkShm>();
  return nullptr;
}

}  // namespace perfbench
