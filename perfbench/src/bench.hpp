// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The benchmark links the program's libraries, drives the legacy-application
// surface (vfs::FileApi) with a seeded op tape, times every op on its own,
// and checks every read against a shadow copy of the handle's data part.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "afs.hpp"
#include "core/overload.hpp"
#include "util/prng.hpp"

namespace perfbench {

using afs::Buffer;
using afs::ByteSpan;
using afs::MutableByteSpan;

inline std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Allocation counting: the benchmark binary replaces operator new
// (main.cpp).  Counting is off except inside the allocation probe, so the
// timed runs pay one relaxed load per allocation.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<std::uint64_t> g_allocs;

// One timed series per handle kind.
enum class Series : int {
  kProcess = 0,  // process-with-control strategy
  kThread,       // DLL-with-thread strategy
  kDll,          // DLL-only (direct) strategy
  kLoop,         // event-loop host strategy
  kCached,       // thread strategy with a cache=read lease
  kPassive,      // plain host file through FileApi
  kCount,
};
inline constexpr int kSeriesCount = static_cast<int>(Series::kCount);
const char* SeriesName(Series series);

enum class OpKind : std::uint8_t { kRead, kWrite, kScatter, kGather };

// One tape step, before it is bound to a handle.
struct Op {
  OpKind kind = OpKind::kRead;
  std::uint32_t size = 0;      // total payload bytes
  std::uint32_t segments = 1;  // >1 for scatter/gather
};

// ---- results -------------------------------------------------------------

// Quantile of `values` (sorted in place) where at least ten samples lie
// beyond it; nullopt when the sample is too small.
std::optional<double> Percentile(std::vector<std::uint32_t>& values,
                                 double q);
std::optional<double> Percentile(std::vector<double>& values, double q);

struct SeriesStats {
  std::vector<std::uint32_t> ns;      // per-op latency
  std::vector<std::uint16_t> window;  // the window each op completed in
  double bytes = 0;                   // payload bytes moved
  double busy_ns = 0;                 // sum of op latencies
};

// Everything one pass over the tape produced.  The pass is also cut into
// one-second windows, so the gated metrics can be medians over windows: a
// burst of outside load then moves one window, not the result.
struct RunStats {
  static constexpr std::int64_t kWindowNs = 1'000'000'000;

  std::int64_t start_ns = 0;
  std::vector<std::uint64_t> window_ops;     // completed ops per window
  std::vector<std::int64_t> window_last_ns;  // last completion per window
  SeriesStats series[kSeriesCount];
  std::vector<std::uint32_t> open_ns;     // open+read+close samples
  std::vector<std::uint32_t> gen_lag_ns;  // open loop: start - due
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // unexpected status
  std::uint64_t shed = 0;        // typed kOverloaded
  std::uint64_t mismatched = 0;  // read-back differs from the shadow
  std::uint64_t data_ops = 0;
  double elapsed_s = 0;

  // Counts one completed op in the window its end falls in; returns it.
  std::uint16_t Complete(std::int64_t end_ns);
  void Merge(RunStats&& other);
  std::vector<std::uint32_t> Pooled() const;
};

// ---- traced runs -----------------------------------------------------------

// A span recorded by the benchmark around a call into one layer.  Times
// are steady-clock ns; `parent` indexes the same log (-1 = root).
struct SpanRec {
  const char* name;
  std::int32_t parent;
  std::int16_t series;  // -1 = not a data op (probe or open)
  std::uint64_t op_id;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// Spans kept in memory and written out at the end of the run.  Single
// writer (the thread that owns it); full logs drop further spans.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }
  bool full() const { return spans_.size() == spans_.capacity(); }
  // Opens a span and returns its index (or -1 when full).
  std::int32_t Begin(const char* name, std::int32_t parent, int series,
                     std::uint64_t op_id);
  void End(std::int32_t index);
  const std::vector<SpanRec>& spans() const { return spans_; }
  void Append(const SpanLog& other);

 private:
  std::vector<SpanRec> spans_;
};

// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent, int series,
             std::uint64_t op_id)
      : log_(log),
        index_(log ? log->Begin(name, parent, series, op_id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr && index_ >= 0) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

// ---- environment -----------------------------------------------------------

// A sandboxed FileApi + manager, and optionally a socket-served remote
// file server with a modelled service delay.  Everything lives under
// `root`, inside the benchmark's run directory.
class Env {
 public:
  Env(const std::string& root, afs::Micros service_delay, bool with_server);
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  afs::vfs::FileApi& api() { return *api_; }
  afs::core::ActiveFileManager& manager() { return *manager_; }
  afs::net::FileServer& files() { return files_; }
  const std::string& socket_path() const { return socket_path_; }
  std::string remote_url() const { return "sock:" + socket_path_; }
  bool has_server() const { return server_ != nullptr; }

 private:
  std::string root_;
  std::string socket_path_;
  std::unique_ptr<afs::vfs::FileApi> api_;
  afs::net::FileServer files_;
  std::unique_ptr<afs::net::SocketServer> server_;
  afs::core::SocketResolver resolver_;
  std::unique_ptr<afs::core::ActiveFileManager> manager_;
};

// Spec of a memory-cached null sentinel (steady-state op cost: no
// write-back at close, so every fresh open sees the staged content).
afs::sentinel::SentinelSpec NullSpec(afs::core::Strategy strategy);
afs::core::Strategy StrategyOf(Series series);

// Creates an active file (or, with spec.name empty, a passive file).
void Stage(Env& env, const std::string& path,
           const afs::sentinel::SentinelSpec& spec, ByteSpan data);

// Aborts the run with a message (set-up failures are not measurable).
[[noreturn]] void Die(const std::string& what);

// A handle under test with its shadow copy of the data part.
struct Target {
  Series series = Series::kPassive;
  std::string path;
  afs::vfs::HandleId id = afs::vfs::kInvalidHandle;
  Buffer shadow;
  std::uint64_t pos = 0;
  bool reseek = false;
};

afs::vfs::HandleId OpenOrDie(Env& env, const std::string& path);

// Per-thread scratch buffers for op payloads.
struct Scratch {
  Buffer out;
  std::vector<MutableByteSpan> out_segs;
  std::vector<ByteSpan> in_segs;
};

struct OpResult {
  bool ok = false;
  bool shed = false;
  bool mismatch = false;
  std::int64_t start_ns = 0;  // when the FileApi call began
  std::int64_t end_ns = 0;
};

// Runs one tape op against `target` at `offset` (nullopt = the handle's
// sequential position, wrapping to 0 at the end), checks it against the
// shadow, and updates the shadow.  Seeks are made outside the timed call.
OpResult Execute(afs::vfs::FileApi& api, Target& target, const Op& op,
                 std::optional<std::uint64_t> offset, afs::Prng& fill,
                 Scratch& scratch, SpanLog* spans, std::int32_t parent,
                 std::uint64_t op_id);

// Folds one result into `stats` (latency from `from_ns`).
void Record(RunStats& stats, Series series, const Op& op,
            const OpResult& result, std::int64_t from_ns);

// ---- workloads ---------------------------------------------------------------

struct WorkloadInfo {
  std::string name;
  bool open_loop = false;
  std::uint32_t data_bytes = 0;  // data part size probes stage
};

// A workload owns its environment and handles between Setup and Teardown.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const WorkloadInfo& info() const = 0;
  // Builds the environment, stages files, opens handles and warms up.
  // Returns the number of opens attempted.
  virtual std::uint64_t Setup(const std::string& root, std::uint64_t seed) = 0;
  // Runs the tape from `seed` for `seconds`; `spans` non-null = traced.
  virtual RunStats Run(std::uint64_t seed, double seconds, SpanLog* spans,
                       std::uint64_t max_ops) = 0;
  virtual void Teardown() = 0;
  // Draws one op of this workload's size and kind mix (for probes).
  virtual Op SampleOp(afs::Prng& rng) const = 0;
  // Admission limits the workload's handles run under (for probes).
  virtual afs::core::AdmissionGate::Limits AdmitLimits() const;
  // The running environment (valid between Setup and Teardown).
  virtual Env& env() = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

// ---- reporting -----------------------------------------------------------------

// A named result with its unit and a printable note (sample count, base).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

// "<kind> <name> = <value> <unit>  [note]" on stdout.
void PrintMetric(const char* kind, const Metric& metric);

// The result line: one JSON object, the last line of standard output.
void PrintResultJson(bool correct, std::uint64_t attempted,
                     std::uint64_t failed, const std::vector<Metric>& metrics);

// Writes every span as one JSON object per line; returns false on error.
bool WriteSpans(const std::string& path, const SpanLog& spans,
                const std::vector<afs::obs::SpanRecord>& program_spans);

// Prints the per-series self-time table (self time = a span's duration
// minus the part its children cover).
void PrintSelfTimes(const SpanLog& spans);

// ---- probes ------------------------------------------------------------------

// Per-layer metrics keyed by name, plus the probe-side op latencies the
// residuals are computed from.
struct LayerMetrics {
  std::map<std::string, Metric> metrics;
  std::map<Series, double> probe_op_p50_ns;
  void Set(const std::string& name, double value, const char* unit,
           const std::string& note) {
    metrics[name] = Metric{name, value, unit, note};
  }
  double Get(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second.value;
  }
};

// Runs every layer probe with the workload's op sizes and mix.  Probe
// handles live in their own environment under `root`.
void RunProbes(Workload& workload, const std::string& root,
               std::uint64_t seed, SpanLog* spans, LayerMetrics& out);

}  // namespace perfbench
