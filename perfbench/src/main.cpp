// afs_perfbench: the repository benchmark program.
//
//   afs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics of one workload; --trace 1
// replays the same tape untraced and then traced, runs the layer probes,
// and reports the per-layer metrics.  Every read is checked against a
// shadow copy; the last line of standard output is the JSON result, and a
// read-back mismatch or unexpected status makes the exit code nonzero.
// perfbench/README.md lists every metric and the layer it belongs to.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "bench.hpp"

// Counting allocator (core.allocs_per_op.*).  The array and nothrow forms
// forward to these; the deletes below pair with the mallocs.
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: afs_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      Usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + key).c_str());
  }
  if (MakeWorkload(args.workload) == nullptr) Usage("unknown workload");
  if (!(args.seconds > 0) || (args.trace != 0 && args.trace != 1)) {
    Usage("--seconds must be positive and --trace 0 or 1");
  }
  return args;
}

std::string Count(std::size_t n, const char* what = "n") {
  return std::string(what) + "=" + std::to_string(n);
}

// Middle value (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Adds `<name>` when the sample supports quantile `q` (and says why not
// otherwise).
void AddQuantile(std::vector<Metric>& out, const std::string& name,
                 std::vector<std::uint32_t> ns, double q) {
  const std::size_t n = ns.size();
  std::optional<double> v = Percentile(ns, q);
  if (v) {
    out.push_back({name, *v / 1e3, "us", Count(n)});
  } else if (n > 0) {
    std::printf("%-9s %-38s   (not reported: n=%zu leaves <10 samples "
                "beyond it)\n", "e2e", name.c_str(), n);
  }
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed + shed + mismatched
  bool correct = true;       // no mismatch, no unexpected status
  void Add(const RunStats& s) {
    attempted += s.attempted;
    failed += s.failed + s.shed + s.mismatched;
    correct = correct && s.failed == 0 && s.mismatched == 0;
  }
};

std::string RunDir() {
  return (std::filesystem::current_path() / ".perfbench" /
          ("run-" + std::to_string(::getpid())))
      .string();
}

struct WindowValues {
  std::vector<double> op_p50_geomean_us;  // per window
  std::vector<double> ops_per_s;          // per window
};

// "<median>" plus the window range, for the gated lines.
void PrintGated(const char* name, const std::vector<double>& values,
                const char* unit) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  std::printf("%-9s %-38s = %-14.6g %-6s median of %zu windows, range "
              "%.6g..%.6g\n",
              "gated", name, Median(values), unit, values.size(),
              values.empty() ? 0 : *lo, values.empty() ? 0 : *hi);
}

// Per full window: the geometric mean over the workload's strategy series
// of each series' p50, and the completed ops per second.
WindowValues PerWindow(const RunStats& stats) {
  const auto windows = static_cast<std::size_t>(stats.elapsed_s);
  std::vector<double> log_sum(windows, 0), ops;
  std::vector<int> series_in(windows, 0);
  int series_count = 0;
  for (int i = 0; i < kSeriesCount; ++i) {
    const SeriesStats& s = stats.series[i];
    if (static_cast<Series>(i) == Series::kPassive || s.ns.empty()) continue;
    ++series_count;
    std::vector<std::vector<std::uint32_t>> by_window(windows);
    for (std::size_t k = 0; k < s.ns.size(); ++k) {
      if (s.window[k] < windows) by_window[s.window[k]].push_back(s.ns[k]);
    }
    for (std::size_t w = 0; w < windows; ++w) {
      if (std::optional<double> p50 = Percentile(by_window[w], 0.5)) {
        log_sum[w] += std::log(*p50 / 1e3);
        ++series_in[w];
      }
    }
  }
  std::vector<double> geomean;
  for (std::size_t w = 0; w < windows; ++w) {
    // A window counts only when every series has a p50 in it.
    if (series_count > 0 && series_in[w] == series_count) {
      geomean.push_back(std::exp(log_sum[w] / series_count));
    }
    // The ops completed in a window over the time between its last
    // completion and the previous window's.
    const std::int64_t from = w == 0 ? stats.start_ns : stats.window_last_ns[w - 1];
    if (w < stats.window_ops.size() && stats.window_last_ns[w] > from) {
      ops.push_back(static_cast<double>(stats.window_ops[w]) * 1e9 /
                    static_cast<double>(stats.window_last_ns[w] - from));
    }
  }
  return WindowValues{geomean, ops};
}

// ---- --trace 0 ---------------------------------------------------------------

constexpr int kSetups = 5;

int RunEndToEnd(const Args& args, std::int64_t process_start_ns) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  const std::string run_dir = RunDir();
  // Set-up is repeated and its median reported; the first one is timed
  // from process start.  The last one stays up for the measurement.
  std::vector<double> setup_s;
  std::uint64_t opens = 0;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t start = k == 0 ? process_start_ns : NowNs();
    opens = wl->Setup(run_dir + "/setup-" + std::to_string(k), args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (k + 1 < kSetups) wl->Teardown();
  }
  RunStats stats = wl->Run(args.seed, args.seconds, nullptr, UINT64_MAX);
  wl->Teardown();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  const WorkloadInfo& info = wl->info();
  std::printf("workload %s seed %llu: %s, %.2f s measured\n",
              info.name.c_str(), static_cast<unsigned long long>(args.seed),
              info.open_loop ? "open loop" : "closed loop", stats.elapsed_s);

  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", Median(setup_s), "s",
                 Count(setup_s.size(), "setups")});
  for (int i = 0; i < kSeriesCount; ++i) {
    const auto series = static_cast<Series>(i);
    if (series == Series::kPassive || stats.series[i].ns.empty()) continue;
    const std::string prefix = std::string(SeriesName(series)) + "_op_";
    AddQuantile(e2e, prefix + "p50_us", stats.series[i].ns, 0.5);
    AddQuantile(e2e, prefix + "p99_us", stats.series[i].ns, 0.99);
  }
  AddQuantile(e2e, "open_p50_us", stats.open_ns, 0.5);
  const WindowValues windows = PerWindow(stats);
  const double ops_per_s = Median(windows.ops_per_s);
  if (!info.open_loop) {
    const std::uint64_t completed = stats.attempted - stats.failed -
                                    stats.shed - stats.mismatched;
    e2e.push_back({"ops_per_s", ops_per_s, "ops/s",
                   Count(completed) + ", median of " +
                       std::to_string(windows.ops_per_s.size()) +
                       " one-second windows"});
  }
  const SeriesStats& process = stats.series[static_cast<int>(Series::kProcess)];
  if (info.name == "bulk-shm" && process.busy_ns > 0) {
    e2e.push_back({"bulk_mb_per_s", process.bytes / process.busy_ns * 1e3,
                   "MB/s", Count(process.ns.size())});
  }
  const std::uint64_t attempted = stats.attempted + opens;
  e2e.push_back(
      {"error_ratio",
       static_cast<double>(stats.failed + stats.shed + stats.mismatched) /
           static_cast<double>(attempted),
       "ratio",
       "attempted=" + std::to_string(attempted) +
           " failed=" + std::to_string(stats.failed) +
           " shed=" + std::to_string(stats.shed) +
           " mismatched=" + std::to_string(stats.mismatched)});
  if (info.open_loop) {
    std::vector<std::uint32_t> lag = stats.gen_lag_ns;
    const std::size_t n = lag.size();
    std::printf("%-9s %-38s = %-14.6g %-6s n=%zu\n", "load",
                "generator_lag_p99_us",
                Percentile(lag, 0.99).value_or(NAN) / 1e3, "us", n);
  }
  for (const Metric& m : e2e) PrintMetric("e2e", m);

  // The gated metrics (BENCHMARK.json), which every workload reports:
  // medians over the run's full one-second windows.
  PrintGated("op_p50_geomean_us", windows.op_p50_geomean_us, "us");
  std::vector<Metric> gated = {
      {"setup_s", Median(setup_s), "s", ""},
      {"op_p50_geomean_us", Median(windows.op_p50_geomean_us), "us", ""},
      {"ops_per_s", ops_per_s, "1/s", ""},
  };
  Totals totals;
  totals.Add(stats);
  PrintResultJson(totals.correct, attempted, totals.failed, gated);
  return totals.correct ? 0 : 1;
}

// ---- --trace 1 ---------------------------------------------------------------

std::uint64_t Delta(const afs::obs::Snapshot& before,
                    const afs::obs::Snapshot& after, const std::string& name) {
  auto value = [&](const afs::obs::Snapshot& s) -> std::uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Base(const char* what, double n) {
  char text[96];
  std::snprintf(text, sizeof(text), "base: %s=%.0f", what, n);
  return text;
}

double SeriesP50(const RunStats& stats, Series s) {
  std::vector<std::uint32_t> ns = stats.series[static_cast<int>(s)].ns;
  return Percentile(ns, 0.5).value_or(0);
}

int RunTraced(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  const std::string run_dir = RunDir();
  const WorkloadInfo& info = wl->info();
  Totals totals;
  const std::uint64_t opens = wl->Setup(run_dir + "/setup", args.seed);
  totals.attempted += opens;

  // Phase A: the tape untraced, with counter snapshots around it.
  const double phase_s = std::max(0.5, args.seconds * 0.3);
  afs::obs::Registry& registry = afs::obs::Registry::Global();
  const afs::obs::Snapshot before = registry.TakeSnapshot();
  RunStats plain = wl->Run(args.seed, phase_s, nullptr, UINT64_MAX);
  const afs::obs::Snapshot after = registry.TakeSnapshot();
  totals.Add(plain);

  // Phase B: the same tape traced with the benchmark's spans.
  SpanLog spans(std::size_t{1} << 19);
  RunStats traced =
      wl->Run(args.seed, phase_s, &spans, spans.spans().capacity() / 6);
  totals.Add(traced);

  // Phase C: a short stretch with the program's own spans armed too.
  afs::obs::TraceLog::Global().Clear();
  afs::obs::SetTraceArmed(true);
  RunStats armed = wl->Run(args.seed, 0.2, nullptr, 2000);
  afs::obs::SetTraceArmed(false);
  const std::vector<afs::obs::SpanRecord> program_spans =
      afs::obs::TraceLog::Global().Snapshot();
  totals.Add(armed);

  LayerMetrics layers;
  RunProbes(*wl, run_dir + "/probes", args.seed, &spans, layers);
  wl->Teardown();
  const afs::obs::Snapshot end = registry.TakeSnapshot();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  // Spans are written to the run's trace directory and kept.
  const std::filesystem::path trace_dir =
      std::filesystem::current_path() / ".perfbench" / "traces";
  std::filesystem::create_directories(trace_dir, ec);
  const std::string span_file =
      (trace_dir / (info.name + "-seed" + std::to_string(args.seed) +
                    ".spans.jsonl"))
          .string();
  const bool wrote = WriteSpans(span_file, spans, program_spans);

  std::printf("workload %s seed %llu traced: %zu benchmark spans, %zu "
              "program spans (whole-us resolution) -> %s%s\n",
              info.name.c_str(), static_cast<unsigned long long>(args.seed),
              spans.spans().size(), program_spans.size(), span_file.c_str(),
              wrote ? "" : " (write failed)");
  PrintSelfTimes(spans);

  // Program spans by name (the program's own layers, whole microseconds).
  std::map<std::string, std::vector<double>> by_name;
  for (const afs::obs::SpanRecord& s : program_spans) {
    by_name[s.name].push_back(static_cast<double>(s.duration_us));
  }
  std::printf("program spans (armed stretch; us, whole-us resolution):\n");
  for (auto& [name, values] : by_name) {
    const std::size_t n = values.size();
    std::printf("  %-28s n=%-7zu p50=%s\n", name.c_str(), n,
                Percentile(values, 0.5)
                    ? std::to_string(*Percentile(values, 0.5)).c_str()
                    : "n/a");
  }

  // Counter ratios over phase A.
  std::uint64_t link_ops = 0;
  for (int i = 0; i < kSeriesCount; ++i) {
    if (static_cast<Series>(i) != Series::kPassive) {
      link_ops += plain.series[i].ns.size();
    }
  }
  const double data_ops = static_cast<double>(plain.data_ops);
  const auto n_of = [&](Series s) {
    return static_cast<double>(plain.series[static_cast<int>(s)].ns.size());
  };
  const double loop_ops = n_of(Series::kLoop) + plain.open_ns.size();
  const double cached_ops = n_of(Series::kCached);
  const double process_ops = n_of(Series::kProcess);
  const auto d = [&](const char* name) {
    return static_cast<double>(Delta(before, after, name));
  };

  layers.Set("core.link.roundtrips_per_op",
             Ratio(d("core.link.roundtrips"), static_cast<double>(link_ops)),
             "count", Base("active-handle ops", static_cast<double>(link_ops)));
  const double hits = d("core.cache.hits"), misses = d("core.cache.misses");
  layers.Set("core.cache.hit_ratio", Ratio(hits, hits + misses), "ratio",
             Base("lookups", hits + misses));
  layers.Set("core.cache.lease_renews_per_kop",
             Ratio(1000 * d("core.cache.lease_renews"), cached_ops), "count",
             Base("cached ops", cached_ops));
  const double admitted = d("core.overload.admitted"),
               shed = d("core.overload.shed");
  layers.Set("core.overload.shed_ratio", Ratio(shed, admitted + shed), "ratio",
             Base("admissions", admitted + shed));
  const double wakeups = d("core.loop.wakeups");
  layers.Set("core.loop.wakeups_per_op", Ratio(wakeups, loop_ops), "count",
             Base("loop ops", loop_ops));
  layers.Set("core.loop.dispatches_per_wakeup",
             Ratio(d("core.loop.dispatches"), wakeups), "count",
             Base("wakeups", wakeups));
  layers.Set("core.supervisor.restarts",
             static_cast<double>(
                 Delta(before, end, "core.supervisor.restarts")),
             "count", "whole traced run; must read 0");
  layers.Set("ipc.shm.futex_waits_per_op",
             Ratio(d("ipc.shm.futex_waits"), process_ops), "count",
             Base("process ops", process_ops) + ", client side");
  layers.Set("ipc.shm.fallbacks", d("ipc.shm.fallbacks"), "count",
             "untraced tape, client side");
  layers.Set("net.socket.calls_per_op", Ratio(d("net.socket.calls"), data_ops),
             "count", Base("data ops", data_ops) + ", in-process clients");
  layers.Set("net.socket.retries", d("net.socket.retries"), "count",
             "untraced tape");

  std::vector<std::uint32_t> lag = plain.gen_lag_ns;
  layers.Set("bench.gen_lag_p99_us",
             info.open_loop ? Percentile(lag, 0.99).value_or(0) / 1e3 : 0,
             "us",
             info.open_loop ? Count(lag.size()) : "closed loop: no schedule");

  // Trace overhead: traced p50 over untraced p50, per series and pooled.
  for (int i = 0; i < kSeriesCount; ++i) {
    const auto s = static_cast<Series>(i);
    const double base = SeriesP50(plain, s), with = SeriesP50(traced, s);
    if (base > 0 && with > 0) {
      PrintMetric("trace", {std::string("bench.trace_overhead_ratio.") +
                                SeriesName(s),
                            with / base, "ratio", ""});
    }
  }
  std::vector<std::uint32_t> pooled_plain = plain.Pooled();
  std::vector<std::uint32_t> pooled_traced = traced.Pooled();
  const double p_plain = Percentile(pooled_plain, 0.5).value_or(0);
  const double p_traced = Percentile(pooled_traced, 0.5).value_or(0);
  layers.Set("bench.trace_overhead_ratio", Ratio(p_traced, p_plain), "ratio",
             "pooled op p50, traced over untraced");

  // Residuals: the share of a strategy's p50 that its probes leave
  // unexplained.  The workload's own series is used where it has one,
  // else the probe handle's.
  const auto p50_ns = [&](Series s) {
    const double own = SeriesP50(plain, s);
    return own > 0 ? own : layers.probe_op_p50_ns[s];
  };
  const double dll = p50_ns(Series::kDll);
  const double process = p50_ns(Series::kProcess);
  const double thread = p50_ns(Series::kThread);
  const double explained_process = dll +
                                   layers.Get("ipc.pipe_rtt_p50_us") * 1e3 +
                                   layers.Get("sentinel.codec_ns_per_op");
  const double explained_thread =
      dll + layers.Get("ipc.rendezvous_rtt_p50_us") * 1e3;
  layers.Set("bench.residual_ratio.process",
             process > 0 ? 1 - explained_process / process : 0, "ratio",
             "1 - (dll p50 + pipe rtt + codec) / process p50");
  layers.Set("bench.residual_ratio.thread",
             thread > 0 ? 1 - explained_thread / thread : 0, "ratio",
             "1 - (dll p50 + rendezvous rtt) / thread p50");

  std::vector<Metric> out;
  for (const auto& [name, metric] : layers.metrics) {
    PrintMetric("layer", metric);
    out.push_back(metric);
  }
  PrintResultJson(totals.correct, totals.attempted, totals.failed, out);
  return totals.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t process_start_ns = perfbench::NowNs();
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  // Output is read line by line: flush each line.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return args.trace == 0 ? perfbench::RunEndToEnd(args, process_start_ns)
                         : perfbench::RunTraced(args);
}
