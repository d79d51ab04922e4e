// Percentiles, metric lines, the JSON result line, span output and the
// self-time table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <tuple>

#include "bench.hpp"

namespace perfbench {

namespace {

template <typename T>
std::optional<double> NearestRank(std::vector<T>& values, double q) {
  const double n = static_cast<double>(values.size());
  // At least ten samples must lie beyond the reported quantile.
  if (values.empty() || (1.0 - q) * n < 10.0) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
}

}  // namespace

std::optional<double> Percentile(std::vector<std::uint32_t>& values,
                                 double q) {
  return NearestRank(values, q);
}

std::optional<double> Percentile(std::vector<double>& values, double q) {
  return NearestRank(values, q);
}

void PrintMetric(const char* kind, const Metric& metric) {
  std::printf("%-9s %-38s = %-14.6g %-6s %s\n", kind, metric.name.c_str(),
              metric.value, metric.unit.c_str(), metric.note.c_str());
}

void PrintResultJson(bool correct, std::uint64_t attempted,
                     std::uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool WriteSpans(const std::string& path, const SpanLog& spans,
                const std::vector<afs::obs::SpanRecord>& program_spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRec>& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"series\": \""
        << (s.series >= 0 ? SeriesName(static_cast<Series>(s.series)) : "-")
        << "\", \"op\": " << s.op_id << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  // The program's own spans carry whole-microsecond timestamps.
  for (const afs::obs::SpanRecord& s : program_spans) {
    out << "{\"program\": true, \"trace\": " << s.trace_id
        << ", \"id\": " << s.span_id << ", \"parent\": " << s.parent_id
        << ", \"pid\": " << s.pid << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << s.start_us
        << ", \"duration_us\": " << s.duration_us << "}\n";
  }
  return static_cast<bool>(out);
}

void PrintSelfTimes(const SpanLog& log) {
  const std::vector<SpanRec>& spans = log.spans();
  // Parents precede their children in the log, so one forward pass finds
  // each span's root and the time its children cover.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    root[i] = s.parent >= 0 ? root[s.parent] : i;
    if (s.parent >= 0 && s.end_ns > 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  // (root span, series, span) -> self times, and each group's total.
  using Key = std::tuple<std::string, int, std::string>;
  std::map<Key, std::vector<double>> self;
  std::map<std::pair<std::string, int>, double> group_total;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (s.end_ns == 0) continue;
    const double ns =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    const std::string top = spans[root[i]].name;
    self[{top, s.series, s.name}].push_back(ns);
    group_total[{top, s.series}] += ns;
  }
  std::printf("self-time table (benchmark spans, ns; share of the group's "
              "total):\n");
  std::printf("  %-18s %-8s %-26s %8s %10s %10s %7s\n", "root", "series",
              "span", "count", "p50", "mean", "share");
  for (auto& [key, values] : self) {
    const auto& [top, series_index, name] = key;
    double sum = 0;
    for (double v : values) sum += v;
    const std::size_t count = values.size();
    const std::optional<double> p50 = Percentile(values, 0.5);
    const std::string p50_text =
        p50 ? std::to_string(static_cast<long long>(*p50)) : "-";
    const char* series =
        series_index >= 0 ? SeriesName(static_cast<Series>(series_index))
                          : "-";
    std::printf("  %-18s %-8s %-26s %8zu %10s %10.0f %6.1f%%\n", top.c_str(),
                series, name.c_str(), count, p50_text.c_str(),
                sum / static_cast<double>(count),
                100.0 * sum / group_total[{top, series_index}]);
  }
}

}  // namespace perfbench
