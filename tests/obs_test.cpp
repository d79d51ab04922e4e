// Tests for the afs::obs observability layer (src/obs/).
//
// Three families:
//   1. Instrument semantics — counters, gauges, and the log2 histogram's
//      bucket layout, quantiles, and snapshot merging.  The quantile and
//      merge cases are seeded property tests in the property_test.cpp
//      style: many independent seeds, every assertion tagged with its
//      seed, so a failure line is a one-number repro.
//   2. Concurrency — a race_stress_test-style hammer on one histogram and
//      the registry (this file carries the tsan label), plus the snapshot
//      invariant count == sum(buckets) under racing recorders.
//   3. Trace plumbing — span parenting, the collector scope, the wire
//      codec for the response frame, and the renderers (including the
//      cycle guards that keep corrupt peer data from recursing forever).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"

namespace afs::obs {
namespace {

// ---- counters & gauges -----------------------------------------------------

TEST(CounterTest, AddAndIncrementAccumulate) {
  Counter counter;
  counter.Add(5);
  EXPECT_EQ(counter.Increment(), 5u);  // pre-increment value, for sampling
  EXPECT_EQ(counter.Value(), 6u);
}

TEST(GaugeTest, SetAndAddTrackLevel) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
}

TEST(EnabledSwitchTest, DisabledSitesRecordNothing) {
  Counter counter;
  Gauge gauge;
  Histogram hist;
  SetEnabled(false);
  counter.Add(7);
  gauge.Add(7);
  hist.Record(7);
  SetEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(hist.Snapshot().count, 0u);
}

// ---- batched op pairs ------------------------------------------------------

TEST(OpPairTest, BatchesUntilSnapshotDrainsThisThread) {
  Registry& registry = Registry::Global();
  Counter& count = registry.GetCounter("test.pair.drain.count");
  Counter& bytes = registry.GetCounter("test.pair.drain.bytes");
  count.ResetForTest();
  bytes.ResetForTest();
  OpPair pair(count, bytes);
  for (int i = 0; i < 10; ++i) {
    (void)pair.CountOp();
    pair.AddBytes(7);
  }
  // Below the flush period, counts sit in this thread's pending slots.
  EXPECT_EQ(count.Value(), 0u);
  // Taking a snapshot publishes the snapshotting thread's own pending.
  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("test.pair.drain.count"), 10u);
  EXPECT_EQ(snap.counters.at("test.pair.drain.bytes"), 70u);
  EXPECT_EQ(count.Value(), 10u);
  EXPECT_EQ(bytes.Value(), 70u);
}

TEST(OpPairTest, FlushesEveryFlushPeriodAndSamplesEverySamplePeriod) {
  Counter count;
  Counter bytes;
  OpPair pair(count, bytes);
  for (std::uint64_t op = 1; op <= 2 * OpPair::kSamplePeriod; ++op) {
    const bool sampled = pair.CountOp();
    EXPECT_EQ(sampled, op % OpPair::kSamplePeriod == 0) << "op " << op;
    pair.AddBytes(1);
  }
  // 512 is a flush boundary, so every count is published; the bytes for
  // the boundary op itself land after its flush (call sites count first,
  // then record the transfer), leaving exactly one byte pending.
  EXPECT_EQ(count.Value(), 2 * OpPair::kSamplePeriod);
  EXPECT_EQ(bytes.Value(), 2 * OpPair::kSamplePeriod - 1);
}

TEST(OpPairTest, ThreadExitPublishesPending) {
  Counter count;
  Counter bytes;
  OpPair pair(count, bytes);
  std::thread recorder([&] {
    for (int i = 0; i < 10; ++i) {
      (void)pair.CountOp();
      pair.AddBytes(3);
    }
  });
  recorder.join();
  // The exiting thread drained its pending into the backing counters.
  EXPECT_EQ(count.Value(), 10u);
  EXPECT_EQ(bytes.Value(), 30u);
}

// ---- histogram bucket layout -----------------------------------------------

TEST(HistogramTest, BucketLayoutIsLog2) {
  // Bucket 0 holds exactly {0}; bucket i>=1 holds [2^(i-1), 2^i).
  EXPECT_EQ(HistogramSnapshot::BucketIndex(0), 0);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1), 1);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(2), 2);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(3), 2);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(4), 3);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1023), 10);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1024), 11);
  // Everything past the covered range clamps into the last bucket.
  EXPECT_EQ(HistogramSnapshot::BucketIndex(~std::uint64_t{0}),
            HistogramSnapshot::kBuckets - 1);
  for (int i = 1; i < HistogramSnapshot::kBuckets - 1; ++i) {
    EXPECT_EQ(HistogramSnapshot::BucketIndex(
                  HistogramSnapshot::BucketLowerBound(i)),
              i);
    EXPECT_EQ(HistogramSnapshot::BucketIndex(
                  HistogramSnapshot::BucketUpperBound(i)),
              i);
  }
}

TEST(HistogramTest, EmptyHistogramQuantilesAreZero) {
  Histogram hist;
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0u);
  EXPECT_EQ(snap.Quantile(1.0), 0u);
}

// ---- seeded property tests -------------------------------------------------

// Workload with the shapes latencies actually take: mostly small values,
// occasional large outliers spanning many buckets.
std::vector<std::uint64_t> RandomLatencies(Prng& prng) {
  std::vector<std::uint64_t> values(1 + prng.NextBelow(2000));
  for (auto& v : values) {
    const auto magnitude = prng.NextBelow(20);  // up to ~2^20 us
    v = prng.NextBelow(std::uint64_t{1} << magnitude);
  }
  return values;
}

// The histogram's accuracy contract: a quantile estimate lies in the same
// power-of-two bucket as the true rank statistic, and count/sum/min/max
// are exact.
TEST(HistogramPropertyTest, QuantileEstimateSharesBucketWithTrueValue) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Prng prng(seed);
    std::vector<std::uint64_t> values = RandomLatencies(prng);

    Histogram hist;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : values) {
      hist.Record(v);
      sum += v;
    }
    std::sort(values.begin(), values.end());

    const HistogramSnapshot snap = hist.Snapshot();
    ASSERT_EQ(snap.count, values.size());
    EXPECT_EQ(snap.sum, sum);
    EXPECT_EQ(snap.min, values.front());
    EXPECT_EQ(snap.max, values.back());

    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      SCOPED_TRACE("q=" + std::to_string(q));
      // Nearest-rank definition, matching Quantile's documentation.
      std::size_t rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(values.size())));
      if (rank == 0) rank = 1;
      const std::uint64_t truth = values[rank - 1];
      const std::uint64_t estimate = snap.Quantile(q);
      EXPECT_EQ(HistogramSnapshot::BucketIndex(estimate),
                HistogramSnapshot::BucketIndex(truth));
      EXPECT_LE(estimate, snap.max);
    }
  }
}

HistogramSnapshot RecordAll(const std::vector<std::uint64_t>& values,
                            std::size_t begin, std::size_t end) {
  Histogram hist;
  for (std::size_t i = begin; i < end; ++i) hist.Record(values[i]);
  return hist.Snapshot();
}

bool SnapshotsEqual(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  if (a.count != b.count || a.sum != b.sum || a.min != b.min ||
      a.max != b.max) {
    return false;
  }
  return std::equal(std::begin(a.buckets), std::end(a.buckets),
                    std::begin(b.buckets));
}

// Merging per-shard snapshots must be associative and agree with a single
// histogram that saw every value — the property the cross-process stats
// surfaces rely on.
TEST(HistogramPropertyTest, SnapshotMergeIsAssociativeEverySeed) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Prng prng(seed * 0x9E3779B9ull);
    const std::vector<std::uint64_t> values = RandomLatencies(prng);
    const std::size_t cut1 = prng.NextBelow(values.size() + 1);
    const std::size_t cut2 =
        cut1 + prng.NextBelow(values.size() - cut1 + 1);

    const HistogramSnapshot s1 = RecordAll(values, 0, cut1);
    const HistogramSnapshot s2 = RecordAll(values, cut1, cut2);
    const HistogramSnapshot s3 = RecordAll(values, cut2, values.size());
    const HistogramSnapshot whole = RecordAll(values, 0, values.size());

    HistogramSnapshot left = s1;   // (s1 + s2) + s3
    left.Merge(s2);
    left.Merge(s3);
    HistogramSnapshot inner = s2;  // s1 + (s2 + s3)
    inner.Merge(s3);
    HistogramSnapshot right = s1;
    right.Merge(inner);

    EXPECT_TRUE(SnapshotsEqual(left, right));
    EXPECT_TRUE(SnapshotsEqual(left, whole));
  }
}

// ---- concurrency -----------------------------------------------------------

// race_stress_test-style hammer: racing recorders on one histogram plus
// racing first-use registration on the registry.  Run under TSan via the
// tsan label; the assertions double as the snapshot-invariant check
// (count == sum of buckets even while recorders race).
TEST(ObsRaceStressTest, ConcurrentRecordersKeepSnapshotConsistent) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  Registry& registry = Registry::Global();
  Histogram& hist = registry.GetHistogram("test.race.latency_us");
  Counter& counter = registry.GetCounter("test.race.count");
  hist.ResetForTest();
  counter.ResetForTest();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &registry] {
      // Same names from every thread: first-use registration races too.
      Histogram& h = registry.GetHistogram("test.race.latency_us");
      Counter& c = registry.GetCounter("test.race.count");
      Prng prng(static_cast<std::uint64_t>(t) + 1);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(prng.NextBelow(1 << 20));
        c.Add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const HistogramSnapshot snap = hist.Snapshot();
  const std::uint64_t expected = kThreads * kPerThread;
  EXPECT_EQ(snap.count, expected);
  EXPECT_EQ(counter.Value(), expected);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, expected);
  EXPECT_GE(snap.max, snap.min);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  Registry& registry = Registry::Global();
  Counter& a = registry.GetCounter("test.registry.same");
  Counter& b = registry.GetCounter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.ResetForTest();
  a.Add(3);
  const Snapshot snap = registry.TakeSnapshot();
  auto it = snap.counters.find("test.registry.same");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_EQ(it->second, 3u);
}

// ---- trace spans -----------------------------------------------------------

TEST(SpanTest, DisarmedSpanRecordsNothing) {
  ASSERT_FALSE(TraceArmed());
  TraceLog::Global().Clear();
  {
    Span span("test.disarmed");
    EXPECT_FALSE(span.armed());
    EXPECT_EQ(CurrentContext().trace_id, 0u);
  }
  EXPECT_TRUE(TraceLog::Global().Snapshot().empty());
}

TEST(SpanTest, TraceScopeParentsNestedSpans) {
  TraceLog::Global().Clear();
  std::uint64_t trace_id = 0;
  std::uint64_t outer_id = 0;
  {
    TraceScope trace("test.root");
    trace_id = trace.trace_id();
    ASSERT_NE(trace_id, 0u);
    Span outer("test.outer");
    outer_id = outer.span_id();
    EXPECT_EQ(outer.trace_id(), trace_id);
    Span inner("test.inner");
    EXPECT_EQ(inner.trace_id(), trace_id);
    // The thread context follows the innermost live span.
    EXPECT_EQ(CurrentContext().span_id, inner.span_id());
  }
  EXPECT_FALSE(TraceArmed());

  const std::vector<SpanRecord> spans = TraceLog::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);  // inner, outer, root — completion order
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[2].name, "test.root");
  EXPECT_EQ(spans[2].parent_id, 0u);
  for (const SpanRecord& span : spans) EXPECT_EQ(span.trace_id, trace_id);
}

TEST(SpanTest, PropagatedContextArmsWithoutGlobalSwitch) {
  // The sentinel-side pattern: no TraceScope anywhere, yet an inbound
  // traced command (non-zero ids off the wire) must produce a span.
  ASSERT_FALSE(TraceArmed());
  std::vector<SpanRecord> collected;
  {
    SpanCollectorScope collector(&collected);
    Span span("test.remote", 0x1234u, 0x5678u);
    EXPECT_TRUE(span.armed());
    // Nested work parents on the propagated span, not on a fresh trace.
    Span nested("test.remote.child");
    EXPECT_EQ(nested.trace_id(), 0x1234u);
    EXPECT_EQ(nested.parent_id(), span.span_id());
  }
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected[0].name, "test.remote.child");
  EXPECT_EQ(collected[1].trace_id, 0x1234u);
  EXPECT_EQ(collected[1].parent_id, 0x5678u);
}

TEST(SpanWireTest, SpanListRoundTripsThroughTheResponseExtension) {
  std::vector<SpanRecord> spans(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].trace_id = 0x1000 + i;
    spans[i].span_id = 0x2000 + i;
    spans[i].parent_id = 0x3000 + i;
    spans[i].pid = static_cast<std::uint32_t>(100 + i);
    spans[i].start_us = static_cast<std::int64_t>(1000000 + i);
    spans[i].duration_us = 7 + i;
    spans[i].name = "span-" + std::to_string(i);
  }
  Buffer wire;
  AppendSpans(wire, spans);

  ByteReader reader{ByteSpan(wire)};
  std::vector<SpanRecord> decoded;
  ASSERT_TRUE(ReadSpans(reader, decoded));
  ASSERT_EQ(decoded.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(decoded[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(decoded[i].span_id, spans[i].span_id);
    EXPECT_EQ(decoded[i].parent_id, spans[i].parent_id);
    EXPECT_EQ(decoded[i].pid, spans[i].pid);
    EXPECT_EQ(decoded[i].start_us, spans[i].start_us);
    EXPECT_EQ(decoded[i].duration_us, spans[i].duration_us);
    EXPECT_EQ(decoded[i].name, spans[i].name);
  }

  // Truncated payload fails closed instead of producing garbage spans.
  ByteReader truncated{ByteSpan(wire.data(), wire.size() - 1)};
  std::vector<SpanRecord> rejected;
  EXPECT_FALSE(ReadSpans(truncated, rejected));
}

TEST(SpanWireTest, EncoderCapsOversizedSpanLists) {
  std::vector<SpanRecord> spans(kMaxWireSpans + 10);
  for (auto& span : spans) span.name = "s";
  Buffer wire;
  AppendSpans(wire, spans);
  ByteReader reader{ByteSpan(wire)};
  std::vector<SpanRecord> decoded;
  ASSERT_TRUE(ReadSpans(reader, decoded));
  EXPECT_EQ(decoded.size(), kMaxWireSpans);
}

// ---- renderers -------------------------------------------------------------

TEST(RenderTest, TextAndJsonContainInstrumentsAndSpans) {
  Snapshot snapshot;
  snapshot.counters["test.render.count"] = 42;
  snapshot.gauges["test.render.gauge"] = -5;
  HistogramSnapshot hist;
  hist.buckets[3] = 2;  // two values in [4, 8)
  hist.count = 2;
  hist.sum = 11;
  hist.min = 4;
  hist.max = 7;
  snapshot.histograms["test.render.latency_us"] = hist;

  std::vector<SpanRecord> spans(2);
  spans[0].trace_id = 0xabc;
  spans[0].span_id = 1;
  spans[0].name = "parent";
  spans[1].trace_id = 0xabc;
  spans[1].span_id = 2;
  spans[1].parent_id = 1;
  spans[1].name = "child";

  const std::string text = RenderText(snapshot, spans);
  EXPECT_NE(text.find("test.render.count 42"), std::string::npos);
  EXPECT_NE(text.find("test.render.gauge -5"), std::string::npos);
  EXPECT_NE(text.find("count=2"), std::string::npos);
  // The child renders nested (deeper indentation) under its parent.
  EXPECT_NE(text.find("\n  parent"), std::string::npos);
  EXPECT_NE(text.find("\n    child"), std::string::npos);

  const std::string json = RenderJson(snapshot, spans);
  EXPECT_NE(json.find("\"test.render.count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.render.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(RenderTest, CyclicSpanGraphsRenderWithoutRecursingForever) {
  // Span ids come off the wire from other processes; corrupt or colliding
  // data can produce self-parents and mutual-parent cycles.  Both must
  // degrade to a truncated tree, not a stack overflow.
  Snapshot snapshot;
  std::vector<SpanRecord> spans(3);
  spans[0].trace_id = 1;
  spans[0].span_id = 10;
  spans[0].parent_id = 10;  // self-parent
  spans[0].name = "self";
  spans[1].trace_id = 1;
  spans[1].span_id = 20;
  spans[1].parent_id = 30;  // 2-cycle with spans[2]
  spans[1].name = "a";
  spans[2].trace_id = 1;
  spans[2].span_id = 30;
  spans[2].parent_id = 20;
  spans[2].name = "b";

  const std::string text = RenderText(snapshot, spans);
  EXPECT_NE(text.find("self"), std::string::npos);
  EXPECT_LT(text.size(), 1u << 20);  // bounded output, i.e. it terminated
}

TEST(RenderTest, JsonEscapesControlCharactersInNames) {
  Snapshot snapshot;
  snapshot.counters["test.\"quoted\"\n"] = 1;
  const std::string json = RenderJson(snapshot, {});
  EXPECT_NE(json.find("\\\"quoted\\\"\\n"), std::string::npos);
}

}  // namespace
}  // namespace afs::obs
