// Request-scoped trace spans with 64-bit trace ids that cross process
// boundaries.
//
// One application-level operation on an active file fans out through
// several mediation layers: the vfs stub, the strategy link, the sentinel
// (possibly in another process), and sometimes a remote source behind a
// socket.  A trace stitches those layers back into one causal tree:
//
//   trace 4f1d…                           pid   µs
//   └─ afsctl.stats.read            12041  312
//      └─ vfs.read                  12041  298
//         └─ link.roundtrip         12041  290
//            └─ sentinel.read       12057  114   <- crossed the pipe
//               └─ net.socket.call  12057  102   <- remote source
//
// Mechanics: a thread-local (trace_id, span_id) context parents new spans;
// the control protocol carries the pair to the sentinel in the command
// frame, and the sentinel ships its completed spans back in the response
// frame, where the link adopts them into the local TraceLog — see
// docs/PROTOCOL.md §3.4.
//
// Cost model: tracing is off until armed (TraceScope or an inbound traced
// command).  A disarmed Span construction is one relaxed atomic load plus
// a thread-local read — no clock reads, no allocation, no id generation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace afs::obs {

// A completed span.  start_us is steady-clock microseconds (a per-boot
// epoch, comparable across processes on one machine, which is the only
// deployment the reproduction targets).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root of its trace
  std::uint32_t pid = 0;        // process that recorded the span
  std::int64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::string name;
};

// Process-wide arming switch (relaxed atomic; same contract as
// obs::Enabled).  Arming is also implicit on any thread whose current
// context carries a non-zero trace id — that is how a sentinel process
// that never called SetTraceArmed still traces inbound traced commands.
bool TraceArmed() noexcept;
void SetTraceArmed(bool armed) noexcept;

struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

// The calling thread's current span context (zeros when untraced).
TraceContext CurrentContext() noexcept;

// Fresh process-unique 64-bit id (never 0).
std::uint64_t NewTraceId() noexcept;

// Bounded process-wide sink of completed spans (oldest dropped first).
class TraceLog {
 public:
  static TraceLog& Global();

  void Append(SpanRecord record);
  void AppendAll(std::vector<SpanRecord> records);
  std::vector<SpanRecord> Snapshot() const;
  void Clear();

 private:
  TraceLog() = default;
  static constexpr std::size_t kCapacity = 8192;

  mutable Mutex mu_;
  std::vector<SpanRecord> records_ AFS_GUARDED_BY(mu_);
};

// While alive, spans completed on this thread are collected into `sink`
// instead of the global TraceLog.  The sentinel dispatch loop wraps each
// command in one of these so the spans can ride the response frame back
// to the application process.
class SpanCollectorScope {
 public:
  explicit SpanCollectorScope(std::vector<SpanRecord>* sink) noexcept;
  ~SpanCollectorScope();

  SpanCollectorScope(const SpanCollectorScope&) = delete;
  SpanCollectorScope& operator=(const SpanCollectorScope&) = delete;

 private:
  std::vector<SpanRecord>* saved_;
};

// RAII span.  The default constructor parents on the thread's current
// context (starting a fresh trace if armed and none is active); the
// explicit form parents on a propagated remote context and is armed
// whenever that context is non-zero.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  Span(const char* name, std::uint64_t trace_id,
       std::uint64_t parent_span) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool armed() const noexcept { return armed_; }
  std::uint64_t trace_id() const noexcept { return trace_id_; }
  std::uint64_t span_id() const noexcept { return span_id_; }
  std::uint64_t parent_id() const noexcept { return parent_id_; }

 private:
  void Arm(const char* name, std::uint64_t trace_id,
           std::uint64_t parent_span) noexcept;

  bool armed_ = false;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::int64_t start_us_ = 0;
  const char* name_ = nullptr;
  TraceContext saved_{};
};

// Arms tracing process-wide for its lifetime and opens a root span, so a
// caller (afsctl, a test) can bracket a sequence of file operations into
// one trace.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  std::uint64_t trace_id() const noexcept { return root_.trace_id(); }

 private:
  bool was_armed_;
  Span root_;
};

// Wire codec for the span list that ends every control-response frame.
// Decode caps the list (kMaxWireSpans) and fails closed on truncation;
// the caller (control.cpp) owns the frame's version byte.
inline constexpr std::size_t kMaxWireSpans = 256;

void AppendSpans(Buffer& out, const std::vector<SpanRecord>& spans);
bool ReadSpans(ByteReader& reader, std::vector<SpanRecord>& out);

}  // namespace afs::obs
