// Layer probes: each calls one layer's public functions directly, with
// the workload's own op sizes and mix, so a probe value and the
// end-to-end metric it should move describe the same traffic.
#include <algorithm>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "core/event_loop.hpp"
#include "core/links.hpp"
#include "ipc/framing.hpp"
#include "ipc/process.hpp"
#include "ipc/shm_ring.hpp"
#include "sentinel/control.hpp"

namespace perfbench {
namespace {

using afs::Micros;
using afs::Prng;
using afs::sentinel::ControlMessage;
using afs::sentinel::ControlOp;
using afs::sentinel::ControlResponse;
namespace vfs = afs::vfs;

constexpr Micros kIoTimeout{5'000'000};

// Spans and ids for one probe: a root span per probe, a child per call.
class ProbeTrace {
 public:
  ProbeTrace(SpanLog* spans, const char* name)
      : spans_(spans), root_(spans, name, -1, -1, NextId()) {}
  SpanLog* spans() const { return spans_; }
  std::int32_t root() const { return root_.index(); }
  static std::uint64_t NextId() {
    static std::uint64_t next = std::uint64_t{1} << 50;
    return next++;
  }

 private:
  SpanLog* spans_;
  ScopedSpan root_;
};

std::string N(std::size_t n) { return "n=" + std::to_string(n); }

double P(std::vector<std::uint32_t> ns, double q) {
  return Percentile(ns, q).value_or(0);
}

// vfs and core wrappers: per-strategy op latency and allocations on probe
// handles, one strategy at a time.
void ProbeHandles(Workload& wl, Env& env, Prng& rng, SpanLog* spans,
                  LayerMetrics& out) {
  constexpr int kOps = 2000;
  const Series kinds[] = {Series::kPassive, Series::kDll, Series::kThread,
                          Series::kProcess, Series::kLoop};
  Prng fill(rng.NextU64());
  Scratch scratch;
  for (Series s : kinds) {
    Target t;
    t.series = s;
    t.path = std::string("probe-") + SeriesName(s) +
             (s == Series::kPassive ? ".bin" : ".af");
    t.shadow.resize(wl.info().data_bytes);
    rng.Fill(MutableByteSpan(t.shadow));
    afs::sentinel::SentinelSpec spec;
    if (s != Series::kPassive) spec = NullSpec(StrategyOf(s));
    Stage(env, t.path, spec, ByteSpan(t.shadow));
    t.id = OpenOrDie(env, t.path);
    for (int i = 0; i < 50; ++i) {  // warm-up
      (void)Execute(env.api(), t, wl.SampleOp(rng), std::nullopt, fill,
                    scratch, nullptr, -1, 0);
    }
    ProbeTrace trace(spans, "probe.handle_ops");
    std::vector<std::uint32_t> ns;
    std::uint64_t bad = 0;
    g_allocs.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < kOps; ++i) {
      const Op op = wl.SampleOp(rng);
      const OpResult r = Execute(env.api(), t, op, std::nullopt, fill,
                                 scratch, trace.spans(), trace.root(),
                                 ProbeTrace::NextId());
      if (!r.ok || r.mismatch) ++bad;
      else ns.push_back(static_cast<std::uint32_t>(r.end_ns - r.start_ns));
    }
    g_count_allocs.store(false);
    const double allocs = static_cast<double>(g_allocs.load()) / kOps;
    (void)env.api().CloseHandle(t.id);
    if (bad != 0) Die("probe ops failed on " + t.path);
    const double p50 = P(ns, 0.5);
    out.probe_op_p50_ns[s] = p50;
    if (s == Series::kPassive) {
      out.Set("vfs.passive_op_p50_ns", p50, "ns", N(ns.size()));
    } else {
      out.Set(std::string("core.allocs_per_op.") + SeriesName(s), allocs,
              "count", "base: ops=" + std::to_string(kOps) +
                           (s == Series::kProcess ? ", client side" : ""));
    }
  }
  out.Set("core.dll_overhead_ns",
          out.probe_op_p50_ns[Series::kDll] -
              out.probe_op_p50_ns[Series::kPassive],
          "ns", "dll p50 - passive p50, probe handles");
}

// core open path: OpenFile + CloseHandle per strategy.
void ProbeOpenClose(Workload& wl, Env& env, SpanLog* spans,
                    LayerMetrics& out) {
  constexpr int kCycles = 40;
  const Series kinds[] = {Series::kProcess, Series::kThread, Series::kDll,
                          Series::kLoop};
  Buffer data(wl.info().data_bytes, 0x5A);
  for (Series s : kinds) {
    const std::string path = std::string("probe-open-") + SeriesName(s) + ".af";
    Stage(env, path, NullSpec(StrategyOf(s)), ByteSpan(data));
    ProbeTrace trace(spans, "probe.open_close");
    std::vector<std::uint32_t> ns;
    for (int i = 0; i < kCycles; ++i) {
      const std::uint64_t id = ProbeTrace::NextId();
      const std::int64_t start = NowNs();
      afs::Result<vfs::HandleId> handle = vfs::kInvalidHandle;
      {
        ScopedSpan span(spans, "vfs.OpenFile", trace.root(), -1, id);
        handle = env.api().OpenFile(path, vfs::OpenMode::kReadWrite);
      }
      if (!handle.ok()) Die("probe open: " + handle.status().ToString());
      afs::Status closed;
      {
        ScopedSpan span(spans, "vfs.CloseHandle", trace.root(), -1, id);
        closed = env.api().CloseHandle(*handle);
      }
      if (!closed.ok()) Die("probe close: " + closed.ToString());
      ns.push_back(static_cast<std::uint32_t>(NowNs() - start));
    }
    out.Set(std::string("core.open_close_p50_us.") + SeriesName(s),
            P(ns, 0.5) / 1e3, "us", N(ns.size()));
  }
}

// core overload: Admit+Release pairs with the workload's limits and costs.
void ProbeAdmission(Workload& wl, Prng& rng, SpanLog* spans,
                    LayerMetrics& out) {
  constexpr int kBatches = 2000;
  constexpr int kPairs = 32;
  afs::core::AdmissionGate gate(wl.AdmitLimits());
  std::vector<std::size_t> costs;
  for (int i = 0; i < kPairs; ++i) {
    const Op op = wl.SampleOp(rng);
    ControlMessage message;
    message.op = op.kind == OpKind::kRead ? ControlOp::kRead : ControlOp::kWrite;
    message.length = op.size;
    costs.push_back(afs::core::ControlMessageCost(message));
  }
  ProbeTrace trace(spans, "probe.admission");
  std::vector<double> per_pair;
  std::uint64_t refused = 0;
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan span(spans, "core.AdmissionGate", trace.root(), -1,
                    ProbeTrace::NextId());
    const std::int64_t start = NowNs();
    for (std::size_t cost : costs) {
      if (gate.Admit(cost).ok()) gate.Release(cost);
      else ++refused;
    }
    per_pair.push_back(static_cast<double>(NowNs() - start) / kPairs);
  }
  out.Set("core.overload.admit_ns", Percentile(per_pair, 0.5).value_or(0),
          "ns", "p50 of " + std::to_string(kBatches) + " batches of " +
                    std::to_string(kPairs) + " pairs, refused=" +
                    std::to_string(refused));
}

// core event loop: a standalone loop's 25 us timer, timed from due to fire.
void ProbeTimers(SpanLog* spans, LayerMetrics& out) {
  constexpr int kTrials = 1000;
  constexpr Micros kDelay{25};
  afs::core::EventLoop loop;
  if (!loop.Start().ok()) Die("probe event loop failed to start");
  ProbeTrace trace(spans, "probe.timer");
  std::vector<std::uint32_t> lag;
  std::atomic<std::int64_t> fired{0};
  for (int i = 0; i < kTrials; ++i) {
    ScopedSpan span(spans, "core.EventLoop.AddTimer", trace.root(), -1,
                    ProbeTrace::NextId());
    fired.store(0);
    const std::int64_t due = NowNs() + kDelay.count() * 1000;
    loop.AddTimer(kDelay, [&fired] { fired.store(NowNs()); });
    std::int64_t at = 0;
    while ((at = fired.load()) == 0) std::this_thread::yield();
    lag.push_back(static_cast<std::uint32_t>(std::max<std::int64_t>(at - due, 0)));
  }
  loop.Stop();
  out.Set("core.event_loop.timer_lag_p50_us", P(lag, 0.5) / 1e3, "us",
          N(lag.size()) + ", 25 us timers");
  out.Set("core.event_loop.timer_lag_p99_us", P(lag, 0.99) / 1e3, "us",
          N(lag.size()) + ", 25 us timers");
}

// sentinel control codec: encode+decode of the tape's message and
// response shapes, and the frame bytes they put on the wire.
void ProbeCodec(Workload& wl, Prng& rng, SpanLog* spans, LayerMetrics& out) {
  constexpr int kOps = 500;
  constexpr int kPasses = 41;
  constexpr std::size_t kShmThreshold = 4096;  // the link default
  std::vector<ControlMessage> messages(kOps);
  std::vector<ControlResponse> responses(kOps);
  std::vector<std::uint8_t> lanes(kOps, 0);
  double frame_bytes = 0;
  for (int i = 0; i < kOps; ++i) {
    const Op op = wl.SampleOp(rng);
    ControlMessage& m = messages[i];
    ControlResponse& r = responses[i];
    const bool read = op.kind == OpKind::kRead || op.kind == OpKind::kScatter;
    const bool vec = op.segments > 1;
    m.op = vec ? (read ? ControlOp::kReadVec : ControlOp::kWriteVec)
               : (read ? ControlOp::kRead : ControlOp::kWrite);
    m.length = op.size;
    if (vec) {
      afs::AppendU32(m.payload, op.segments);
      for (std::uint32_t s = 0; s < op.segments; ++s) {
        afs::AppendU32(m.payload, op.size / op.segments);
      }
    }
    r.number = op.size;
    const bool shm = op.size >= kShmThreshold;
    lanes[i] = shm ? afs::sentinel::kLaneShm : 0;
    // Read data rides the response frame unless it takes the shm lane;
    // write data always travels beside the frame.
    if (read) r.payload.assign(op.size, 0x5A);
    frame_bytes += 8 + static_cast<double>(
        afs::sentinel::EncodeControlMessage(m, lanes[i]).size() +
        afs::sentinel::EncodeControlResponse(r, afs::sentinel::kDataPlaneRev,
                                             lanes[i]).size());
  }
  ProbeTrace trace(spans, "probe.codec");
  std::vector<double> per_op;
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(spans, "sentinel.codec", trace.root(), -1,
                    ProbeTrace::NextId());
    const std::int64_t start = NowNs();
    for (int i = 0; i < kOps; ++i) {
      Buffer wire = afs::sentinel::EncodeControlMessage(messages[i], lanes[i]);
      auto decoded = afs::sentinel::DecodeControlMessage(ByteSpan(wire));
      Buffer reply = afs::sentinel::EncodeControlResponse(
          responses[i], afs::sentinel::kDataPlaneRev, lanes[i]);
      auto back = afs::sentinel::DecodeControlResponse(ByteSpan(reply));
      if (!decoded.ok() || !back.ok()) Die("probe codec round trip failed");
    }
    per_op.push_back(static_cast<double>(NowNs() - start) / kOps);
  }
  out.Set("sentinel.codec_ns_per_op", Percentile(per_op, 0.5).value_or(0),
          "ns", "median of " + std::to_string(kPasses) + " passes over " +
                    std::to_string(kOps) + " ops");
  out.Set("sentinel.frame_bytes_per_op", frame_bytes / kOps, "B",
          "control + response frames incl. length prefixes, " + N(kOps));
}

// ipc pipes: WriteFrame/ReadFrame round trips to a forked child, shaped
// like the op's crossing: a read sends a small command and gets its
// payload back, a write sends its payload and gets a small reply.
void ProbePipe(Workload& wl, Prng& rng, SpanLog* spans, LayerMetrics& out) {
  constexpr int kOps = 2000;
  constexpr std::size_t kCommandBytes = 24;  // a small control frame
  auto request = afs::ipc::Pipe::Create();
  auto reply = afs::ipc::Pipe::Create();
  if (!request.ok() || !reply.ok()) Die("probe pipes");
  // The child answers each frame with as many bytes as its first four
  // bytes ask for.
  auto child = afs::ipc::SpawnFunction([&]() -> int {
    request->write_end.Close();
    reply->read_end.Close();
    Buffer answer;
    for (;;) {
      auto frame = afs::ipc::ReadFrame(request->read_end);
      if (!frame.ok() || frame->size() < 4) return 0;
      std::uint32_t reply_len = 0;
      std::memcpy(&reply_len, frame->data(), sizeof(reply_len));
      answer.assign(reply_len, 0x5A);
      if (!afs::ipc::WriteFrame(reply->write_end, ByteSpan(answer)).ok()) {
        return 1;
      }
    }
  });
  if (!child.ok()) Die("probe fork: " + child.status().ToString());
  request->read_end.Close();
  reply->write_end.Close();
  Buffer frame;
  ProbeTrace trace(spans, "probe.pipe_echo");
  std::vector<std::uint32_t> ns;
  for (int i = 0; i < kOps; ++i) {
    const Op op = wl.SampleOp(rng);
    const bool read = op.kind == OpKind::kRead || op.kind == OpKind::kScatter;
    const std::uint32_t reply_len = read ? op.size : kCommandBytes;
    frame.assign(read ? kCommandBytes : kCommandBytes + op.size, 0x5A);
    std::memcpy(frame.data(), &reply_len, sizeof(reply_len));
    ScopedSpan span(spans, "ipc.WriteFrame+ReadFrame", trace.root(), -1,
                    ProbeTrace::NextId());
    const std::int64_t start = NowNs();
    if (!afs::ipc::WriteFrame(request->write_end, ByteSpan(frame)).ok()) {
      Die("probe pipe write");
    }
    auto answer = afs::ipc::ReadFrame(reply->read_end);
    if (!answer.ok() || answer->size() != reply_len) Die("probe pipe read");
    ns.push_back(static_cast<std::uint32_t>(NowNs() - start));
  }
  request->write_end.Close();
  (void)child->Wait();
  out.Set("ipc.pipe_rtt_p50_us", P(ns, 0.5) / 1e3, "us",
          N(ns.size()) + ", command + payload shaped like the tape's ops");
}

// ipc thread rendezvous: an echo sentinel thread.
void ProbeRendezvous(Workload& wl, Prng& rng, SpanLog* spans,
                     LayerMetrics& out) {
  constexpr int kOps = 2000;
  afs::core::ThreadRendezvous rz;
  std::thread echo([&rz] {
    for (;;) {
      auto message = rz.AF_GetControl();
      if (!message.ok()) return;
      ControlResponse response;
      response.number = message->length;
      if (!rz.AF_SendResponse(response).ok()) return;
      if (message->op == ControlOp::kClose) return;
    }
  });
  ProbeTrace trace(spans, "probe.rendezvous_echo");
  std::vector<std::uint32_t> ns;
  ControlMessage message;
  message.op = ControlOp::kRead;
  for (int i = 0; i < kOps; ++i) {
    message.length = wl.SampleOp(rng).size;
    ScopedSpan span(spans, "ipc.ThreadRendezvous", trace.root(), -1,
                    ProbeTrace::NextId());
    const std::int64_t start = NowNs();
    if (!rz.AF_SendControl(message).ok()) Die("probe rendezvous send");
    auto response = rz.AF_GetResponse();
    if (!response.ok() || response->number != message.length) {
      Die("probe rendezvous response");
    }
    ns.push_back(static_cast<std::uint32_t>(NowNs() - start));
  }
  message.op = ControlOp::kClose;
  if (rz.AF_SendControl(message).ok()) (void)rz.AF_GetResponse();
  rz.Shutdown();
  echo.join();
  out.Set("ipc.rendezvous_rtt_p50_us", P(ns, 0.5) / 1e3, "us", N(ns.size()));
}

// ipc shm ring: a 64 KiB Write/ReadExact echo to a forked child.
void ProbeShm(SpanLog* spans, LayerMetrics& out) {
  constexpr int kOps = 500;
  constexpr std::size_t kBytes = 64 * 1024;
  using afs::ipc::ShmRing;
  auto ring = ShmRing::Create(std::size_t{1} << 20);
  if (!ring.ok()) Die("probe shm ring: " + ring.status().ToString());
  std::shared_ptr<ShmRing> shm = *ring;
  auto child = afs::ipc::SpawnFunction([shm]() -> int {
    Buffer buf(kBytes);
    for (;;) {
      if (!shm->ReadExact(ShmRing::kToSentinel, MutableByteSpan(buf),
                          kIoTimeout).ok()) {
        return 0;
      }
      if (!shm->Write(ShmRing::kToApp, ByteSpan(buf), kIoTimeout).ok()) {
        return 1;
      }
    }
  });
  if (!child.ok()) Die("probe fork: " + child.status().ToString());
  Buffer out_buf(kBytes, 0x5A), in_buf(kBytes);
  ProbeTrace trace(spans, "probe.shm_echo");
  std::vector<std::uint32_t> ns;
  for (int i = 0; i < kOps; ++i) {
    ScopedSpan span(spans, "ipc.ShmRing", trace.root(), -1,
                    ProbeTrace::NextId());
    const std::int64_t start = NowNs();
    if (!shm->Write(ShmRing::kToSentinel, ByteSpan(out_buf), kIoTimeout).ok() ||
        !shm->ReadExact(ShmRing::kToApp, MutableByteSpan(in_buf), kIoTimeout)
             .ok()) {
      Die("probe shm echo");
    }
    ns.push_back(static_cast<std::uint32_t>(NowNs() - start));
  }
  shm->CloseAll();
  (void)child->Wait();
  out.Set("ipc.shm_rtt_p50_us", P(ns, 0.5) / 1e3, "us",
          N(ns.size()) + ", 64 KiB each way");
}

// ipc pipe lane: the workload's tape on a process handle with the shm
// lane off.
void ProbePipeLane(Workload& wl, Env& env, Prng& rng, SpanLog* spans,
                   LayerMetrics& out) {
  constexpr int kOps = 1500;
  constexpr double kMaxSeconds = 0.5;
  Target t;
  t.series = Series::kProcess;
  t.path = "probe-pipe-lane.af";
  t.shadow.resize(wl.info().data_bytes);
  rng.Fill(MutableByteSpan(t.shadow));
  afs::sentinel::SentinelSpec spec =
      NullSpec(afs::core::Strategy::kProcessControl);
  spec.config["shm_threshold"] = "off";
  Stage(env, t.path, spec, ByteSpan(t.shadow));
  t.id = OpenOrDie(env, t.path);
  Prng fill(rng.NextU64());
  Scratch scratch;
  ProbeTrace trace(spans, "probe.pipe_lane");
  double bytes = 0, busy_ns = 0;
  int n = 0;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(kMaxSeconds * 1e9);
  for (; n < kOps && NowNs() < deadline; ++n) {
    const Op op = wl.SampleOp(rng);
    const OpResult r = Execute(env.api(), t, op, std::nullopt, fill, scratch,
                               trace.spans(), trace.root(),
                               ProbeTrace::NextId());
    if (!r.ok || r.mismatch) Die("probe pipe-lane op failed");
    bytes += op.size;
    busy_ns += static_cast<double>(r.end_ns - r.start_ns);
  }
  (void)env.api().CloseHandle(t.id);
  out.Set("ipc.pipe_lane_mb_per_s", busy_ns > 0 ? bytes / busy_ns * 1e3 : 0,
          "MB/s", N(static_cast<std::size_t>(n)) + ", shm_threshold=off");
}

// net: FileClient GetRange/PutRange straight to a server with the same
// 25 us modelled service delay (the paper's Baseline).
void ProbeNet(Workload& wl, Env& server_env, Prng& rng, SpanLog* spans,
              LayerMetrics& out) {
  constexpr int kCalls = 1000;
  constexpr std::uint32_t kFileBytes = 64 * 1024;
  Buffer content(kFileBytes);
  rng.Fill(MutableByteSpan(content));
  if (!server_env.files().Put("probe/net", ByteSpan(content)).ok()) {
    Die("probe net put");
  }
  afs::net::SocketClient client(server_env.socket_path());
  afs::net::FileClient files(client);
  Buffer payload(kFileBytes, 0x5A);
  ProbeTrace trace(spans, "probe.net_call");
  std::vector<std::uint32_t> ns;
  std::uint64_t pos = 0;
  for (int i = 0; i < kCalls; ++i) {
    const Op op = wl.SampleOp(rng);
    const std::uint32_t size = std::min(op.size, kFileBytes);
    if (pos + size > kFileBytes) pos = 0;
    const bool read = op.kind == OpKind::kRead || op.kind == OpKind::kScatter;
    ScopedSpan span(spans, read ? "net.FileClient.GetRange"
                                : "net.FileClient.PutRange",
                    trace.root(), -1, ProbeTrace::NextId());
    const std::int64_t start = NowNs();
    const bool ok =
        read ? files.GetRange("probe/net", pos, size).ok()
             : files.PutRange("probe/net", pos, ByteSpan(payload).first(size))
                   .ok();
    if (!ok) Die("probe net call failed");
    ns.push_back(static_cast<std::uint32_t>(NowNs() - start));
    pos += size;
  }
  out.Set("net.call_p50_us", P(ns, 0.5) / 1e3, "us",
          N(ns.size()) + ", 25 us modelled service delay");
  out.Set("net.call_p99_us", P(ns, 0.99) / 1e3, "us",
          N(ns.size()) + ", 25 us modelled service delay");
}

// The benchmark's own clock: the cost of one timestamp pair.
void ProbeClock(LayerMetrics& out) {
  constexpr int kPairs = 1'000'000;
  std::int64_t sink = 0;
  const std::int64_t start = NowNs();
  for (int i = 0; i < kPairs; ++i) {
    const std::int64_t a = NowNs();
    sink += NowNs() - a;
  }
  const double ns = static_cast<double>(NowNs() - start) / kPairs;
  out.Set("bench.clock_ns", ns, "ns",
          N(kPairs) + " pairs, mean gap " +
              std::to_string(static_cast<double>(sink) / kPairs) + " ns");
}

}  // namespace

void RunProbes(Workload& wl, const std::string& root, std::uint64_t seed,
               SpanLog* spans, LayerMetrics& out) {
  Prng rng(seed ^ 0x9B0BE5);
  // The net probe calls the workload's own server when it has one, else a
  // probe server with the same modelled delay.
  const bool own_server = wl.env().has_server();
  Env env(root, Micros(25), !own_server);
  ProbeHandles(wl, env, rng, spans, out);
  ProbeOpenClose(wl, env, spans, out);
  ProbeAdmission(wl, rng, spans, out);
  ProbeTimers(spans, out);
  ProbeCodec(wl, rng, spans, out);
  ProbePipe(wl, rng, spans, out);
  ProbeRendezvous(wl, rng, spans, out);
  ProbeShm(spans, out);
  ProbePipeLane(wl, env, rng, spans, out);
  ProbeNet(wl, own_server ? wl.env() : env, rng, spans, out);
  ProbeClock(out);
}

}  // namespace perfbench
