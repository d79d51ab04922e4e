// Ablation of the paper's central cost story (Sections 4.1–4.4): what does
// each transfer mechanism cost in isolation?
//
//   PipeRoundTrip     — frame over a pipe to a forked child and back
//                       (the process strategies' per-op cost: two
//                       protection-domain crossings + kernel copies)
//   RendezvousRoundTrip — the thread strategy's shared-memory handoff
//                       (two context switches, zero kernel data copies,
//                       one user-level copy out of the slot's payload)
//   VirtualCall       — the DLL-only strategy's direct dispatch
//   plus the raw syscall and memcpy floors for reference.
#include <benchmark/benchmark.h>
#include <algorithm>
#include <cstring>

#include <thread>

#include <unistd.h>

#include "core/links.hpp"
#include "ipc/framing.hpp"
#include "ipc/pipe.hpp"
#include "ipc/process.hpp"
#include "sentinel/control.hpp"

namespace afs {
namespace {

using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;

// ---- pipe round trip to a real child process ---------------------------

void BM_PipeRoundTrip(benchmark::State& state) {
  ipc::IgnoreSigpipe();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  auto to_child = ipc::Pipe::Create();
  auto from_child = ipc::Pipe::Create();
  if (!to_child.ok() || !from_child.ok()) {
    state.SkipWithError("pipe failed");
    return;
  }
  auto child = ipc::SpawnFunction([&]() -> int {
    to_child->write_end.Close();
    from_child->read_end.Close();
    while (true) {
      auto frame = ipc::ReadFrame(to_child->read_end);
      if (!frame.ok()) return 0;
      if (!ipc::WriteFrame(from_child->write_end, ByteSpan(*frame)).ok()) {
        return 0;
      }
    }
  });
  if (!child.ok()) {
    state.SkipWithError("fork failed");
    return;
  }
  to_child->read_end.Close();
  from_child->write_end.Close();

  Buffer payload(block, 0x42);
  for (auto _ : state) {
    if (!ipc::WriteFrame(to_child->write_end, ByteSpan(payload)).ok()) break;
    auto echo = ipc::ReadFrame(from_child->read_end);
    if (!echo.ok()) break;
    benchmark::DoNotOptimize(echo->data());
  }
  to_child->write_end.Close();
  (void)child->Wait();
}

// ---- thread rendezvous round trip ---------------------------------------

void BM_RendezvousRoundTrip(benchmark::State& state) {
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  core::ThreadRendezvous rendezvous;
  std::thread sentinel_thread([&] {
    while (true) {
      auto msg = rendezvous.AF_GetControl();
      if (!msg.ok()) return;
      if (msg->op == ControlOp::kClose) {
        (void)rendezvous.AF_SendResponse(ControlResponse{});
        return;
      }
      // Fill the response payload like a real sentinel's read would; the
      // slot moves it back to the caller, as on the thread strategy.
      ControlResponse resp;
      resp.number = msg->length;
      resp.payload.assign(msg->length, std::uint8_t{0x17});
      (void)rendezvous.AF_SendResponse(std::move(resp));
    }
  });

  Buffer buffer(block);
  for (auto _ : state) {
    ControlMessage msg;
    msg.op = ControlOp::kRead;
    msg.length = static_cast<std::uint32_t>(block);
    msg.inline_out = MutableByteSpan(buffer);
    if (!rendezvous.AF_SendControl(msg).ok()) break;
    auto resp = rendezvous.AF_GetResponse();
    if (!resp.ok()) break;
    // The stub's one copy: payload into the caller's buffer.
    std::memcpy(buffer.data(), resp->payload.data(),
                std::min(buffer.size(), resp->payload.size()));
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  ControlMessage close_msg;
  close_msg.op = ControlOp::kClose;
  (void)rendezvous.AF_SendControl(close_msg);
  (void)rendezvous.AF_GetResponse();
  sentinel_thread.join();
}

// ---- direct virtual call --------------------------------------------------

struct CallTarget {
  virtual ~CallTarget() = default;
  virtual std::size_t Serve(MutableByteSpan out) = 0;
};

struct FillTarget final : CallTarget {
  std::size_t Serve(MutableByteSpan out) override {
    std::fill(out.begin(), out.end(), std::uint8_t{0x17});
    return out.size();
  }
};

void BM_VirtualCall(benchmark::State& state) {
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  FillTarget target;
  CallTarget* vtable = &target;
  benchmark::DoNotOptimize(vtable);
  Buffer buffer(block);
  for (auto _ : state) {
    auto n = vtable->Serve(MutableByteSpan(buffer));
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(buffer.data());
  }
}

// ---- floors ---------------------------------------------------------------

void BM_SyscallFloor(benchmark::State& state) {
  // One cheap syscall, for scale against the pipe numbers.
  for (auto _ : state) {
    benchmark::DoNotOptimize(::getpid());
  }
}

void BM_MemcpyFloor(benchmark::State& state) {
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  Buffer src(block, 1);
  Buffer dst(block);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), block);
    benchmark::DoNotOptimize(dst.data());
  }
}

void RegisterAll() {
  for (int block : {8, 128, 2048}) {
    benchmark::RegisterBenchmark("Ablation/PipeRoundTrip", BM_PipeRoundTrip)
        ->Arg(block)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Ablation/RendezvousRoundTrip",
                                 BM_RendezvousRoundTrip)
        ->Arg(block)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Ablation/VirtualCall", BM_VirtualCall)
        ->Arg(block)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Ablation/MemcpyFloor", BM_MemcpyFloor)
        ->Arg(block)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("Ablation/SyscallFloor", BM_SyscallFloor)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace afs

int main(int argc, char** argv) {
  afs::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
