// Figure 6(a): ReadFile/WriteFile overhead when the sentinel serves every
// operation from a REMOTE SOURCE (no cache anywhere) — Figure 5 path 1.
//
// Series (names follow the paper):
//   Process  — process-plus-control strategy (forked sentinel, 3 pipes)
//   Thread   — DLL-with-thread strategy (injected sentinel thread)
//   DLL      — DLL-only strategy (direct dispatch)
//   Baseline — the application calling the remote service directly,
//              which the paper reports as indistinguishable from DLL.
//   BaselineNoDelay — Baseline against the same file service with no
//              modelled delay: the bare RPC round trip.  bench-smoke
//              fails if Baseline 8 B exceeds its service_delay_us counter
//              plus 3x this, the floor self-check a rounded timer would
//              trip.
// Block sizes 8..2048 bytes, µs/op; the remote service time dominates and
// the strategy overhead is the additive gap between series.
//
// The PR-10 client cache (docs/CACHING.md) adds four columns:
//   Passive   — a plain (non-active) file through FileApi: the floor a
//               cache hit is gated against (<= 1.5x in bench-smoke).
//   CacheHit  — cache=read with the whole file resident; every timed op
//               is a lease-checked hit served from client memory.
//   CacheMiss — cache=read with a one-block budget and 4096-byte strides,
//               so every timed op faults a fresh block from the sentinel.
//   Uncached  — the same 4096-byte strides with cache=memory (sentinel
//               serves from its memory store, no client lease): the IPC
//               round trip a miss adds one block memcpy to.
#include "bench_util.hpp"

namespace afs::bench {
namespace {

constexpr std::uint64_t kFileSize = 64 * 1024;
// Models the network+service time of a LAN file server (the testbed's
// 100 Mbps Ethernet hop).  Small enough that the per-strategy overhead —
// the quantity Figure 6(a) compares — stays visible above the floor.
constexpr Micros kServiceDelay{25};

BenchEnv& Env() {
  static BenchEnv env("fig6-remote", kServiceDelay);
  static bool staged = [&] {
    Buffer content(kFileSize, 0x5A);
    (void)env.files().Put("bench/blob", ByteSpan(content));
    return true;
  }();
  (void)staged;
  return env;
}

sentinel::SentinelSpec RemoteSpec() {
  sentinel::SentinelSpec spec;
  spec.name = "remote";
  spec.config["cache"] = "none";
  spec.config["url"] = Env().remote_url();
  spec.config["file"] = "bench/blob";
  return spec;
}

sentinel::SentinelSpec CachedSpec(std::size_t cache_bytes) {
  sentinel::SentinelSpec spec = RemoteSpec();
  spec.config["cache"] = "read";
  spec.config["cache_bytes"] = std::to_string(cache_bytes);
  spec.config["lease_ms"] = "5000";
  return spec;
}

// A plain passive file: the floor the cache-hit column is gated against.
void BM_PassiveRead(benchmark::State& state) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  static bool staged = [&] {
    Buffer content(kFileSize, 0x5A);
    (void)env.api().WriteWholeFile("passive.bin", ByteSpan(content));
    return true;
  }();
  (void)staged;
  auto handle = env.api().OpenFile("passive.bin", vfs::OpenMode::kRead);
  if (!handle.ok()) {
    state.SkipWithError(handle.status().ToString().c_str());
    return;
  }
  ReadLoop(state, env.api(), *handle, block, kFileSize);
  (void)env.api().CloseHandle(*handle);
}

void BM_CacheHitRead(benchmark::State& state) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  // Budget >= file size: after one priming sweep every block is resident
  // and the timed loop never leaves client memory.
  const vfs::HandleId handle = OpenActive(
      env, "r-cache-hit.af", CachedSpec(2 * kFileSize), core::Strategy::kThread);
  Buffer prime(kFileSize);
  if (!env.api().ReadFile(handle, MutableByteSpan(prime)).ok() ||
      !env.api().SetFilePointer(handle, 0, vfs::SeekOrigin::kBegin).ok()) {
    state.SkipWithError("cache priming sweep failed");
    return;
  }
  ReadLoop(state, env.api(), handle, block, kFileSize);
  (void)env.api().CloseHandle(handle);
}

// One-block budget + block-sized strides: every op evicts and refetches.
void BM_CacheMissRead(benchmark::State& state) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const vfs::HandleId handle = OpenActive(
      env, "r-cache-miss.af", CachedSpec(4096), core::Strategy::kThread);
  ReadLoop(state, env.api(), handle, block, kFileSize);
  (void)env.api().CloseHandle(handle);
}

// The miss comparator: the sentinel serves from its memory store (one
// upstream fetch at open), but no lease is granted, so every op is the
// bare IPC round trip that a cache miss pays plus block bookkeeping.
void BM_UncachedRead(benchmark::State& state) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  sentinel::SentinelSpec spec = RemoteSpec();
  spec.config["cache"] = "memory";
  const vfs::HandleId handle =
      OpenActive(env, "r-uncached.af", spec, core::Strategy::kThread);
  ReadLoop(state, env.api(), handle, block, kFileSize);
  (void)env.api().CloseHandle(handle);
}

void BM_Read(benchmark::State& state, core::Strategy strategy) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const std::string path =
      std::string("r-") + std::string(core::StrategyName(strategy)) + ".af";
  const vfs::HandleId handle =
      OpenActive(env, path, RemoteSpec(), strategy);
  ReadLoop(state, env.api(), handle, block, kFileSize);
  (void)env.api().CloseHandle(handle);
}

void BM_Write(benchmark::State& state, core::Strategy strategy) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const std::string path =
      std::string("w-") + std::string(core::StrategyName(strategy)) + ".af";
  const vfs::HandleId handle =
      OpenActive(env, path, RemoteSpec(), strategy);
  WriteLoop(state, env.api(), handle, block, kFileSize);
  (void)env.api().CloseHandle(handle);
}

// The same file service with no modelled delay, on a socket of its own.
const std::string& NoDelaySocket() {
  static const std::string path = Env().remote_url().substr(5) + ".nodelay";
  static net::SocketServer server(path, Env().files());
  static const bool started = server.Start().ok();
  if (!started) std::abort();
  return path;
}

// Baseline: the application speaks to the file service itself.  The
// service's modelled delay rides along as a counter, so the bench-smoke
// floor gate reads it instead of restating it.
void BM_BaselineRead(benchmark::State& state, const std::string& socket,
                     Micros service_delay) {
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  state.counters["service_delay_us"] =
      static_cast<double>(service_delay.count());
  net::SocketClient client(socket);
  net::FileClient files(client);
  std::uint64_t pos = 0;
  for (auto _ : state) {
    auto got = files.GetRange("bench/blob", pos,
                              static_cast<std::uint32_t>(block));
    if (!got.ok()) {
      state.SkipWithError(got.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(got->data.data());
    pos = (pos + block + block > kFileSize) ? 0 : pos + block;
  }
}

void BM_BaselineWrite(benchmark::State& state) {
  BenchEnv& env = Env();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  net::SocketClient client(env.remote_url().substr(5));
  net::FileClient files(client);
  Buffer buf(block, 0xAB);
  std::uint64_t pos = 0;
  for (auto _ : state) {
    auto rev = files.PutRange("bench/blob", pos, ByteSpan(buf));
    if (!rev.ok()) {
      state.SkipWithError(rev.status().ToString().c_str());
      return;
    }
    pos = (pos + block + block > kFileSize) ? 0 : pos + block;
  }
}

void RegisterAll() {
  struct Series {
    const char* label;
    core::Strategy strategy;
  };
  const Series series[] = {
      {"Process", core::Strategy::kProcessControl},
      {"Thread", core::Strategy::kThread},
      {"DLL", core::Strategy::kDirect},
  };
  for (const auto& s : series) {
    for (int block : kBlockSizes) {
      benchmark::RegisterBenchmark(
          (std::string("Fig6a/Read/") + s.label).c_str(),
          [strategy = s.strategy](benchmark::State& st) {
            BM_Read(st, strategy);
          })
          ->Arg(block)
          ->Iterations(kCallsPerConfig)
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          (std::string("Fig6a/Write/") + s.label).c_str(),
          [strategy = s.strategy](benchmark::State& st) {
            BM_Write(st, strategy);
          })
          ->Arg(block)
          ->Iterations(kCallsPerConfig)
          ->Unit(benchmark::kMicrosecond);
    }
  }
  for (int block : kBlockSizes) {
    benchmark::RegisterBenchmark(
        "Fig6a/Read/Baseline",
        [](benchmark::State& st) {
          BM_BaselineRead(st, Env().remote_url().substr(5), kServiceDelay);
        })
        ->Arg(block)
        ->Iterations(kCallsPerConfig)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        "Fig6a/Read/BaselineNoDelay",
        [](benchmark::State& st) {
          BM_BaselineRead(st, NoDelaySocket(), Micros{0});
        })
        ->Arg(block)
        ->Iterations(kCallsPerConfig)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Fig6a/Write/Baseline", BM_BaselineWrite)
        ->Arg(block)
        ->Iterations(kCallsPerConfig)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Fig6a/Read/Passive", BM_PassiveRead)
        ->Arg(block)
        ->Iterations(kCallsPerConfig)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Fig6a/Read/CacheHit", BM_CacheHitRead)
        ->Arg(block)
        ->Iterations(kCallsPerConfig)
        ->Unit(benchmark::kMicrosecond);
  }
  // The miss column strides one cache block per op; its remote comparator
  // (cache=none at the same stride) rides along so the JSON carries the
  // miss-vs-remote ratio the design note claims (<= 1.1x + one memcpy).
  benchmark::RegisterBenchmark("Fig6a/Read/CacheMiss", BM_CacheMissRead)
      ->Arg(4096)
      ->Iterations(kCallsPerConfig)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Fig6a/Read/Uncached", BM_UncachedRead)
      ->Arg(4096)
      ->Iterations(kCallsPerConfig)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace afs::bench

int main(int argc, char** argv) {
  afs::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
