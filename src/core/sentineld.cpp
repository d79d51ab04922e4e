#include "core/sentineld.hpp"

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/faultpoint.hpp"
#include "core/bundle.hpp"
#include "core/links.hpp"
#include "core/resolvers.hpp"
#include "core/strategies.hpp"
#include "ipc/pipe.hpp"
#include "obs/stats.hpp"
#include "sentinel/dispatch.hpp"
#include "sentinel/stream.hpp"
#include "sentinels/builtin.hpp"
#include "util/strings.hpp"

namespace afs::core {
namespace {

struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? std::string() : it->second;
  }

  Result<int> GetFd(const std::string& key) const {
    std::uint64_t fd = 0;
    if (!ParseU64(Get(key), fd) || fd > INT_MAX) {
      return InvalidArgumentError("sentineld: bad or missing --" + key);
    }
    return static_cast<int>(fd);
  }

  // Optional numeric flag; 0 when absent or malformed.
  std::uint64_t GetU64(const std::string& key) const {
    std::uint64_t value = 0;
    if (!ParseU64(Get(key), value)) return 0;
    return value;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) continue;
    auto [key, value] = SplitOnce(arg.substr(2), '=');
    args.values[key] = value;
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "sentineld: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace

int SentineldMain(int argc, char** argv) {
  // Faults must survive the exec boundary: a fault plan armed in the
  // launching application reaches this fresh image only via environment.
  (void)fault::InstallPlanFromEnv();
  // kill -USR1 <sentineld pid> dumps this process' metrics and spans to
  // stderr — the only stats surface a long-lived exec-mode sentinel has.
  obs::InstallStatsSignalDump(SIGUSR1);
  const Args args = ParseArgs(argc, argv);
  const std::string mode = args.Get("mode");
  const std::string bundle_path = args.Get("bundle");
  if (bundle_path.empty()) {
    return Fail(InvalidArgumentError("missing --bundle"));
  }

  // The bundle is this process' configuration: spec + data part.
  Result<std::unique_ptr<BundleFile>> bundle = BundleFile::Open(bundle_path);
  if (!bundle.ok()) return Fail(bundle.status());
  const sentinel::SentinelSpec spec = (*bundle)->spec();
  bundle->reset();

  Result<CacheAssembly> cache = AssembleCache(bundle_path, spec);
  if (!cache.ok()) return Fail(cache.status());

  sentinels::RegisterBuiltinSentinels();
  Result<std::unique_ptr<sentinel::Sentinel>> sent =
      sentinel::SentinelRegistry::Global().Create(spec);
  if (!sent.ok()) return Fail(sent.status());

  // Only socket-reachable remote sources exist across an exec boundary.
  static EnvironmentResolver resolver;
  sentinel::SentinelContext ctx;
  ctx.cache = cache->store.get();
  ctx.config = spec.config;
  ctx.resolver = &resolver;
  ctx.lock_dir = args.Get("lockdir");
  ctx.path = args.Get("path");

  int code = 0;
  if (mode == "control") {
    auto control_fd = args.GetFd("control-fd");
    auto response_fd = args.GetFd("response-fd");
    auto data_fd = args.GetFd("data-fd");
    if (!control_fd.ok()) return Fail(control_fd.status());
    if (!response_fd.ok()) return Fail(response_fd.status());
    if (!data_fd.ok()) return Fail(data_fd.status());
    PipeEndpointFds fds;
    fds.control_read = ipc::PipeEnd(*control_fd);
    fds.response_write = ipc::PipeEnd(*response_fd);
    fds.data_read = ipc::PipeEnd(*data_fd);
    PipeEndpoint endpoint(std::move(fds));
    // Supervised opens ask for idle heartbeats so the launching side's
    // lease protocol can tell "idle" from "dead".
    const std::uint64_t heartbeat_ms = args.GetU64("heartbeat-ms");
    if (heartbeat_ms > 0) {
      endpoint.set_heartbeat_interval(Micros{heartbeat_ms * 1000});
    }
    // Idle heartbeats carry the sentinel's cache grant (docs/CACHING.md).
    endpoint.set_cache_state(&ctx.cache_grant);
    // Shared-memory data plane: the launching application created the ring
    // and passed its descriptor through the exec.  A failed attach is not
    // fatal — the open banner reports no ring and every payload stays on
    // the pipes (docs/SHM_DATA_PLANE.md).
    std::shared_ptr<ipc::ShmRing> ring;
    if (!args.Get("shm-fd").empty()) {
      auto shm_fd = args.GetFd("shm-fd");
      if (shm_fd.ok()) {
        Result<std::shared_ptr<ipc::ShmRing>> attached =
            ipc::ShmRing::Attach(*shm_fd);
        if (attached.ok()) {
          ring = std::move(*attached);
          std::uint64_t threshold = args.GetU64("shm-threshold");
          if (threshold == 0) threshold = 4096;
          endpoint.set_shm(ring, static_cast<std::size_t>(threshold));
        } else {
          obs::Registry::Global().GetCounter("ipc.shm.fallbacks").Add(1);
        }
      }
    }
    code = sentinel::RunSentinelLoop(**sent, endpoint, ctx);
    // Mark the rings closed before exit so application-side waits end in
    // EOF/kClosed now instead of a timeout later.
    if (ring) ring->CloseAll();
  } else if (mode == "stream") {
    auto in_fd = args.GetFd("in-fd");
    auto out_fd = args.GetFd("out-fd");
    if (!in_fd.ok()) return Fail(in_fd.status());
    if (!out_fd.ok()) return Fail(out_fd.status());
    ipc::PipeEnd in(*in_fd);
    ipc::PipeEnd out(*out_fd);
    sentinel::StreamIo io;
    io.read_from_app = [&](MutableByteSpan span) { return in.ReadSome(span); };
    io.write_to_app = [&](ByteSpan data) { return out.WriteAll(data); };
    io.finish_output = [&]() { out.Close(); };
    // Re-attach after a supervised restart: resume the pumps where the
    // application already was instead of replaying from byte zero.
    sentinel::StreamResume resume;
    resume.read_pos = args.GetU64("resume-read");
    resume.write_pos = args.GetU64("resume-write");
    code = sentinel::RunStreamPump(**sent, io, ctx, resume);
  } else {
    return Fail(InvalidArgumentError("missing or bad --mode"));
  }
  const Status finalized = cache->Finalize();
  if (!finalized.ok()) return Fail(finalized);
  return code;
}

}  // namespace afs::core
