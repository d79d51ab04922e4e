#include "core/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace afs::core {

namespace {

// How often the monitor thread walks the attached sessions.
constexpr Micros kMonitorTick{10'000};

// Replaying a crashed stream session means re-sending every write the
// application ever issued (stream writes are unacknowledged, so all are in
// doubt).  Past this many logged bytes the handle stops being restartable
// and a crash degrades instead.
constexpr std::size_t kWriteLogCap = 4u << 20;  // 4 MiB

long long ParseIntKey(const std::map<std::string, std::string>& config,
                      const char* key, long long fallback) {
  auto it = config.find(key);
  if (it == config.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

}  // namespace

// ---------------------------------------------------------------------
// DegradeMode / RestartPolicy

std::string_view DegradeModeName(DegradeMode mode) noexcept {
  switch (mode) {
    case DegradeMode::kFail: return "fail";
    case DegradeMode::kReadonly: return "readonly";
    case DegradeMode::kPassthrough: return "passthrough";
  }
  return "?";
}

Result<DegradeMode> ParseDegradeMode(std::string_view name) {
  if (name == "fail") return DegradeMode::kFail;
  if (name == "readonly") return DegradeMode::kReadonly;
  if (name == "passthrough") return DegradeMode::kPassthrough;
  return InvalidArgumentError("unknown degrade mode: " + std::string(name));
}

Result<RestartPolicy> RestartPolicy::FromSpec(
    const std::map<std::string, std::string>& config) {
  RestartPolicy policy;
  auto it = config.find("supervise");
  policy.supervised = it != config.end() && it->second == "1";

  policy.max_restarts = static_cast<int>(
      ParseIntKey(config, "restart_max", policy.max_restarts));
  if (policy.max_restarts < 0) policy.max_restarts = 0;

  const long long backoff_ms =
      ParseIntKey(config, "restart_backoff_ms", -1);
  if (backoff_ms >= 0) policy.backoff_initial = Micros{backoff_ms * 1000};
  const long long cap_ms =
      ParseIntKey(config, "restart_backoff_cap_ms", -1);
  if (cap_ms >= 0) policy.backoff_cap = Micros{cap_ms * 1000};

  const long long lease_ms = ParseIntKey(config, "lease_ms", 0);
  if (lease_ms > 0) policy.lease = Micros{lease_ms * 1000};

  auto degrade_it = config.find("degrade");
  if (degrade_it != config.end()) {
    AFS_ASSIGN_OR_RETURN(policy.degrade, ParseDegradeMode(degrade_it->second));
  }
  return policy;
}

// ---------------------------------------------------------------------
// Supervisor

// Shared between the monitor thread and the owning handle.  `dead` latches:
// a restart attaches a fresh session instead of reviving this one.
struct Supervisor::Session {
  Mutex mu;
  SessionProbe probe AFS_GUARDED_BY(mu);
  Micros lease_timeout AFS_GUARDED_BY(mu){0};
  bool dead AFS_GUARDED_BY(mu) = false;
  bool detached AFS_GUARDED_BY(mu) = false;
};

namespace {

// One monitor pass over one session: drain heartbeats, then check the
// waitpid and lease arms; declare death and force the link down on either.
void CheckSession(Supervisor::Session& session) AFS_NONBLOCKING {
  std::function<void()> poll;
  {
    MutexLock lock(session.mu);
    if (session.dead || session.detached) return;
    poll = session.probe.poll_heartbeats;
  }
  if (poll) poll();

  MutexLock lock(session.mu);
  if (session.dead || session.detached) return;
  const char* cause = nullptr;
  if (session.probe.child != nullptr) {
    const std::optional<ipc::ExitStatus> ended = session.probe.child->Poll();
    if (ended.has_value()) cause = "sentinel process exited";
  }
  if (cause == nullptr && session.lease_timeout.count() > 0 &&
      session.probe.lease != nullptr &&
      session.probe.lease->Age() > session.lease_timeout) {
    cause = "sentinel lease expired";
    static obs::Counter& expiries =
        obs::Registry::Global().GetCounter("core.supervisor.lease_expiries");
    expiries.Add(1);
  } else if (cause != nullptr) {
    static obs::Counter& exits =
        obs::Registry::Global().GetCounter("core.supervisor.child_exits");
    exits.Add(1);
  }
  if (cause == nullptr) return;
  session.dead = true;
  AFS_LOG(kWarn, "afs.supervisor") << cause << "; forcing link down";
  std::function<void()> down = session.probe.force_down;
  std::function<void()> revoke = session.probe.cache_revoke;
  lock.Unlock();
  // A dead sentinel's cache lease is void immediately — the client cache
  // must drop (or flush-and-drop) instead of serving blocks the sentinel
  // can no longer recall (docs/CACHING.md).
  if (revoke) revoke();
  // Wakes any application operation blocked on the dead link; it fails
  // with a transport error and the owning handle runs recovery.
  if (down) down();
}

}  // namespace

Supervisor::~Supervisor() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  // Joins the loop thread; an in-flight sweep finishes first, and the
  // pending re-arm timer is discarded with the loop's timer list.
  loop_.Stop();
}

void Supervisor::EnsureLoopLocked() {
  if (running_) return;
  const Status started = loop_.Start();
  if (!started.ok()) {
    // No loop, no proactive monitoring; transport errors still surface
    // through the op path.  Left un-running so a later Attach retries.
    AFS_LOG(kWarn, "afs.supervisor")
        << "monitor loop failed to start: " << started.ToString();
    return;
  }
  running_ = true;
  loop_.AddTimer(kMonitorTick, [this] { MonitorTick(); });
}

// One firing of the monitor's timer wheel: sweep every attached session,
// then re-arm.  Re-arming from inside the callback (instead of a periodic
// timer) keeps a slow sweep from stacking overlapping firings.
void Supervisor::MonitorTick() {
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    MutexLock lock(mu_);
    if (stop_) return;
    snapshot = sessions_;
  }
  for (const auto& session : snapshot) CheckSession(*session);
  MutexLock lock(mu_);
  if (stop_) return;
  loop_.AddTimer(kMonitorTick, [this] { MonitorTick(); });
}

std::shared_ptr<Supervisor::Session> Supervisor::Attach(SessionProbe probe,
                                                        Micros lease) {
  auto session = std::make_shared<Session>();
  {
    MutexLock lock(session->mu);
    session->probe = std::move(probe);
    session->lease_timeout = lease;
  }
  MutexLock lock(mu_);
  sessions_.push_back(session);
  EnsureLoopLocked();
  return session;
}

void Supervisor::Detach(const std::shared_ptr<Session>& session) {
  if (session == nullptr) return;
  {
    MutexLock lock(session->mu);
    session->detached = true;
    session->probe = SessionProbe{};
  }
  MutexLock lock(mu_);
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                  sessions_.end());
}

void Supervisor::MarkDead(const std::shared_ptr<Session>& session) {
  if (session == nullptr) return;
  MutexLock lock(session->mu);
  session->dead = true;
}

}  // namespace afs::core
