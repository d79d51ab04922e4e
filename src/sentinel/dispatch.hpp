// The sentinel dispatch loop (paper Sections 5.2/5.3): block on
// AF_GetControl, perform the operation against the Sentinel, respond,
// repeat until close.  Shared verbatim by the process-plus-control strategy
// (running in a forked child over pipes) and the DLL-with-thread strategy
// (running in an injected thread over shared memory) — the strategies differ
// only in the SentinelEndpoint they plug in.
//
// PerformControlOp is the per-message core of that loop, factored out so
// the event-loop host (core/loop_host.hpp) can service the same command
// set from a shard callback instead of a dedicated thread.
#pragma once

#include "sentinel/endpoint.hpp"
#include "sentinel/sentinel.hpp"

namespace afs::sentinel {

// How one serviced command left the session.
enum class OpVerdict : std::uint8_t {
  kRespond = 0,   // ship the response; the session continues
  kClosed = 1,    // close op serviced (OnClose ran); respond best-effort
  kCrashed = 2,   // injected crash at the close fault site; no response
  kChannelBroken = 3,  // out-of-line data lane failed; OnClose ran; no
                       // response can pair with the consumed command
};

struct OpOutcome {
  ControlResponse response;
  OpVerdict verdict = OpVerdict::kRespond;
};

// Stamps the context's current CacheGrant into `response`'s cache
// fields (grant bits, lease duration, content epoch).  PerformControlOp
// does this for every serviced command; hosts that build the open banner
// themselves (RunSentinelLoop, the loop host) call it on the banner too so
// a caching client holds its lease before the first data op.
void StampCacheGrant(const CacheGrant& grant, ControlResponse& response);
inline void StampCacheGrant(const SentinelContext& ctx,
                            ControlResponse& response) {
  StampCacheGrant(ctx.cache_grant, response);
}

// Services one control message: span collection, the
// "sentinel.dispatch.op" / "sentinel.dispatch.close" fault sites, and the
// op switch against the Sentinel.  Every link hands over the same
// wire-shaped message: write bytes are pulled from `endpoint`'s data lane
// (AF_GetDataFromAppl), and read bytes go back in the response payload.
OpOutcome PerformControlOp(Sentinel& sentinel, SentinelContext& ctx,
                           const ControlMessage& msg,
                           SentinelEndpoint& endpoint);

// Runs OnOpen, the command loop, and OnClose.  Returns the process exit
// code (0 on clean shutdown) so forked children can return it directly.
int RunSentinelLoop(Sentinel& sentinel, SentinelEndpoint& endpoint,
                    SentinelContext& ctx);

}  // namespace afs::sentinel
