// The two halves of an active-file connection, named after the library
// calls of paper Appendix A.3.
//
//   application stub  --AF_SendControl-->   sentinel  (AF_GetControl)
//   application stub  <--AF_GetResponse--   sentinel  (AF_SendResponse)
//   write data        --(write lane)---->             (AF_GetDataFromAppl)
//   read data         <--(response payload)--         (AF_SendResponse)
//
// Implementations: core::PipeLink/PipeEndpoint (three real pipes, the
// process-plus-control strategy) and core::ThreadRendezvous (events +
// shared memory: the DLL-with-thread strategy, and the mailbox each
// core::LoopSession wraps as its link).  Links carry commands only;
// admission budgets bracket each round trip in the application stub.
#pragma once

#include "common/bytes.hpp"
#include "common/thread_annotations.hpp"
#include "common/status.hpp"
#include "sentinel/control.hpp"

namespace afs::sentinel {

// Application side.
class SentinelLink {
 public:
  virtual ~SentinelLink() = default;

  // Ships a command (and, for kWrite, its data) to the sentinel.
  virtual Status AF_SendControl(const ControlMessage& message)
      AFS_NONBLOCKING = 0;

  // Waits for the sentinel's response to the last command.  The wait
  // must be bounded by the link's response timeout (op_timeout_ms);
  // implementations are AFS_NONBLOCKING so an event loop can multiplex
  // them (see docs/STATIC_ANALYSIS.md).
  virtual Result<ControlResponse> AF_GetResponse() AFS_NONBLOCKING = 0;
};

// Sentinel side.
class SentinelEndpoint {
 public:
  virtual ~SentinelEndpoint() = default;

  // Blocks until the application issues a command; kClosed when the
  // application side has gone away (treated as an implicit close).
  virtual Result<ControlMessage> AF_GetControl() AFS_NONBLOCKING = 0;

  // Retrieves the `length` data bytes of the current kWrite/kWriteVec
  // from the write lane (the data pipe or shared ring; the slot's own
  // buffer in process).  Must be called exactly once per write with a
  // nonzero length, before the next AF_GetControl.
  virtual Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING = 0;

  // Completes the current command.  Taken by value so an in-process slot
  // keeps the response (read data included) by move.
  virtual Status AF_SendResponse(ControlResponse response)
      AFS_NONBLOCKING = 0;
};

}  // namespace afs::sentinel
