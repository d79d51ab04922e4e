// Seeded violations for check_nonblocking: AFS_NONBLOCKING functions
// reaching an unbounded primitive *transitively* — PumpOnce -> Drain ->
// read(2), and Flush -> PipeEnd::WriteAll -> writev(2) — so the test also
// pins the call-graph traversal, not just the direct-call case.  Flush's
// one-argument WriteAll has no deadline: only the arity separates it from
// the bounded call in nonblocking_clean.cpp.
#include "common/thread_annotations.hpp"

namespace fixture {

void Drain(int fd) {
  char byte;
  ::read(fd, &byte, 1);  // parks forever on a silent peer
}

void PumpOnce(int fd) AFS_NONBLOCKING {
  Drain(fd);
}

class PipeEnd {
 public:
  bool WriteAll(const char* bytes, int timeout_ms = 0);

 private:
  int fd_ = -1;
};

bool PipeEnd::WriteAll(const char* bytes, int timeout_ms) {
  const long n = ::writev(fd_, bytes, timeout_ms);  // unbounded: no deadline
  return n >= 0;
}

void Flush(PipeEnd& pipe, const char* bytes) AFS_NONBLOCKING {
  pipe.WriteAll(bytes);
}

}  // namespace fixture
