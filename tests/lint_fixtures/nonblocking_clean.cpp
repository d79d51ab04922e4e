// Clean twin for check_nonblocking: the same shape as nonblocking_bad.cpp
// but every wait is bounded — WaitReadable carries a deadline (a traversal
// cut), waitpid uses WNOHANG, and WriteAll is called with its deadline
// argument (the arity that makes it a cut) — so the check must stay silent.
#include "common/thread_annotations.hpp"

namespace fixture {

class PipeEnd {
 public:
  bool WaitReadable(int timeout_ms);
  bool WriteAll(const char* bytes, int timeout_ms = 0);

 private:
  int fd_ = -1;
};

bool PipeEnd::WriteAll(const char* bytes, int timeout_ms) {
  const long n = ::writev(fd_, bytes, timeout_ms);  // bounded: a deadline
  return n >= 0;
}

void Drain(PipeEnd& pipe, int child) {
  pipe.WaitReadable(50);
  int wstatus = 0;
  ::waitpid(child, &wstatus, WNOHANG);
}

void PumpOnce(PipeEnd& pipe, int child) AFS_NONBLOCKING {
  Drain(pipe, child);
}

void Flush(PipeEnd& pipe, const char* bytes) AFS_NONBLOCKING {
  pipe.WriteAll(bytes, 50);
}

}  // namespace fixture
