// Clean twin of nonblocking_unset_deadline_bad.cpp: the same hand-on of a
// deadline, but every deadline is set — SendBanner passes one to
// WriteFrame, and Relay's own `timeout` parameter counts as set because
// its caller is outside the check's view — so the check must stay silent.
#include "common/thread_annotations.hpp"

namespace fixture {

class PipeEnd {
 public:
  bool WriteAll(const char* bytes, int timeout = 0);

 private:
  int fd_ = -1;
};

bool PipeEnd::WriteAll(const char* bytes, int timeout) {
  const long n = ::writev(fd_, bytes, timeout);  // bounded: a deadline
  return n >= 0;
}

bool WriteFrame(PipeEnd& pipe, const char* payload, int timeout = 0) {
  return pipe.WriteAll(payload, timeout);
}

void SendBanner(PipeEnd& pipe, const char* payload) AFS_NONBLOCKING {
  WriteFrame(pipe, payload, 50);
}

void Relay(PipeEnd& pipe, const char* payload, int timeout) AFS_NONBLOCKING {
  pipe.WriteAll(payload, timeout);
}

}  // namespace fixture
