// Seeded violation for check_nonblocking's unset-deadline rule: SendBanner
// calls WriteFrame without its deadline, and WriteFrame hands that
// defaulted (wait-forever) timeout on to PipeEnd::WriteAll.  The WriteAll
// call has the arity of a bounded call; only the unset argument makes it
// unbounded, so the check must follow it to writev(2).
#include "common/thread_annotations.hpp"

namespace fixture {

class PipeEnd {
 public:
  bool WriteAll(const char* bytes, int timeout = 0);

 private:
  int fd_ = -1;
};

bool PipeEnd::WriteAll(const char* bytes, int timeout) {
  const long n = ::writev(fd_, bytes, timeout);  // 0: no deadline
  return n >= 0;
}

bool WriteFrame(PipeEnd& pipe, const char* payload, int timeout = 0) {
  return pipe.WriteAll(payload, timeout);
}

void SendBanner(PipeEnd& pipe, const char* payload) AFS_NONBLOCKING {
  WriteFrame(pipe, payload);
}

}  // namespace fixture
