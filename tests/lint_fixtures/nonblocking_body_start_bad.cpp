// Seeded violation for the tokenizer model (tools/analyze/engine.py): a
// global-scope `::read(...)` that is the first statement of a function
// body.  Its leading `::` is the body's first token; the model must still
// record the call as `::`-qualified, or check_nonblocking's syscall rule
// never sees read(2).
#include "common/thread_annotations.hpp"

namespace fixture {

class PipeEnd {
 public:
  int ReadByte() AFS_NONBLOCKING;

 private:
  int fd_ = -1;
  char byte_ = 0;
};

int PipeEnd::ReadByte() {
  ::read(fd_, &byte_, 1);  // parks forever on a silent peer
  return byte_;
}

}  // namespace fixture
