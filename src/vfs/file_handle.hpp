// Per-open-file driver interface.  A HandleId returned by FileApi maps to a
// FileHandle implementation: a passive host file, or an active-file stub
// whose operations travel to a sentinel.  This is the seam the paper
// creates by intercepting Win32 calls — from above, every handle looks the
// same ("an active file is virtually indistinguishable from a regular
// file"); below, anything can be wired in.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace afs::vfs {

enum class SeekOrigin : std::uint8_t { kBegin = 0, kCurrent = 1, kEnd = 2 };

class FileHandle {
 public:
  virtual ~FileHandle() = default;

  // Reads at the current file pointer, advancing it; 0 bytes = EOF.
  virtual Result<std::size_t> Read(MutableByteSpan out) = 0;

  // Writes at the current file pointer, advancing it.
  virtual Result<std::size_t> Write(ByteSpan data) = 0;

  // Moves the file pointer; returns the new absolute position.
  virtual Result<std::uint64_t> Seek(std::int64_t offset,
                                     SeekOrigin origin) = 0;

  // Logical size in bytes.
  virtual Result<std::uint64_t> Size() = 0;

  // Truncates/extends the file to end at the current pointer.
  virtual Status SetEndOfFile() { return UnsupportedError("SetEndOfFile"); }

  virtual Status Flush() { return Status::Ok(); }

  // Vectored read (Win32 ReadFileScatter).  Defaults to sequential reads
  // at the file pointer; command-strategy handles override it with a
  // single-crossing scatter, and the plain process strategy, which cannot
  // forward it (paper Section 4.1), with kUnsupported.
  virtual Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) {
    std::size_t total = 0;
    for (MutableByteSpan segment : segments) {
      AFS_ASSIGN_OR_RETURN(std::size_t n, Read(segment));
      total += n;
      if (n < segment.size()) break;
    }
    return total;
  }

  // Vectored write (Win32 WriteFileGather).  Defaults to sequential
  // writes at the file pointer; command-strategy handles override it with
  // a single-crossing gather.
  virtual Result<std::size_t> WriteGather(std::span<ByteSpan> segments) {
    std::size_t total = 0;
    for (ByteSpan segment : segments) {
      AFS_ASSIGN_OR_RETURN(std::size_t n, Write(segment));
      total += n;
      if (n < segment.size()) break;
    }
    return total;
  }

  // Advisory whole-handle byte-range locks.
  virtual Status LockRange(std::uint64_t offset, std::uint64_t length) {
    (void)offset;
    (void)length;
    return UnsupportedError("LockRange");
  }
  virtual Status UnlockRange(std::uint64_t offset, std::uint64_t length) {
    (void)offset;
    (void)length;
    return UnsupportedError("UnlockRange");
  }

  // Application-specific command to whatever serves this handle (Win32
  // DeviceIoControl).  Only active files with a control channel answer.
  virtual Result<Buffer> Control(ByteSpan request) {
    (void)request;
    return UnsupportedError("handle has no control channel");
  }

  // Releases underlying resources.  Called exactly once by FileApi.
  virtual Status Close() = 0;
};

}  // namespace afs::vfs
