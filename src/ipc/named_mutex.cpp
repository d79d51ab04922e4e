#include "ipc/named_mutex.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace afs::ipc {

NamedMutex::NamedMutex(std::string directory, std::string name)
    : path_(std::move(directory)) {
  if (!path_.empty() && path_.back() != '/') path_ += '/';
  path_ += name;
  path_ += ".lock";
}

NamedMutex::~NamedMutex() {
  if (held_) (void)Unlock();
  CloseFd();
}

NamedMutex::NamedMutex(NamedMutex&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      held_(std::exchange(other.held_, false)) {}

NamedMutex& NamedMutex::operator=(NamedMutex&& other) noexcept {
  if (this != &other) {
    if (held_) (void)Unlock();
    CloseFd();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    held_ = std::exchange(other.held_, false);
  }
  return *this;
}

Status NamedMutex::EnsureOpen() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return IoError("open lock file " + path_ + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

void NamedMutex::CloseFd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {
// Open-file-description locks (F_OFD_*): owned by this object's open of
// the lock file, so two NamedMutex objects in one process exclude each
// other — classic F_SETLK record locks are per-process and would not.
// l_pid must be zero for OFD locks; the value-initialization sees to it.
struct flock MakeLock(short type) {
  struct flock fl {};
  fl.l_type = type;
  fl.l_whence = SEEK_SET;
  fl.l_start = 0;
  fl.l_len = 0;  // whole file
  return fl;
}
}  // namespace

Status NamedMutex::Lock() {
  AFS_RETURN_IF_ERROR(EnsureOpen());
  struct flock fl = MakeLock(F_WRLCK);
  while (::fcntl(fd_, F_OFD_SETLKW, &fl) != 0) {
    if (errno == EINTR) continue;
    return IoError(std::string("fcntl F_OFD_SETLKW: ") + std::strerror(errno));
  }
  held_ = true;
  return Status::Ok();
}

Status NamedMutex::TryLock() {
  AFS_RETURN_IF_ERROR(EnsureOpen());
  struct flock fl = MakeLock(F_WRLCK);
  if (::fcntl(fd_, F_OFD_SETLK, &fl) != 0) {
    if (errno == EACCES || errno == EAGAIN) {
      return BusyError("lock held: " + path_);
    }
    return IoError(std::string("fcntl F_OFD_SETLK: ") + std::strerror(errno));
  }
  held_ = true;
  return Status::Ok();
}

Status NamedMutex::Unlock() {
  if (!held_) return InvalidArgumentError("unlock without lock");
  struct flock fl = MakeLock(F_UNLCK);
  if (::fcntl(fd_, F_OFD_SETLK, &fl) != 0) {
    return IoError(std::string("fcntl unlock: ") + std::strerror(errno));
  }
  held_ = false;
  return Status::Ok();
}

}  // namespace afs::ipc
