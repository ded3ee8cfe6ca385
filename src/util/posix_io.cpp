#include "util/posix_io.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "util/fault.h"

namespace grw::io {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left before `deadline`, clamped at 0; -1 for "no
/// deadline" (infinite poll).
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<int64_t>(0, left.count()));
}

/// Waits for `events` on `fd`. Returns 1 when ready, 0 on timeout, -1
/// on poll error (errno set). EINTR restarts with the remaining budget.
int WaitReady(int fd, short events, bool has_deadline,
              Clock::time_point deadline) {
  while (true) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, RemainingMs(has_deadline, deadline));
    if (rc > 0) return 1;
    if (rc == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

}  // namespace

IoResult ReadSome(int fd, char* buf, size_t cap, int timeout_ms) {
  IoResult result;
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           has_deadline ? timeout_ms : 0);
  while (true) {
    if (has_deadline) {
      const int ready = WaitReady(fd, POLLIN, true, deadline);
      if (ready == 0) {
        result.status = IoResult::Status::kTimeout;
        return result;
      }
      if (ready < 0) {
        result.status = IoResult::Status::kError;
        result.error = errno;
        return result;
      }
    }
    if (GRW_FAULT("io.read.eintr")) continue;  // as if read() hit EINTR
    if (GRW_FAULT("io.read.fail")) {
      result.status = IoResult::Status::kError;
      result.error = EIO;
      return result;
    }
    const ssize_t n = ::read(fd, buf, cap);
    if (n > 0) {
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (n == 0) {
      result.status = IoResult::Status::kEof;
      return result;
    }
    if (errno == EINTR) continue;
    result.status = IoResult::Status::kError;
    result.error = errno;
    return result;
  }
}

IoResult WriteAll(int fd, const void* data, size_t len, int timeout_ms) {
  IoResult result;
  const char* bytes = static_cast<const char*>(data);
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           has_deadline ? timeout_ms : 0);
  size_t off = 0;
  while (off < len) {
    if (has_deadline) {
      const int ready = WaitReady(fd, POLLOUT, true, deadline);
      if (ready == 0) {
        result.status = IoResult::Status::kTimeout;
        result.bytes = off;
        return result;
      }
      if (ready < 0) {
        result.status = IoResult::Status::kError;
        result.error = errno;
        result.bytes = off;
        return result;
      }
    }
    if (GRW_FAULT("io.write.eintr")) continue;  // as if write() hit EINTR
    if (GRW_FAULT("io.write.fail")) {
      result.status = IoResult::Status::kError;
      result.error = EIO;
      result.bytes = off;
      return result;
    }
    // A short-write fault caps the chunk at one byte, proving the loop
    // completes the rest (this is the bug class the helper exists for).
    const size_t chunk =
        GRW_FAULT("io.write.short") ? 1 : len - off;
    const ssize_t n = ::write(fd, bytes + off, chunk);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    result.status = IoResult::Status::kError;
    result.error = n < 0 ? errno : EIO;
    result.bytes = off;
    return result;
  }
  result.bytes = off;
  return result;
}

IoResult ReadAt(int fd, void* buf, size_t len, uint64_t offset) {
  IoResult result;
  char* bytes = static_cast<char*>(buf);
  while (result.bytes < len) {
    if (GRW_FAULT("io.pread.eintr")) continue;  // as if pread() hit EINTR
    // A short-read fault caps the chunk at one byte, proving the loop
    // reads the rest.
    const size_t chunk =
        GRW_FAULT("io.pread.short") ? 1 : len - result.bytes;
    const ssize_t n =
        ::pread(fd, bytes + result.bytes, chunk,
                static_cast<off_t>(offset + result.bytes));
    if (n > 0) {
      result.bytes += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      result.status = IoResult::Status::kEof;
      return result;
    }
    if (errno == EINTR) continue;
    result.status = IoResult::Status::kError;
    result.error = errno;
    return result;
  }
  return result;
}

IoResult WriteAll(int fd, std::string_view data, int timeout_ms) {
  return WriteAll(fd, data.data(), data.size(), timeout_ms);
}

int ConnectWithTimeout(int fd, const struct sockaddr* addr, socklen_t len,
                       int timeout_ms) {
  if (GRW_FAULT("io.connect.fail")) {
    errno = ECONNREFUSED;
    return -1;
  }
  // Always connect non-blocking + poll: one code path covers both the
  // bounded and the unbounded (`timeout_ms < 0`) case.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return -1;

  int rc = ::connect(fd, addr, len);
  if (rc < 0 && errno == EINTR) {
    // An interrupted connect completes asynchronously; fall through to
    // the poll wait exactly as for EINPROGRESS.
    errno = EINPROGRESS;
  }
  if (rc < 0 && errno == EINPROGRESS) {
    const bool has_deadline = timeout_ms >= 0;
    const auto deadline = Clock::now() + std::chrono::milliseconds(
                                             has_deadline ? timeout_ms : 0);
    const int ready = WaitReady(fd, POLLOUT, has_deadline, deadline);
    if (ready == 0) {
      ::fcntl(fd, F_SETFL, flags);
      errno = ETIMEDOUT;
      return -1;
    }
    if (ready < 0) {
      const int saved = errno;
      ::fcntl(fd, F_SETFL, flags);
      errno = saved;
      return -1;
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) < 0) {
      const int saved = errno;
      ::fcntl(fd, F_SETFL, flags);
      errno = saved;
      return -1;
    }
    if (so_error != 0) {
      ::fcntl(fd, F_SETFL, flags);
      errno = so_error;
      return -1;
    }
    rc = 0;
  }
  const int saved = errno;
  // Restore blocking mode whether or not the connect succeeded.
  ::fcntl(fd, F_SETFL, flags);
  errno = saved;
  return rc == 0 ? 0 : -1;
}

int Fsync(int fd) {
  if (GRW_FAULT("io.fsync.fail")) {
    errno = EIO;
    return -1;
  }
  while (::fsync(fd) < 0) {
    if (errno != EINTR) return -1;
  }
  return 0;
}

}  // namespace grw::io
