// Checked POSIX IO: the single home for raw read/write/connect/fsync
// syscalls (lint rule `raw-posix-io` bans them elsewhere).
//
// Every loop here handles the two failure shapes that silently corrupt
// protocols when forgotten at call sites:
//
//   * EINTR — a signal interrupting a slow syscall is a retry, not an
//     error. Each wrapper loops.
//   * short writes — write(2) may accept a prefix; WriteAll() loops
//     until every byte is accepted or a real error occurs. pread(2) may
//     return a prefix too; ReadAt() loops until the whole range is read.
//
// plus a third the serve layer needs for liveness:
//
//   * timeouts — `timeout_ms >= 0` bounds each wait with poll(2), so a
//     hung peer yields Status::kTimeout instead of blocking forever.
//     `timeout_ms < 0` waits indefinitely (the pre-PR-9 behavior,
//     still right for the server's drain path which bounds lifetime by
//     shutdown(2) instead).
//
// Fault-injection sites (armed only under GRW_FAULT_INJECTION; see
// util/fault.h) simulate EINTR, short writes, and hard IO errors inside
// the wrappers, so chaos runs exercise exactly the retry loops that
// production hits rarely:
//
//   io.read.eintr   io.read.fail    io.write.eintr   io.write.short
//   io.write.fail   io.connect.fail io.fsync.fail
//   io.pread.eintr  io.pread.short
#pragma once

#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace grw::io {

struct IoResult {
  enum class Status {
    kOk,       // request satisfied (all bytes written / >= 1 byte read)
    kEof,      // orderly peer close before any byte (reads only)
    kTimeout,  // timeout_ms elapsed with the fd not ready
    kError,    // errno-level failure; `error` holds it
  };
  Status status = Status::kOk;
  size_t bytes = 0;  // bytes actually transferred
  int error = 0;     // errno when status == kError

  bool ok() const { return status == Status::kOk; }
};

/// Reads up to `cap` bytes, retrying EINTR. Returns kOk with bytes >= 1,
/// kEof on orderly close, kTimeout if `timeout_ms >= 0` elapses first.
IoResult ReadSome(int fd, char* buf, size_t cap, int timeout_ms = -1);

/// Writes ALL of `data`, looping over partial writes and EINTR. kOk
/// means every byte was accepted by the kernel; on kError/kTimeout,
/// `bytes` says how many made it out (the stream is presumed poisoned).
IoResult WriteAll(int fd, std::string_view data, int timeout_ms = -1);
IoResult WriteAll(int fd, const void* data, size_t len, int timeout_ms = -1);

/// Reads exactly `len` bytes of a regular file at `offset` with
/// pread(2), retrying EINTR and continuing after short reads. kOk means
/// all `len` bytes arrived; kEof means the file ended first (`bytes`
/// says how many did); kError carries errno.
IoResult ReadAt(int fd, void* buf, size_t len, uint64_t offset);

/// connect(2) with a bounded wait (non-blocking connect + poll). Returns
/// 0 on success; -1 with errno set on failure (ETIMEDOUT when the
/// timeout elapsed). The fd is left in blocking mode on return.
int ConnectWithTimeout(int fd, const struct sockaddr* addr, socklen_t len,
                       int timeout_ms);

/// fsync(2) with EINTR retry (and a chaos site). 0 or -1/errno.
int Fsync(int fd);

}  // namespace grw::io
