#include "graph/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "util/fault.h"

namespace grw {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error("MappedFile: " + what + " " + path + ": " +
                           std::strerror(errno));
}

}  // namespace

void* MapPages(size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void UnmapPages(void* p, size_t bytes) noexcept { ::munmap(p, bytes); }

size_t PageBytes() {
  static const size_t bytes = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

MappedFile::~MappedFile() { Release(); }

void MappedFile::Release() noexcept {
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      fd_(std::exchange(other.fd_, -1)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

MappedFile MappedFile::Open(const std::string& path, bool keep_descriptor) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) ThrowErrno("cannot open", path);

  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("cannot stat", path);
  }

  MappedFile mf;
  mf.size_ = static_cast<size_t>(st.st_size);
  if (mf.size_ > 0) {
    void* addr = ::mmap(nullptr, mf.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      ThrowErrno("cannot mmap", path);
    }
    mf.data_ = static_cast<const unsigned char*>(addr);
  }

  // Detect a file that shrank between the stat and the mmap: pages past
  // the new EOF would raise SIGBUS on first touch — possibly minutes
  // into an estimate. Re-stat through the still-open descriptor and
  // fail the load up front instead. (Shrinking AFTER this check cannot
  // happen for `.grwb` files: SaveGraphBinary never truncates a live
  // path, it atomically renames a complete temp file over it, so an
  // existing mapping always covers a complete old inode.)
  struct stat st2 {};
  const bool restat_ok = ::fstat(fd, &st2) == 0;
  size_t size_now = restat_ok ? static_cast<size_t>(st2.st_size) : 0;
  if (GRW_FAULT("mmap.shrink")) size_now = mf.size_ / 2;
  if (!restat_ok || size_now < mf.size_) {
    ::close(fd);
    // mf's destructor unmaps.
    throw std::runtime_error(
        "MappedFile: " + path + ": file truncated while mapping (" +
        std::to_string(size_now) + " of " + std::to_string(mf.size_) +
        " bytes remain); refusing a mapping that would SIGBUS");
  }

  // The mapping outlives the descriptor, unless the caller keeps it.
  if (keep_descriptor) {
    mf.fd_ = fd;
  } else {
    ::close(fd);
  }
  return mf;
}

}  // namespace grw
