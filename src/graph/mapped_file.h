// RAII wrapper over a read-only memory-mapped file.
//
// Backs the zero-copy `.grwb` snapshot load path (graph/format.h): the
// kernel pages graph data in on demand, so opening a multi-gigabyte
// snapshot costs a handful of page faults instead of a full parse, and the
// page cache is shared across processes benchmarking the same dataset.
// POSIX-only (mmap/munmap), which matches the toolchain this project
// targets; the wrapper is the single place a port would touch.

#pragma once

#include <cstddef>
#include <string>

namespace grw {

/// The OS page size: the unit a mapping is held in.
size_t PageBytes();

/// Movable, non-copyable read-only file mapping. The mapping lives until
/// destruction; spans handed out by the loader must not outlive it (the
/// Graph keeps its MappedFile alive through Graph::Backing).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Throws std::runtime_error (with the path and
  /// errno text) if the file cannot be opened, stat'ed, or mapped.
  /// An empty file yields a valid MappedFile with size() == 0. With
  /// `keep_descriptor` the descriptor the mapping was made from stays
  /// open until destruction (fd()), for reads that must not map pages.
  static MappedFile Open(const std::string& path,
                         bool keep_descriptor = false);

  const unsigned char* data() const { return data_; }
  size_t size() const { return size_; }
  /// The kept descriptor, or -1.
  int fd() const { return fd_; }

 private:
  void Release() noexcept;

  const unsigned char* data_ = nullptr;
  size_t size_ = 0;
  int fd_ = -1;
};

}  // namespace grw
