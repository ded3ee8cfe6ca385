#include "graph/format.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "graph/io.h"
#include "graph/mapped_file.h"
#include "util/fault.h"
#include "util/posix_io.h"

namespace grw {

namespace {

// Fixed 64-byte header; see format.h for the field-by-field layout.
struct GrwbHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t num_nodes;
  uint64_t num_half_edges;
  uint64_t offsets_bytes;
  uint64_t neighbors_bytes;
  uint64_t data_checksum;
  uint32_t flags;
  uint32_t reserved;
  uint64_t header_checksum;
};
static_assert(sizeof(GrwbHeader) == 64, "GrwbHeader must be 64 bytes");
// The header is written/read by memcpy of the in-memory representation;
// keep it free of padding so the layout is the documented one.
static_assert(offsetof(GrwbHeader, header_checksum) == 56);

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t DataChecksum(std::span<const uint64_t> offsets,
                      std::span<const VertexId> neighbors) {
  uint64_t h = Fnv1a(offsets.data(), offsets.size_bytes(), kFnvOffsetBasis);
  return Fnv1a(neighbors.data(), neighbors.size_bytes(), h);
}

uint64_t HeaderChecksum(const GrwbHeader& h) {
  return Fnv1a(&h, offsetof(GrwbHeader, header_checksum), kFnvOffsetBasis);
}

[[noreturn]] void Bad(const std::string& path, const std::string& why) {
  throw SnapshotCorruptError("LoadGraphBinary: " + path + ": " + why);
}

// Validates everything that can be checked without touching the data
// pages: magic, version, internal size consistency, file size, and the
// header checksum.
GrwbHeader ValidateHeader(const std::string& path, const unsigned char* data,
                          size_t file_bytes) {
  if (file_bytes < sizeof(GrwbHeader)) {
    Bad(path, "file too small for a .grwb header (" +
                  std::to_string(file_bytes) + " bytes)");
  }
  GrwbHeader h;
  std::memcpy(&h, data, sizeof h);
  if (h.magic != kGrwbMagic) Bad(path, "bad magic (not a .grwb snapshot)");
  if (h.version != kGrwbVersion) {
    Bad(path, "unsupported version " + std::to_string(h.version) +
                  " (expected " + std::to_string(kGrwbVersion) + ")");
  }
  if (h.header_checksum != HeaderChecksum(h)) {
    Bad(path, "header checksum mismatch (corrupted header)");
  }
  // Ordered so that every arithmetic step below is overflow-free even for
  // adversarial headers: num_nodes is bounded by the 32-bit id space
  // first (so (n + 1) * 8 fits), and neighbors_bytes is derived from the
  // real file size by subtraction instead of multiplying num_half_edges.
  if (h.num_nodes > std::numeric_limits<VertexId>::max()) {
    Bad(path, "num_nodes " + std::to_string(h.num_nodes) +
                  " exceeds the 32-bit node id space");
  }
  if (h.offsets_bytes != (h.num_nodes + 1) * sizeof(uint64_t)) {
    Bad(path, "offsets_bytes inconsistent with num_nodes");
  }
  if (file_bytes < sizeof(GrwbHeader) ||
      file_bytes - sizeof(GrwbHeader) < h.offsets_bytes) {
    Bad(path, "truncated file: offsets array extends past end of file");
  }
  if (h.neighbors_bytes != file_bytes - sizeof(GrwbHeader) - h.offsets_bytes) {
    Bad(path,
        "truncated or oversized file: " + std::to_string(file_bytes) +
            " bytes, header implies " +
            std::to_string(sizeof(GrwbHeader) + h.offsets_bytes +
                           h.neighbors_bytes));
  }
  if (h.neighbors_bytes % sizeof(VertexId) != 0 ||
      h.num_half_edges != h.neighbors_bytes / sizeof(VertexId)) {
    Bad(path, "neighbors_bytes inconsistent with num_half_edges");
  }
  return h;
}

// Backing that keeps the mapping alive for the lifetime of the Graph (and
// all its copies).
struct MappedBacking : Graph::Backing {
  explicit MappedBacking(MappedFile f) : file(std::move(f)) {}
  MappedFile file;
};

}  // namespace

void SaveGraphBinary(const Graph& g, const std::string& path, uint32_t flags) {
  const std::span<const uint64_t> offsets = g.RawOffsets();
  const std::span<const VertexId> neighbors = g.RawNeighbors();
  // A default-constructed Graph has no offsets array at all; snapshot it
  // as the canonical empty graph (one zero offset) so every .grwb file
  // round-trips through the same layout.
  static constexpr uint64_t kEmptyOffsets[1] = {0};
  const std::span<const uint64_t> out_offsets =
      offsets.empty() ? std::span<const uint64_t>(kEmptyOffsets) : offsets;

  GrwbHeader h{};
  h.magic = kGrwbMagic;
  h.version = kGrwbVersion;
  h.num_nodes = g.NumNodes();
  h.num_half_edges = neighbors.size();
  h.offsets_bytes = out_offsets.size_bytes();
  h.neighbors_bytes = neighbors.size_bytes();
  h.data_checksum = DataChecksum(out_offsets, neighbors);
  h.flags = flags;
  h.reserved = 0;
  h.header_checksum = HeaderChecksum(h);

  // Crash-safe write discipline: stage into a same-directory temp file,
  // fsync it, then atomically rename over the destination and fsync the
  // directory. Every interruption point leaves `path` either absent or
  // a complete old/new snapshot; a leftover temp never passes the
  // loader's magic/size/checksum validation as `path`.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0 || GRW_FAULT("grwb.save.open")) {
    if (fd >= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
    }
    throw std::runtime_error("SaveGraphBinary: cannot open " + tmp + ": " +
                             std::strerror(fd < 0 ? errno : EIO));
  }
  const auto fail = [&](const std::string& what, int err) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("SaveGraphBinary: " + what + " " + tmp + ": " +
                             std::strerror(err));
  };

  io::IoResult w = io::WriteAll(fd, &h, sizeof h);
  if (w.ok()) w = io::WriteAll(fd, out_offsets.data(), out_offsets.size_bytes());
  // Chaos site simulating the process dying with the payload half
  // written (same disk state as `kill -9` mid-convert): the destination
  // must still be absent or the previous complete snapshot.
  if (GRW_FAULT("grwb.save.crash")) ::_exit(137);
  if (w.ok()) w = io::WriteAll(fd, neighbors.data(), neighbors.size_bytes());
  if (!w.ok() || GRW_FAULT("grwb.save.write")) {
    fail("write failure on", w.ok() ? EIO : w.error);
  }
  // Data must be durable BEFORE the rename publishes it: rename-then-
  // fsync could surface a complete-looking file with unwritten pages
  // after power loss.
  if (io::Fsync(fd) < 0) fail("fsync failure on", errno);
  if (::close(fd) < 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("SaveGraphBinary: close failure on " + tmp +
                             ": " + std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) < 0 ||
      GRW_FAULT("grwb.save.rename")) {
    const int err = errno != 0 ? errno : EIO;
    ::unlink(tmp.c_str());
    throw std::runtime_error("SaveGraphBinary: cannot rename " + tmp +
                             " to " + path + ": " + std::strerror(err));
  }
  // Make the rename itself durable (best effort: some filesystems
  // refuse O_RDONLY directory fsync; the data above is already synced).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir_fd >= 0) {
    io::Fsync(dir_fd);
    ::close(dir_fd);
  }
}

Graph LoadGraphBinary(const std::string& path, bool verify_checksum) {
  MappedFile file = MappedFile::Open(path);
  const GrwbHeader h = ValidateHeader(path, file.data(), file.size());

  // The offsets array starts at byte 64 of a page-aligned mapping, so both
  // reinterpreted arrays are naturally aligned for their element types.
  const auto* offsets_ptr =
      reinterpret_cast<const uint64_t*>(file.data() + sizeof(GrwbHeader));
  const auto* neighbors_ptr = reinterpret_cast<const VertexId*>(
      file.data() + sizeof(GrwbHeader) + h.offsets_bytes);
  const std::span<const uint64_t> offsets(
      offsets_ptr, static_cast<size_t>(h.num_nodes) + 1);
  const std::span<const VertexId> neighbors(
      neighbors_ptr, static_cast<size_t>(h.num_half_edges));

  // Cheap structural sanity touching only the first and last offset page.
  if (offsets.front() != 0 || offsets.back() != h.num_half_edges) {
    Bad(path, "offsets array inconsistent with header (corrupted data)");
  }
  if (verify_checksum) {
    // Full structural validation for untrusted files: the checksum only
    // catches accidental corruption, while these invariants are what the
    // walk code actually relies on to stay in bounds.
    for (size_t v = 0; v + 1 < offsets.size(); ++v) {
      if (offsets[v] > offsets[v + 1]) {
        Bad(path, "offsets array not monotone at node " + std::to_string(v));
      }
    }
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] >= h.num_nodes) {
        Bad(path, "neighbor id out of range at index " + std::to_string(i));
      }
    }
    if (DataChecksum(offsets, neighbors) != h.data_checksum) {
      Bad(path, "data checksum mismatch (corrupted snapshot)");
    }
  }

  return Graph(offsets, neighbors,
               std::make_shared<MappedBacking>(std::move(file)));
}

GrwbInfo InspectGraphBinary(const std::string& path) {
  const MappedFile file = MappedFile::Open(path);
  const GrwbHeader h = ValidateHeader(path, file.data(), file.size());
  GrwbInfo info;
  info.version = h.version;
  info.num_nodes = h.num_nodes;
  info.num_half_edges = h.num_half_edges;
  info.flags = h.flags;
  info.file_bytes = file.size();
  info.data_checksum = h.data_checksum;
  return info;
}

bool IsGraphBinaryFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("IsGraphBinaryFile: cannot open " + path);
  }
  uint32_t magic = 0;
  const bool got = std::fread(&magic, sizeof magic, 1, f) == 1;
  std::fclose(f);
  return got && magic == kGrwbMagic;
}

}  // namespace grw
