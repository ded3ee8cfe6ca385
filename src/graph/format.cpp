#include "graph/format.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/mapped_file.h"
#include "graph/source.h"
#include "util/fault.h"
#include "util/posix_io.h"

namespace grw {

namespace {

// Fixed 64-byte header; see format.h for the field-by-field layout. It
// is memcpy'd whole, so it must stay padding-free (HeaderChecksum
// asserts the size and the trailing checksum's offset).
struct GrwbHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t num_nodes;
  uint64_t num_half_edges;
  uint64_t offsets_bytes;
  uint64_t neighbors_bytes;
  uint64_t data_checksum;
  uint32_t flags;
  uint32_t reserved = 0;
  uint64_t header_checksum = 0;
};

[[noreturn]] void Bad(const std::string& path, const std::string& why) {
  throw SnapshotCorruptError("ValidateGrwb: " + path + ": " + why);
}

// Validates a mapped `.grwb` and returns its header: the shared header
// check, the header's own size fields (overflow-free: num_nodes is
// bounded by the 32-bit id space first, and neighbors_bytes is checked
// by division), then the shared CSR check — a full scan with `verify`.
GrwbHeader ValidateGrwb(const std::string& path, const MappedFile& file,
                        bool verify) {
  GrwbHeader h;
  if (auto why = snapshot::ReadHeader(file, kGrwbMagic, kGrwbVersion,
                                      ".grwb snapshot", h)) {
    Bad(path, *why);
  }
  if (h.num_nodes > std::numeric_limits<VertexId>::max()) {
    Bad(path, "num_nodes " + std::to_string(h.num_nodes) +
                  " exceeds the 32-bit node id space");
  }
  if (h.offsets_bytes != (h.num_nodes + 1) * sizeof(uint64_t)) {
    Bad(path, "offsets_bytes inconsistent with num_nodes");
  }
  if (h.neighbors_bytes % sizeof(VertexId) != 0 ||
      h.neighbors_bytes / sizeof(VertexId) != h.num_half_edges) {
    Bad(path, "neighbors_bytes inconsistent with num_half_edges");
  }
  if (auto why = snapshot::CheckCsr(
          file, {h.num_nodes, h.num_half_edges, h.num_nodes, h.data_checksum},
          verify, {"file", "offsets array", "node", "snapshot"})) {
    Bad(path, *why);
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

  GrwbHeader h{.magic = kGrwbMagic,
               .version = kGrwbVersion,
               .num_nodes = g.NumNodes(),
               .num_half_edges = neighbors.size(),
               .offsets_bytes = out_offsets.size_bytes(),
               .neighbors_bytes = neighbors.size_bytes(),
               .data_checksum = snapshot::DataChecksum(out_offsets, neighbors),
               .flags = flags};
  h.header_checksum = snapshot::HeaderChecksum(h);
  snapshot::AtomicWriteFile(path,
                            {{&h, sizeof h},
                             {out_offsets.data(), out_offsets.size_bytes()},
                             {neighbors.data(), neighbors.size_bytes()}},
                            "SaveGraphBinary");
}

std::optional<GraphSource> GraphSource::OpenGraphBinary(
    const std::string& path, bool verify) {
  MappedFile file = MappedFile::Open(path);
  if (file.size() < sizeof kGrwbMagic ||
      std::memcmp(file.data(), &kGrwbMagic, sizeof kGrwbMagic) != 0) {
    return std::nullopt;
  }
  const GrwbHeader h = ValidateGrwb(path, file, verify);
  GraphSource source;
  source.kind_ = GraphSourceKind::kBinary;
  source.checksum_ = h.data_checksum;
  source.relabeled_ = (h.flags & kGrwbFlagDegreeRelabeled) != 0;
  // The offsets array starts at byte 64 of a page-aligned mapping, so both
  // reinterpreted arrays are naturally aligned for their element types.
  const std::span<const uint64_t> offsets(snapshot::CsrOffsets(file),
                                          h.num_nodes + 1);
  const std::span<const VertexId> neighbors(
      snapshot::CsrNeighbors(file, h.num_nodes), h.num_half_edges);
  source.graph_ = Graph(offsets, neighbors,
                        std::make_shared<MappedBacking>(std::move(file)));
  return source;
}

GrwbInfo InspectGraphBinary(const std::string& path) {
  const MappedFile file = MappedFile::Open(path);
  const GrwbHeader h = ValidateGrwb(path, file, /*verify=*/false);
  return {h.version, h.num_nodes, h.num_half_edges,
          h.flags, file.size(), h.data_checksum};
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

namespace snapshot {

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
  return Fnv1a(neighbors.data(), neighbors.size_bytes(),
               Fnv1a(offsets.data(), offsets.size_bytes()));
}

void AtomicWriteFile(
    const std::string& path,
    std::initializer_list<std::pair<const void*, size_t>> parts,
    const char* who) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = -1;
  const auto fail = [&](const std::string& what, int err) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string(who) + ": " + what + ": " +
                             std::strerror(err));
  };
  fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open " + tmp, errno);
  if (GRW_FAULT("snapshot.save.open")) fail("cannot open " + tmp, EIO);

  io::IoResult w;
  for (auto part = parts.begin(); part != parts.end() && w.ok(); ++part) {
    // Chaos site: the process dies (as under `kill -9`) with the last
    // part unwritten. `path` must still be absent or the previous
    // complete file, and the torn temp must fail validation.
    if (part + 1 == parts.end() && GRW_FAULT("snapshot.save.crash")) {
      ::_exit(137);
    }
    w = io::WriteAll(fd, part->first, part->second);
  }
  if (!w.ok() || GRW_FAULT("snapshot.save.write")) {
    fail("write failure on " + tmp, w.ok() ? EIO : w.error);
  }
  // Data must be durable BEFORE the rename publishes it: rename-then-
  // fsync could surface a complete-looking file with unwritten pages
  // after power loss.
  if (io::Fsync(fd) < 0) fail("fsync failure on " + tmp, errno);
  const int closed = ::close(std::exchange(fd, -1));
  if (closed < 0) fail("close failure on " + tmp, errno);
  if (::rename(tmp.c_str(), path.c_str()) < 0 ||
      GRW_FAULT("snapshot.save.rename")) {
    fail("cannot rename " + tmp + " to " + path, errno != 0 ? errno : EIO);
  }
  // Make the rename itself durable (best effort: some filesystems
  // refuse O_RDONLY directory fsync; the data above is already synced).
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir_fd >= 0) {
    io::Fsync(dir_fd);
    ::close(dir_fd);
  }
}

bool CsrSizeMatches(uint64_t file_bytes, const CsrFields& fields) {
  if (file_bytes < kHeaderBytes) return false;
  const uint64_t payload = file_bytes - kHeaderBytes;
  // num_rows + 1 offsets must fit, so (num_rows + 1) * 8 <= payload.
  if (fields.num_rows >= payload / sizeof(uint64_t)) return false;
  const uint64_t neighbor_bytes =
      payload - (fields.num_rows + 1) * sizeof(uint64_t);
  return neighbor_bytes % sizeof(VertexId) == 0 &&
         neighbor_bytes / sizeof(VertexId) == fields.num_half_edges;
}

std::optional<std::string> CheckCsr(const MappedFile& file,
                                    const CsrFields& fields, bool verify,
                                    const CsrWords& words) {
  if (!CsrSizeMatches(file.size(), fields)) {
    return std::string("truncated or oversized ") + words.file + ": " +
           std::to_string(file.size()) + " bytes, header implies " +
           std::to_string(fields.num_rows) + " " + words.row + "s and " +
           std::to_string(fields.num_half_edges) + " neighbor ids";
  }
  const std::span<const uint64_t> offsets(CsrOffsets(file),
                                          fields.num_rows + 1);
  const std::span<const VertexId> neighbors(
      CsrNeighbors(file, fields.num_rows), fields.num_half_edges);
  // Touches only the first and last offset page.
  if (offsets.front() != 0 || offsets.back() != fields.num_half_edges) {
    return std::string(words.offsets) +
           " inconsistent with header (corrupted data)";
  }
  if (!verify) return std::nullopt;
  // The checksum only catches accidental corruption; the scans are the
  // invariants the walk code relies on to stay in bounds.
  for (uint64_t r = 0; r < fields.num_rows; ++r) {
    if (offsets[r] > offsets[r + 1]) {
      return std::string(words.offsets) + " not monotone at " + words.row +
             " " + std::to_string(r);
    }
  }
  for (uint64_t i = 0; i < neighbors.size(); ++i) {
    if (neighbors[i] >= fields.id_bound) {
      return "neighbor id out of range at index " + std::to_string(i);
    }
  }
  if (DataChecksum(offsets, neighbors) != fields.data_checksum) {
    return std::string("data checksum mismatch (corrupted ") +
           words.payload + ")";
  }
  return std::nullopt;
}

}  // namespace snapshot

}  // namespace grw
