#include "graph/sharding.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "graph/mapped_file.h"
#include "util/fault.h"
#include "util/posix_io.h"

namespace grw {

namespace {

// On-disk headers; both 64 bytes like GrwbHeader, memcpy'd whole, so
// they must stay padding-free with the checksum as the final field.
struct GrwsShardHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t shard_index;
  uint32_t flags;
  uint64_t first_node;
  uint64_t num_rows;
  uint64_t total_nodes;  // global count, for neighbor-id bound checks
  uint64_t num_half_edges;
  uint64_t data_checksum;  // over rebased offsets then neighbors
  uint64_t header_checksum;
};
static_assert(sizeof(GrwsShardHeader) == 64);
static_assert(offsetof(GrwsShardHeader, header_checksum) == 56);

struct GrwmHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t num_shards;
  uint32_t flags;
  uint64_t total_nodes;
  uint64_t total_half_edges;
  uint64_t table_checksum;  // over histogram bytes then shard records
  uint64_t reserved = 0;
  uint64_t reserved2 = 0;
  uint64_t header_checksum;
};
static_assert(sizeof(GrwmHeader) == 64);
static_assert(offsetof(GrwmHeader, header_checksum) == 56);

// The shard records are the ShardInfo structs verbatim: five u64 fields,
// trivially copyable, no padding.
static_assert(sizeof(ShardInfo) == 40);
static_assert(std::is_trivially_copyable_v<ShardInfo>);

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

// Same checksum recipe as the monolithic format (format.cpp): FNV-1a
// over the offsets bytes, continued over the neighbors bytes.
uint64_t DataChecksum(std::span<const uint64_t> offsets,
                      std::span<const VertexId> neighbors) {
  uint64_t h = Fnv1a(offsets.data(), offsets.size_bytes(), kFnvOffsetBasis);
  return Fnv1a(neighbors.data(), neighbors.size_bytes(), h);
}

template <class Header>
uint64_t HeaderChecksum(const Header& h) {
  return Fnv1a(&h, offsetof(Header, header_checksum), kFnvOffsetBasis);
}

[[noreturn]] void BadManifest(const std::string& path,
                              const std::string& why) {
  throw SnapshotCorruptError("LoadShardManifest: " + path + ": " + why);
}

// Takes the manifest and index, not a path: the shard path string is
// built only when a check actually fails, never on the fault hot path.
[[noreturn]] void BadShard(const ShardManifest& manifest, uint32_t index,
                           const std::string& why) {
  throw SnapshotCorruptError("MapShard: " + manifest.ShardPath(index) +
                             ": " + why);
}

uint64_t ShardFileBytes(uint64_t num_rows, uint64_t num_half_edges) {
  return sizeof(GrwsShardHeader) + (num_rows + 1) * sizeof(uint64_t) +
         num_half_edges * sizeof(VertexId);
}

// Crash-safe multi-part file write: same-directory temp, WriteAll each
// part, fsync, close, atomic rename, directory fsync — the discipline of
// SaveGraphBinary (format.cpp), shared by shard and manifest writes.
// The chaos sites mirror the grwb.save.* family.
void AtomicWriteFile(
    const std::string& path,
    std::initializer_list<std::pair<const void*, size_t>> parts) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0 || GRW_FAULT("grws.save.open")) {
    if (fd >= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
    }
    throw std::runtime_error("WriteShardedGraph: cannot open " + tmp + ": " +
                             std::strerror(fd < 0 ? errno : EIO));
  }
  const auto fail = [&](const std::string& what, int err) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("WriteShardedGraph: " + what + " " + tmp +
                             ": " + std::strerror(err));
  };

  io::IoResult w;
  for (const auto& [data, len] : parts) {
    w = io::WriteAll(fd, data, len);
    if (!w.ok()) break;
  }
  // Chaos site simulating a crash with the payload half written: the
  // destination must remain absent or the previous complete file, and —
  // because the manifest is written last — the directory as a whole must
  // remain either not-yet-sharded or fully consistent.
  if (GRW_FAULT("grws.save.crash")) ::_exit(137);
  if (!w.ok() || GRW_FAULT("grws.save.write")) {
    fail("write failure on", w.ok() ? EIO : w.error);
  }
  if (io::Fsync(fd) < 0) fail("fsync failure on", errno);
  if (::close(fd) < 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("WriteShardedGraph: close failure on " + tmp +
                             ": " + std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) < 0 ||
      GRW_FAULT("grws.save.rename")) {
    const int err = errno != 0 ? errno : EIO;
    ::unlink(tmp.c_str());
    throw std::runtime_error("WriteShardedGraph: cannot rename " + tmp +
                             " to " + path + ": " + std::strerror(err));
  }
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

// Cut points of the vertex-range partition: `cuts[s]` is one past the
// last row of shard s; cuts.back() == n. Balanced by half-edge mass for
// a fixed count, greedy by file size for a byte target; every shard gets
// at least one row either way.
std::vector<uint64_t> PlanCuts(std::span<const uint64_t> offsets, uint64_t n,
                               const ShardingOptions& opt) {
  std::vector<uint64_t> cuts;
  const uint64_t total_half = offsets[n];
  if (opt.num_shards > 0) {
    const uint64_t shards = opt.num_shards;
    if (shards > n) {
      throw std::invalid_argument(
          "WriteShardedGraph: num_shards " + std::to_string(shards) +
          " exceeds the node count " + std::to_string(n));
    }
    cuts.reserve(shards);
    uint64_t start = 0;
    for (uint64_t s = 0; s < shards; ++s) {
      // Ideal cumulative mass through shard s, in 128-bit to survive
      // total_half * shards overflowing 64 bits.
      const auto target = static_cast<uint64_t>(
          (static_cast<unsigned __int128>(total_half) * (s + 1)) / shards);
      const auto it = std::lower_bound(
          offsets.begin() + 1,
          offsets.begin() + 1 + static_cast<ptrdiff_t>(n), target);
      uint64_t cut = static_cast<uint64_t>(it - offsets.begin());
      // Keep the partition monotone with >= 1 row here and >= 1 row for
      // each remaining shard.
      cut = std::max(cut, start + 1);
      cut = std::min(cut, n - (shards - s - 1));
      cuts.push_back(cut);
      start = cut;
    }
  } else {
    const uint64_t target = std::max<uint64_t>(opt.target_shard_bytes, 1);
    uint64_t start = 0;
    while (start < n) {
      uint64_t end = start + 1;
      while (end < n &&
             ShardFileBytes(end + 1 - start, offsets[end + 1] - offsets[start]) <=
                 target) {
        ++end;
      }
      cuts.push_back(end);
      start = end;
    }
  }
  return cuts;
}

}  // namespace

std::string ShardManifest::ShardPath(uint32_t index) const {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%05u.grws", index);
  return dir + "/" + name;
}

uint32_t ShardManifest::ShardOf(VertexId v) const {
  // Last shard whose first_node <= v; ranges are contiguous and sorted.
  const auto it = std::upper_bound(
      shards.begin(), shards.end(), static_cast<uint64_t>(v),
      [](uint64_t node, const ShardInfo& s) { return node < s.first_node; });
  return static_cast<uint32_t>(it - shards.begin()) - 1;
}

uint64_t ShardManifest::TotalShardBytes() const {
  uint64_t total = 0;
  for (const ShardInfo& s : shards) total += s.file_bytes;
  return total;
}

ShardManifest WriteShardedGraph(const Graph& g, const std::string& dir,
                                const ShardingOptions& options) {
  const uint64_t n = g.NumNodes();
  if (n == 0) {
    throw std::invalid_argument("WriteShardedGraph: cannot shard an empty "
                                "graph (no vertex rows to partition)");
  }
  const std::span<const uint64_t> offsets = g.RawOffsets();
  const std::span<const VertexId> neighbors = g.RawNeighbors();

  std::filesystem::create_directories(dir);

  ShardManifest manifest;
  manifest.version = kGrwsVersion;
  manifest.flags = options.flags;
  manifest.total_nodes = n;
  manifest.total_half_edges = neighbors.size();
  manifest.dir = dir;
  manifest.path = dir + "/" + kShardManifestName;
  for (uint64_t v = 0; v < n; ++v) {
    const auto deg = static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
    ++manifest.degree_histogram[std::bit_width(deg)];
  }

  const std::vector<uint64_t> cuts = PlanCuts(offsets, n, options);

  // Shards first; a crash mid-way leaves a directory with no (or the
  // previous) manifest, never a manifest naming absent/torn shards.
  std::vector<uint64_t> local;  // rebased offsets, reused across shards
  uint64_t start = 0;
  for (uint32_t s = 0; s < cuts.size(); ++s) {
    const uint64_t end = cuts[s];
    const uint64_t rows = end - start;
    const uint64_t base = offsets[start];
    const uint64_t half = offsets[end] - base;
    local.resize(rows + 1);
    for (uint64_t r = 0; r <= rows; ++r) {
      local[r] = offsets[start + r] - base;
    }
    const std::span<const VertexId> slice =
        neighbors.subspan(base, half);

    GrwsShardHeader h{};
    h.magic = kGrwsMagic;
    h.version = kGrwsVersion;
    h.shard_index = s;
    h.flags = options.flags;
    h.first_node = start;
    h.num_rows = rows;
    h.total_nodes = n;
    h.num_half_edges = half;
    h.data_checksum = DataChecksum(local, slice);
    h.header_checksum = HeaderChecksum(h);

    ShardInfo info;
    info.first_node = start;
    info.num_rows = rows;
    info.num_half_edges = half;
    info.file_bytes = ShardFileBytes(rows, half);
    info.data_checksum = h.data_checksum;
    manifest.shards.push_back(info);

    AtomicWriteFile(manifest.ShardPath(s),
                    {{&h, sizeof h},
                     {local.data(), local.size() * sizeof(uint64_t)},
                     {slice.data(), slice.size_bytes()}});
    start = end;
  }

  GrwmHeader mh{};
  mh.magic = kGrwmMagic;
  mh.version = kGrwsVersion;
  mh.num_shards = static_cast<uint32_t>(manifest.shards.size());
  mh.flags = options.flags;
  mh.total_nodes = n;
  mh.total_half_edges = neighbors.size();
  mh.table_checksum =
      Fnv1a(manifest.shards.data(), manifest.shards.size() * sizeof(ShardInfo),
            Fnv1a(manifest.degree_histogram.data(),
                  sizeof(manifest.degree_histogram), kFnvOffsetBasis));
  mh.header_checksum = HeaderChecksum(mh);

  AtomicWriteFile(manifest.path,
                  {{&mh, sizeof mh},
                   {manifest.degree_histogram.data(),
                    sizeof(manifest.degree_histogram)},
                   {manifest.shards.data(),
                    manifest.shards.size() * sizeof(ShardInfo)}});
  return manifest;
}

ShardManifest LoadShardManifest(const std::string& path, bool verify_shards) {
  std::string mpath = path;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    while (!mpath.empty() && mpath.back() == '/') mpath.pop_back();
    mpath += "/";
    mpath += kShardManifestName;
    if (!std::filesystem::exists(mpath, ec)) {
      BadManifest(mpath, "directory holds no " +
                             std::string(kShardManifestName) +
                             " (not a sharded graph)");
    }
  }
  const MappedFile file = MappedFile::Open(mpath);
  if (file.size() < sizeof(GrwmHeader)) {
    BadManifest(mpath, "file too small for a manifest header (" +
                           std::to_string(file.size()) + " bytes)");
  }
  GrwmHeader h;
  std::memcpy(&h, file.data(), sizeof h);
  if (h.magic != kGrwmMagic) {
    BadManifest(mpath, "bad magic (not a sharded-graph manifest)");
  }
  if (h.version != kGrwsVersion) {
    BadManifest(mpath, "unsupported manifest version " +
                           std::to_string(h.version) + " (expected " +
                           std::to_string(kGrwsVersion) + ")");
  }
  if (h.header_checksum != HeaderChecksum(h)) {
    BadManifest(mpath, "manifest header checksum mismatch (corrupted "
                       "header)");
  }
  if (h.num_shards == 0) {
    BadManifest(mpath, "manifest names zero shards");
  }
  if (h.total_nodes > std::numeric_limits<VertexId>::max()) {
    BadManifest(mpath, "total_nodes " + std::to_string(h.total_nodes) +
                           " exceeds the 32-bit node id space");
  }
  const size_t expected_bytes =
      sizeof(GrwmHeader) + kDegreeHistogramBuckets * sizeof(uint64_t) +
      static_cast<size_t>(h.num_shards) * sizeof(ShardInfo);
  if (file.size() != expected_bytes) {
    BadManifest(mpath, "truncated or oversized manifest: " +
                           std::to_string(file.size()) +
                           " bytes, header implies " +
                           std::to_string(expected_bytes));
  }

  ShardManifest manifest;
  manifest.version = h.version;
  manifest.flags = h.flags;
  manifest.total_nodes = h.total_nodes;
  manifest.total_half_edges = h.total_half_edges;
  manifest.path = mpath;
  const size_t slash = mpath.find_last_of('/');
  manifest.dir = slash == std::string::npos ? std::string(".")
                                            : mpath.substr(0, slash);
  std::memcpy(manifest.degree_histogram.data(),
              file.data() + sizeof(GrwmHeader),
              sizeof(manifest.degree_histogram));
  manifest.shards.resize(h.num_shards);
  std::memcpy(manifest.shards.data(),
              file.data() + sizeof(GrwmHeader) +
                  sizeof(manifest.degree_histogram),
              manifest.shards.size() * sizeof(ShardInfo));

  const uint64_t table_checksum =
      Fnv1a(manifest.shards.data(), manifest.shards.size() * sizeof(ShardInfo),
            Fnv1a(manifest.degree_histogram.data(),
                  sizeof(manifest.degree_histogram), kFnvOffsetBasis));
  if (table_checksum != h.table_checksum) {
    BadManifest(mpath, "shard-table checksum mismatch (corrupted manifest "
                       "payload)");
  }

  // The shard records must partition [0, total_nodes) contiguously, in
  // order, each non-empty, and their half-edge counts must add up.
  uint64_t expected_first = 0;
  uint64_t half_sum = 0;
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardInfo& info = manifest.shards[s];
    if (info.num_rows == 0) {
      BadManifest(mpath, "shard " + std::to_string(s) + " covers zero rows");
    }
    if (info.first_node < expected_first) {
      BadManifest(mpath,
                  "shard ranges overlap at shard " + std::to_string(s) +
                      " (starts at node " + std::to_string(info.first_node) +
                      ", previous shard ends at " +
                      std::to_string(expected_first) + ")");
    }
    if (info.first_node > expected_first) {
      BadManifest(mpath,
                  "gap in shard ranges before shard " + std::to_string(s) +
                      " (nodes " + std::to_string(expected_first) + ".." +
                      std::to_string(info.first_node - 1) + " unassigned)");
    }
    if (info.file_bytes != ShardFileBytes(info.num_rows,
                                          info.num_half_edges)) {
      BadManifest(mpath, "shard " + std::to_string(s) +
                             " file size inconsistent with its row/edge "
                             "counts");
    }
    expected_first = info.first_node + info.num_rows;
    half_sum += info.num_half_edges;
  }
  if (expected_first != manifest.total_nodes) {
    BadManifest(mpath, "shard ranges cover " + std::to_string(expected_first) +
                           " of " + std::to_string(manifest.total_nodes) +
                           " nodes");
  }
  if (half_sum != manifest.total_half_edges) {
    BadManifest(mpath, "shard half-edge counts sum to " +
                           std::to_string(half_sum) + ", manifest claims " +
                           std::to_string(manifest.total_half_edges));
  }

  if (verify_shards) {
    for (uint32_t s = 0; s < manifest.NumShards(); ++s) {
      (void)MapShard(manifest, s, /*verify_checksum=*/true);
    }
  }
  return manifest;
}

bool IsShardManifestPath(const std::string& path) {
  std::error_code ec;
  std::string mpath = path;
  if (std::filesystem::is_directory(path, ec)) {
    while (!mpath.empty() && mpath.back() == '/') mpath.pop_back();
    mpath += "/";
    mpath += kShardManifestName;
    if (!std::filesystem::exists(mpath, ec)) return false;
  }
  std::FILE* f = std::fopen(mpath.c_str(), "rb");
  if (f == nullptr) {
    if (!std::filesystem::exists(mpath, ec)) return false;
    throw std::runtime_error("IsShardManifestPath: cannot open " + mpath);
  }
  uint32_t magic = 0;
  const bool got = std::fread(&magic, sizeof magic, 1, f) == 1;
  std::fclose(f);
  return got && magic == kGrwmMagic;
}

uint64_t ShardContentChecksum(const ShardManifest& manifest) {
  uint64_t checksum = 0;
  for (const ShardInfo& s : manifest.shards) {
    checksum ^= s.data_checksum;
    checksum = checksum * kFnvPrime + s.num_rows;
  }
  return checksum;
}

void MappedShard::DropPages() const { file_.DropPages(); }

void CheckShardBytes(const ShardManifest& manifest, uint32_t index,
                     const MappedFile& file, bool verify_checksum) {
  const size_t file_bytes = file.size();
  if (file_bytes < sizeof(GrwsShardHeader)) {
    BadShard(manifest, index, "file too small for a .grws shard header (" +
                                  std::to_string(file_bytes) + " bytes)");
  }
  GrwsShardHeader h;
  std::memcpy(&h, file.data(), sizeof h);
  if (h.magic != kGrwsMagic) {
    BadShard(manifest, index, "bad magic (not a .grws shard)");
  }
  if (h.version != kGrwsVersion) {
    BadShard(manifest, index,
             "unsupported shard version " + std::to_string(h.version) +
                 " (expected " + std::to_string(kGrwsVersion) + ")");
  }
  if (h.header_checksum != HeaderChecksum(h)) {
    BadShard(manifest, index,
             "shard header checksum mismatch (corrupted header)");
  }
  if (h.total_nodes > std::numeric_limits<VertexId>::max() ||
      h.first_node + h.num_rows > h.total_nodes) {
    BadShard(manifest, index,
             "shard vertex range exceeds the graph's node count");
  }
  if (file_bytes != ShardFileBytes(h.num_rows, h.num_half_edges)) {
    BadShard(manifest, index,
             "truncated or oversized shard: " + std::to_string(file_bytes) +
                 " bytes, header implies " +
                 std::to_string(ShardFileBytes(h.num_rows, h.num_half_edges)));
  }
  const ShardInfo& info = manifest.shards[index];
  if (h.shard_index != index) {
    BadShard(manifest, index,
             "shard index mismatch: header says " +
                 std::to_string(h.shard_index) + ", manifest slot is " +
                 std::to_string(index));
  }
  if (h.first_node != info.first_node || h.num_rows != info.num_rows ||
      h.num_half_edges != info.num_half_edges) {
    BadShard(manifest, index,
             "shard vertex range disagrees with the manifest "
             "(stale manifest or mixed shard generations)");
  }
  if (h.total_nodes != manifest.total_nodes || h.flags != manifest.flags) {
    BadShard(manifest, index,
             "shard global header fields disagree with the manifest "
             "(mixed shard generations)");
  }
  if (h.data_checksum != info.data_checksum) {
    BadShard(manifest, index,
             "checksum disagreement between shard and manifest "
             "(stale manifest: the shard was rewritten without "
             "rewriting " + std::string(kShardManifestName) +
                 ", or vice versa)");
  }

  const std::span<const uint64_t> offsets(
      reinterpret_cast<const uint64_t*>(file.data() +
                                        sizeof(GrwsShardHeader)),
      h.num_rows + 1);
  const std::span<const VertexId> neighbors(
      reinterpret_cast<const VertexId*>(offsets.data() + offsets.size()),
      h.num_half_edges);
  // Cheap structural sanity touching only the offsets edges.
  if (offsets.front() != 0 || offsets.back() != h.num_half_edges) {
    BadShard(manifest, index,
             "shard offsets inconsistent with header (corrupted data)");
  }
  if (verify_checksum) {
    for (size_t r = 0; r + 1 < offsets.size(); ++r) {
      if (offsets[r] > offsets[r + 1]) {
        BadShard(manifest, index,
                 "shard offsets not monotone at row " + std::to_string(r));
      }
    }
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] >= h.total_nodes) {
        BadShard(manifest, index,
                 "neighbor id out of range at index " + std::to_string(i));
      }
    }
    if (DataChecksum(offsets, neighbors) != h.data_checksum) {
      BadShard(manifest, index,
               "data checksum mismatch (corrupted shard payload)");
    }
  }
}

MappedShard MapShard(const ShardManifest& manifest, uint32_t index,
                     bool verify_checksum) {
  const std::string path = manifest.ShardPath(index);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    BadShard(manifest, index,
             "missing shard file (manifest " + manifest.path + " names " +
                 std::to_string(manifest.NumShards()) + " shards)");
  }
  MappedFile file = MappedFile::Open(path);
  CheckShardBytes(manifest, index, file, verify_checksum);

  // Every field below was just checked against the manifest entry.
  const ShardInfo& info = manifest.shards[index];
  MappedShard shard;
  shard.index_ = index;
  shard.first_node_ = info.first_node;
  shard.num_rows_ = info.num_rows;
  shard.bytes_ = file.size();
  shard.offsets_ = reinterpret_cast<const uint64_t*>(
      file.data() + sizeof(GrwsShardHeader));
  shard.neighbors_ = reinterpret_cast<const VertexId*>(
      shard.offsets_ + info.num_rows + 1);
  shard.file_ = std::move(file);
  return shard;
}

}  // namespace grw
