#include "graph/sharding.h"

#include <algorithm>
#include <bit>
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
#include "util/posix_io.h"

namespace grw {

namespace {

// On-disk headers; both 64 bytes like GrwbHeader, memcpy'd whole, so
// they must stay padding-free with the checksum as the final field
// (HeaderChecksum asserts both).
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
  uint64_t header_checksum = 0;
};

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
  uint64_t header_checksum = 0;
};

// The shard records are the ShardInfo structs verbatim: five u64 fields,
// trivially copyable, no padding.
static_assert(sizeof(ShardInfo) == 40);
static_assert(std::is_trivially_copyable_v<ShardInfo>);

// FNV-1a over the degree histogram, continued over the shard records.
uint64_t TableChecksum(const ShardManifest& m) {
  return snapshot::Fnv1a(
      m.shards.data(), m.shards.size() * sizeof(ShardInfo),
      snapshot::Fnv1a(m.degree_histogram.data(), sizeof(m.degree_histogram)));
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

// Writer side only; readers use the overflow-free CsrSizeMatches.
uint64_t ShardFileBytes(uint64_t num_rows, uint64_t num_half_edges) {
  return sizeof(GrwsShardHeader) + (num_rows + 1) * sizeof(uint64_t) +
         num_half_edges * sizeof(VertexId);
}

// The manifest file of `path`: the path itself, or the manifest inside
// it when `path` is a directory.
std::string ManifestPath(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec)) return path;
  std::string mpath = path;
  while (!mpath.empty() && mpath.back() == '/') mpath.pop_back();
  return mpath + "/" + kShardManifestName;
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
      // each remaining shard; the last ends at n, past isolated rows.
      cut = std::max(cut, start + 1);
      cut = std::min(cut, n - (shards - s - 1));
      if (s + 1 == shards) cut = n;
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

    GrwsShardHeader h{.magic = kGrwsMagic,
                      .version = kGrwsVersion,
                      .shard_index = s,
                      .flags = options.flags,
                      .first_node = start,
                      .num_rows = rows,
                      .total_nodes = n,
                      .num_half_edges = half,
                      .data_checksum = snapshot::DataChecksum(local, slice)};
    h.header_checksum = snapshot::HeaderChecksum(h);
    manifest.shards.push_back(
        {start, rows, half, ShardFileBytes(rows, half), h.data_checksum});

    snapshot::AtomicWriteFile(
        manifest.ShardPath(s),
        {{&h, sizeof h},
         {local.data(), local.size() * sizeof(uint64_t)},
         {slice.data(), slice.size_bytes()}},
        "WriteShardedGraph");
    start = end;
  }

  GrwmHeader mh{.magic = kGrwmMagic,
                .version = kGrwsVersion,
                .num_shards = static_cast<uint32_t>(manifest.shards.size()),
                .flags = options.flags,
                .total_nodes = n,
                .total_half_edges = neighbors.size(),
                .table_checksum = TableChecksum(manifest)};
  mh.header_checksum = snapshot::HeaderChecksum(mh);

  snapshot::AtomicWriteFile(manifest.path,
                            {{&mh, sizeof mh},
                             {manifest.degree_histogram.data(),
                              sizeof(manifest.degree_histogram)},
                             {manifest.shards.data(),
                              manifest.shards.size() * sizeof(ShardInfo)}},
                            "WriteShardedGraph");
  return manifest;
}

ShardManifest LoadShardManifest(const std::string& path, bool verify_shards) {
  const std::string mpath = ManifestPath(path);
  std::error_code ec;
  if (mpath != path && !std::filesystem::exists(mpath, ec)) {
    BadManifest(mpath, "directory holds no " +
                           std::string(kShardManifestName) +
                           " (not a sharded graph)");
  }
  const MappedFile file = MappedFile::Open(mpath);
  GrwmHeader h;
  if (auto why = snapshot::ReadHeader(file, kGrwmMagic, kGrwsVersion,
                                      "sharded-graph manifest", h)) {
    BadManifest(mpath, *why);
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

  if (TableChecksum(manifest) != h.table_checksum) {
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
    if (!snapshot::CsrSizeMatches(info.file_bytes,
                                  {info.num_rows, info.num_half_edges})) {
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

  if (verify_shards) (void)MapAllShards(manifest, /*verify_checksum=*/true);
  return manifest;
}

bool IsShardManifestPath(const std::string& path) {
  const std::string mpath = ManifestPath(path);
  std::error_code ec;
  if (!std::filesystem::exists(mpath, ec)) return false;
  std::FILE* f = std::fopen(mpath.c_str(), "rb");
  if (f == nullptr) {
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
    checksum = checksum * snapshot::kFnvPrime + s.num_rows;
  }
  return checksum;
}

MappedShard::Row MappedShard::ReadRow(const ShardManifest& manifest,
                                      VertexId v,
                                      uint64_t max_degree) const {
  const uint64_t r = v - first_node_;
  const uint64_t pair[2] = {offsets_[r], offsets_[r + 1]};
  if (pair[0] > pair[1] || pair[1] > num_half_edges_ ||
      pair[1] - pair[0] > max_degree) {
    BadShard(manifest, index_,
             "offsets of node " + std::to_string(v) +
                 " out of bounds (corrupted shard offsets)");
  }
  return {pair[0], static_cast<uint32_t>(pair[1] - pair[0])};
}

void MappedShard::ReadList(const ShardManifest& manifest, Row row,
                           VertexId* out) const {
  const uint64_t offset = snapshot::kHeaderBytes +
                         (num_rows_ + 1) * sizeof(uint64_t) +
                         row.begin * sizeof(VertexId);
  const io::IoResult got =
      io::ReadAt(file_.fd(), out, row.degree * sizeof(VertexId), offset);
  if (got.status == io::IoResult::Status::kEof) {
    BadShard(manifest, index_,
             "file ends at byte " + std::to_string(offset + got.bytes) +
                 " (truncated after open)");
  }
  if (!got.ok()) {
    throw std::runtime_error("MapShard: " + manifest.ShardPath(index_) +
                             ": read failed: " + std::strerror(got.error));
  }
  for (uint32_t i = 0; i < row.degree; ++i) {
    if (out[i] >= manifest.total_nodes) {
      BadShard(manifest, index_,
               "neighbor id out of range at index " +
                   std::to_string(row.begin + i) +
                   " (corrupted shard payload)");
    }
  }
}

void MappedShard::CheckUnchanged(const ShardManifest& manifest) const {
  if (std::memcmp(file_.data(), header_.data(), header_.size()) != 0) {
    BadShard(manifest, index_,
             "header changed since open (shard damaged in place)");
  }
  if (offsets_[0] != 0 || offsets_[num_rows_] != num_half_edges_) {
    BadShard(manifest, index_,
             "shard offsets inconsistent with header (shard damaged in "
             "place since open)");
  }
}

namespace {

// MapShard's check of shard `index` as mapped in `file`; returns the
// header it validated. O(1) without `verify_checksum`.
GrwsShardHeader CheckShardBytes(const ShardManifest& manifest, uint32_t index,
                                const MappedFile& file, bool verify_checksum) {
  GrwsShardHeader h;
  if (auto why = snapshot::ReadHeader(file, kGrwsMagic, kGrwsVersion,
                                      ".grws shard", h)) {
    BadShard(manifest, index, *why);
  }
  // The manifest's partition of [0, total_nodes) was validated at load,
  // so agreeing with it bounds the header's vertex range too.
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
  if (auto why = snapshot::CheckCsr(file,
                                    {h.num_rows, h.num_half_edges,
                                     h.total_nodes, h.data_checksum},
                                    verify_checksum,
                                    {"shard", "shard offsets", "row",
                                     "shard payload"})) {
    BadShard(manifest, index, *why);
  }
  return h;
}

}  // namespace

MappedShard MapShard(const ShardManifest& manifest, uint32_t index,
                     bool verify_checksum) {
  const std::string path = manifest.ShardPath(index);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    BadShard(manifest, index,
             "missing shard file (manifest " + manifest.path + " names " +
                 std::to_string(manifest.NumShards()) + " shards)");
  }
  MappedFile file = MappedFile::Open(path, /*keep_descriptor=*/true);
  const GrwsShardHeader h =
      CheckShardBytes(manifest, index, file, verify_checksum);

  // Every field below was just checked against the manifest entry.
  const ShardInfo& info = manifest.shards[index];
  MappedShard shard;
  static_assert(sizeof h == sizeof shard.header_);
  std::memcpy(shard.header_.data(), &h, sizeof h);
  shard.index_ = index;
  shard.first_node_ = info.first_node;
  shard.num_rows_ = info.num_rows;
  shard.num_half_edges_ = info.num_half_edges;
  shard.offsets_ = snapshot::CsrOffsets(file);
  shard.neighbors_ = snapshot::CsrNeighbors(file, info.num_rows);
  shard.file_ = std::move(file);
  return shard;
}

std::vector<MappedShard> MapAllShards(const ShardManifest& manifest,
                                      bool verify_checksum) {
  std::vector<MappedShard> shards;
  shards.reserve(manifest.NumShards());
  for (uint32_t s = 0; s < manifest.NumShards(); ++s) {
    shards.push_back(MapShard(manifest, s, verify_checksum));
  }
  return shards;
}

Graph CopyShardsToGraph(const ShardManifest& manifest) {
  // Every shard is checked before anything is allocated, so the totals
  // are the shard files' own.
  const std::vector<MappedShard> shards = MapAllShards(manifest);
  std::vector<uint64_t> offsets;
  std::vector<VertexId> neighbors;
  offsets.reserve(manifest.total_nodes + 1);
  neighbors.reserve(manifest.total_half_edges);
  for (const MappedShard& shard : shards) {
    // MapShard checked the first and last offset; this keeps every row
    // inside the shard's slice.
    const std::span<const uint64_t> rows = shard.RawOffsets();
    const uint64_t base = neighbors.size();
    for (size_t r = 0; r + 1 < rows.size(); ++r) {
      if (rows[r] > rows[r + 1]) {
        BadShard(manifest, shard.index(),
                 "shard offsets not monotone at row " + std::to_string(r));
      }
      offsets.push_back(base + rows[r]);
    }
    neighbors.insert(neighbors.end(), shard.RawNeighbors().begin(),
                     shard.RawNeighbors().end());
  }
  offsets.push_back(neighbors.size());
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace grw
