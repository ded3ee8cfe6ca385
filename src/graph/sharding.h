// Sharded `.grwb` storage: vertex-range partitions of one CSR snapshot.
//
// The monolithic `.grwb` layout (graph/format.h) mmaps a whole graph and
// lets pages fault in lazily — but the kernel decides what stays
// resident. Graphs that dwarf RAM need the inverse: the *estimator*
// decides which neighbor lists stay in memory, under an explicit byte
// budget (graph/sharded_access.h). This module supplies the storage half:
//
//   <dir>/MANIFEST.grws       global manifest (magic 'GRWM')
//   <dir>/shard-00000.grws    vertex rows [0, r0)         (magic 'GRWS')
//   <dir>/shard-00001.grws    vertex rows [r0, r1)
//   ...
//
// Each shard is self-contained and checksummed: a 64-byte header, the
// shard's offsets slice rebased to start at 0 ((num_rows + 1) x u64),
// and its neighbors slice with GLOBAL node ids (u32). Global ids mean a
// walk can read an edge (u -> v) from u's shard without consulting v's;
// v's shard is read only when v's own list is.
//
// The manifest records the partition (first_node/num_rows per shard),
// per-shard checksums, the global totals, and a log2 degree histogram
// (bucket b counts nodes whose degree has bit-width b; bucket 0 =
// isolated nodes) so tooling can reason about shard balance without
// touching any shard.
//
// The checksums, the crash-safe writer and the CSR bounds check are the
// `.grwb` codec (snapshot:: in graph/format.h). Shards are written
// first, the manifest LAST, so a crash leaves either no manifest (the
// directory is not a sharded graph yet) or a complete, consistent one.
//
// Corruption is a first-class citizen: every distinct failure shape —
// manifest header damage, shard-table checksum mismatch, overlapping or
// gapped vertex ranges, a missing shard file, a shard whose payload was
// bit-flipped, a manifest left stale after a shard was regenerated —
// throws SnapshotCorruptError with a path-qualified message naming the
// failed check (tests/sharding_test.cpp pins the taxonomy).

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/format.h"
#include "graph/graph.h"
#include "graph/mapped_file.h"

namespace grw {

inline constexpr uint32_t kGrwsMagic = 0x53575247;  // "GRWS" little-endian
inline constexpr uint32_t kGrwmMagic = 0x4D575247;  // "GRWM" little-endian
inline constexpr uint32_t kGrwsVersion = 1;

/// The manifest's file name inside a sharded-graph directory. Opening
/// the directory path opens this file.
inline constexpr const char* kShardManifestName = "MANIFEST.grws";

/// Degree histogram buckets: bucket b counts nodes whose degree has
/// bit-width b (bucket 0 = degree 0, bucket 1 = degree 1, bucket 2 =
/// degrees 2..3, ...). 33 buckets cover the full uint32_t degree range.
inline constexpr int kDegreeHistogramBuckets = 33;

/// One shard's entry in the manifest table.
struct ShardInfo {
  /// First vertex row of this shard; rows [first_node,
  /// first_node + num_rows) live here. Shards partition [0, total
  /// nodes) contiguously and in order.
  uint64_t first_node = 0;
  uint64_t num_rows = 0;
  /// Neighbor entries stored in this shard (its slice of the global
  /// neighbors array).
  uint64_t num_half_edges = 0;
  /// Total shard file size — header + offsets + neighbors.
  uint64_t file_bytes = 0;
  /// FNV-1a over the shard's rebased offsets then neighbors; must match
  /// the shard header's own data_checksum (a mismatch means the shard
  /// was regenerated without rewriting the manifest, or vice versa).
  uint64_t data_checksum = 0;
};

/// Parsed, validated manifest of a sharded graph.
struct ShardManifest {
  uint32_t version = 0;
  /// kGrwbFlagDegreeRelabeled is carried through from the source graph.
  uint32_t flags = 0;
  uint64_t total_nodes = 0;
  uint64_t total_half_edges = 0;
  std::array<uint64_t, kDegreeHistogramBuckets> degree_histogram = {};
  std::vector<ShardInfo> shards;
  /// Path of the manifest file itself, and the directory holding the
  /// shard files (error messages and ShardPath build on these).
  std::string path;
  std::string dir;

  uint32_t NumShards() const { return static_cast<uint32_t>(shards.size()); }
  /// Absolute path of shard file `index` ("<dir>/shard-%05u.grws").
  std::string ShardPath(uint32_t index) const;
  /// The shard holding vertex v (binary search over the range table).
  /// Precondition: v < total_nodes.
  uint32_t ShardOf(VertexId v) const;
  /// Sum of file_bytes over all shards — the resident footprint of a
  /// fully-faulted graph, and the reference point for budget fractions.
  uint64_t TotalShardBytes() const;
  bool DegreeRelabeled() const {
    return (flags & kGrwbFlagDegreeRelabeled) != 0;
  }
};

/// Partitioning policy for WriteShardedGraph. Exactly one of the two
/// knobs is used: `num_shards` when positive, else `target_shard_bytes`
/// (shards are cut when they reach the target; the last may be smaller).
struct ShardingOptions {
  /// Fixed shard count, balanced by half-edge mass (each shard gets >= 1
  /// vertex row). Must be <= the graph's node count.
  uint32_t num_shards = 0;
  /// Target shard file size in bytes when num_shards == 0. Clamped so
  /// every shard holds at least one row.
  uint64_t target_shard_bytes = 64ull << 20;
  /// Stored in the manifest and every shard header (pass
  /// kGrwbFlagDegreeRelabeled when g came from RelabelByDegree).
  uint32_t flags = 0;
};

/// Writes `g` as a sharded graph under directory `dir` (created if
/// absent), shards first and the manifest last, every file through the
/// crash-safe temp+fsync+rename path. Returns the manifest that is now
/// on disk. Throws std::invalid_argument for an empty graph or an
/// unsatisfiable shard count, std::runtime_error on I/O failure.
ShardManifest WriteShardedGraph(const Graph& g, const std::string& dir,
                                const ShardingOptions& options = {});

/// Loads and validates a manifest. `path` may be the manifest file or a
/// directory containing one (kShardManifestName). Header, shard-table
/// checksum, and range-partition invariants are always checked; with
/// `verify_shards` every shard file is additionally opened and its
/// header cross-checked against the table (existence, ranges, sizes,
/// checksum agreement) plus a full payload checksum + structural scan —
/// the sharded analogue of OpenOptions::verify for a `.grwb`. Throws
/// SnapshotCorruptError naming the offending file and check.
ShardManifest LoadShardManifest(const std::string& path,
                                bool verify_shards = false);

/// True iff `path` is a sharded-graph manifest (starts with the GRWM
/// magic) or a directory containing one. False for short/other files;
/// throws only if an existing file cannot be opened.
bool IsShardManifestPath(const std::string& path);

/// Content identity of a sharded graph: a fold of the per-shard
/// checksums and row counts, so any shard regeneration or repartition
/// changes it. The sharded analogue of the `.grwb` header's
/// data_checksum — GraphSource::content_checksum() reports it and the
/// serve registry keys resident sharing on it.
uint64_t ShardContentChecksum(const ShardManifest& manifest);

/// One mapped shard: validated header + CSR slices. Row r of the shard
/// is global vertex first_node() + r; neighbors carry global ids.
/// Produced by MapShard. The shard store (sharded_access.h) holds one
/// per shard for its lifetime: a miss re-checks it (CheckUnchanged),
/// then reads a row's offsets pair through the mapping (ReadRow) and its
/// list through the kept descriptor (ReadList), so no page of the
/// neighbors slice is mapped in.
class MappedShard {
 public:
  uint32_t index() const { return index_; }
  VertexId first_node() const { return static_cast<VertexId>(first_node_); }

  /// The mapped CSR slices: num_rows + 1 offsets rebased to start at 0,
  /// and the rows' (global) neighbor ids.
  std::span<const uint64_t> RawOffsets() const {
    return {offsets_, num_rows_ + 1};
  }
  std::span<const VertexId> RawNeighbors() const {
    return {neighbors_, num_half_edges_};
  }

  /// Where v's list sits in the shard's neighbors slice.
  struct Row {
    uint64_t begin = 0;
    uint32_t degree = 0;
  };
  /// Compares the mapped header with the 64 bytes MapShard validated, and
  /// the first and last offset with 0 and the half-edge count: the only
  /// facts of MapShard's check that can change while the mapping lives
  /// (its size cannot). Throws SnapshotCorruptError naming the shard if
  /// the shard was damaged in place since. O(1), makes no system call,
  /// and builds no string unless it throws.
  void CheckUnchanged(const ShardManifest& manifest) const;
  /// Reads v's offsets pair through the mapping and bounds-checks it:
  /// monotone, inside the neighbors slice, and no longer than
  /// `max_degree`. Throws SnapshotCorruptError naming the shard
  /// otherwise. Makes no system call.
  Row ReadRow(const ShardManifest& manifest, VertexId v,
              uint64_t max_degree) const;
  /// Reads the list ReadRow located into `out` (row.degree ids) with
  /// pread(2) through the kept descriptor, and checks every id against
  /// the global node count. Throws SnapshotCorruptError naming the shard
  /// if the file ends early.
  void ReadList(const ShardManifest& manifest, Row row, VertexId* out) const;

 private:
  friend MappedShard MapShard(const ShardManifest& manifest, uint32_t index,
                              bool verify_checksum);

  MappedFile file_;
  std::array<unsigned char, snapshot::kHeaderBytes> header_{};  // validated
  uint32_t index_ = 0;
  uint64_t first_node_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t num_half_edges_ = 0;
  const uint64_t* offsets_ = nullptr;    // num_rows + 1, rebased to 0
  const VertexId* neighbors_ = nullptr;  // global ids
};

/// Maps shard `index` of `manifest`, keeping its descriptor open for
/// MappedShard::ReadList, and validates it: its header against the
/// manifest entry (a disagreement is the "stale manifest" corruption
/// class), then snapshot::CheckCsr with the global node count as the id
/// bound (a full payload scan with `verify_checksum`). Throws
/// SnapshotCorruptError naming the shard path, also when the shard file
/// is missing.
MappedShard MapShard(const ShardManifest& manifest, uint32_t index,
                     bool verify_checksum = false);

/// MapShard on every shard, in order: missing files, torn shards and
/// stale manifests fail at open, not minutes into a walk.
std::vector<MappedShard> MapAllShards(const ShardManifest& manifest,
                                      bool verify_checksum = false);

/// The whole sharded graph as one in-memory CSR, byte-identical to the
/// `.grwb` it was sharded from: MapAllShards, then each shard's neighbors
/// slice copied whole (its ids are global) and its offsets rebased to
/// global positions, each checked not to decrease. The mappings are
/// released on return. O(size) time and anonymous memory.
Graph CopyShardsToGraph(const ShardManifest& manifest);

}  // namespace grw
