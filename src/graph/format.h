// `.grwb` binary graph snapshots: the on-disk layout IS the in-memory CSR.
//
// Re-parsing a multi-million-edge text edge list dominates wall-clock for
// short convergence-stopped runs, so benches and the CLI can convert a
// dataset once and then start walking in milliseconds:
//
//   grw convert epinion-sim.txt epinion-sim.grwb
//   grw estimate epinion-sim.grwb --k 4 ...
//
// File layout (all little-endian, fixed-width):
//
//   byte 0      GrwbHeader (64 bytes)
//     magic            u32   'GRWB' (0x42575247)
//     version          u32   kGrwbVersion
//     num_nodes        u64   n
//     num_half_edges   u64   offsets[n] == 2|E|
//     offsets_bytes    u64   (n + 1) * 8
//     neighbors_bytes  u64   num_half_edges * 4
//     data_checksum    u64   FNV-1a over offsets bytes then neighbors bytes
//     flags            u32   bit 0: degree-descending relabeled
//     reserved         u32   0
//     header_checksum  u64   FNV-1a over the 56 bytes above
//   byte 64     offsets array   (n + 1) x u64, 8-byte aligned
//   byte 64+ob  neighbors array (2|E|) x u32,  4-byte aligned
//
// The loader mmaps the file and points the Graph's CSR spans directly into
// the mapping (zero copy; pages fault in on first touch). Header fields and
// the header checksum are validated eagerly; the full data checksum is
// opt-in because verifying it touches every page, which defeats the lazy
// load — turn it on for untrusted files and in tests.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/graph.h"

namespace grw {

/// Thrown when a `.grwb` snapshot fails validation (bad magic/version,
/// checksum mismatch, truncation, structural inconsistency). A distinct
/// type so callers can tell corrupt-data from transient IO: corruption
/// is never retryable — quarantine the file (refuse to serve it, keep
/// it for inspection) instead. Derives from std::runtime_error, so
/// pre-existing catch sites keep working.
class SnapshotCorruptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr uint32_t kGrwbMagic = 0x42575247;  // "GRWB" little-endian
inline constexpr uint32_t kGrwbVersion = 1;

/// Flag bits stored in the header.
inline constexpr uint32_t kGrwbFlagDegreeRelabeled = 1u << 0;

/// Parsed header metadata, for `grw info` and tooling.
struct GrwbInfo {
  uint32_t version = 0;
  uint64_t num_nodes = 0;
  uint64_t num_half_edges = 0;  // == 2 * |E|
  uint32_t flags = 0;
  uint64_t file_bytes = 0;
  /// FNV-1a over the CSR arrays, straight from the (validated) header —
  /// a content identity that costs one header read, not a full-file
  /// scan. The serve registry keys its warm snapshot/index cache on
  /// (path, data_checksum).
  uint64_t data_checksum = 0;
  bool DegreeRelabeled() const {
    return (flags & kGrwbFlagDegreeRelabeled) != 0;
  }
};

/// Writes g as a `.grwb` snapshot, crash-safely: the bytes go to a
/// temporary file in the same directory, are fsync'd, and only then
/// atomically rename(2)d over `path` (followed by a directory fsync so
/// the rename itself is durable). A crash at ANY point leaves either
/// the old complete snapshot or the new complete snapshot at `path` —
/// never a torn file — plus at worst an orphaned `path + ".tmp.<pid>"`
/// that the loader rejects (no .grwb magic at best, failed checksum at
/// worst). This also means a live reader's mmap is never truncated in
/// place: rename swaps the directory entry, the old inode survives
/// until unmapped. `flags` is stored verbatim in the header (pass
/// kGrwbFlagDegreeRelabeled when g came from RelabelByDegree). Throws
/// std::runtime_error on I/O failure (temp file already unlinked).
void SaveGraphBinary(const Graph& g, const std::string& path,
                     uint32_t flags = 0);

/// Memory-maps a `.grwb` snapshot and returns a Graph whose CSR spans view
/// the mapping (zero copy; the mapping lives as long as any copy of the
/// Graph). Magic, version, sizes (overflow-safely, against the real file
/// size), and the header checksum are always validated; with
/// verify_checksum the whole file is read to additionally check offsets
/// monotonicity, neighbor-id bounds, and the data checksum — use it for
/// files from untrusted sources. Throws SnapshotCorruptError naming the
/// path and the failed check.
Graph LoadGraphBinary(const std::string& path, bool verify_checksum = false);

/// DEPRECATION NOTE: LoadGraphBinary predates the unified open API and
/// survives as the monolithic loader GraphSource::Open is built on —
/// GraphSource::Open (graph/source.h) is the one loader that also
/// understands sharded manifests and carries the index/verify/relabel/
/// budget knobs in one options struct. New call sites must go through
/// GraphSource (the `graphsource-open` lint rule rejects fresh direct
/// LoadGraphBinary calls outside it).

/// Reads and validates only the header. Throws like LoadGraphBinary.
GrwbInfo InspectGraphBinary(const std::string& path);

/// True iff the file starts with the `.grwb` magic (false for short files;
/// throws only if the file cannot be opened).
bool IsGraphBinaryFile(const std::string& path);

}  // namespace grw
