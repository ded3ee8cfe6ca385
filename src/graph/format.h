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
// GraphSource::Open (graph/source.h) mmaps the file and points the
// Graph's CSR spans directly into the mapping (zero copy; pages fault in
// on first touch). The header, file size and offsets' end points are
// validated eagerly; the full payload check (OpenOptions::verify) is
// opt-in because it touches every page, which defeats the lazy load.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/graph.h"
#include "graph/mapped_file.h"

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

/// Writes g as a `.grwb` snapshot through snapshot::AtomicWriteFile, so a
/// crash never leaves a torn file at `path`. `flags` is stored verbatim
/// in the header (pass kGrwbFlagDegreeRelabeled when g came from
/// RelabelByDegree). Throws std::runtime_error on I/O failure.
void SaveGraphBinary(const Graph& g, const std::string& path,
                     uint32_t flags = 0);

/// Validates the header, the file size and the offsets' end points, and
/// returns the header fields. Throws SnapshotCorruptError naming the
/// path and the failed check. Loading is GraphSource::Open's job.
GrwbInfo InspectGraphBinary(const std::string& path);

/// True iff the file starts with the `.grwb` magic (false for short files;
/// throws only if the file cannot be opened).
bool IsGraphBinaryFile(const std::string& path);

// The snapshot codec, shared with the sharded `.grws` layout
// (graph/sharding.h): the checksum recipe, the crash-safe file write,
// the header check, and the bounds check of a CSR payload — a 64-byte
// header, then (num_rows + 1) u64 offsets and num_half_edges u32 ids.
namespace snapshot {

/// Every header is 64 bytes and ends with its u64 header checksum.
inline constexpr uint64_t kHeaderBytes = 64;

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/// Inputs at least this long run the bit-sliced kernel, when active.
inline constexpr size_t kFnv1aKernelMinBytes = 512;

/// FNV-1a over `bytes` bytes, continuing from `seed`: for every input it
/// equals Fnv1aBytewise, so files verify across builds and CPUs. On a CPU
/// with AVX-512 F/BW/DQ/VBMI, GFNI and VPCLMULQDQ (Fnv1aKernelActive),
/// each whole 512-byte chunk of an input of at least kFnv1aKernelMinBytes
/// goes through a bit-sliced kernel, and the rest through the byte loop.
/// The kernel rests on h_(i+1) = (h_i + δ_i)·P, where L_i = h_i mod 256
/// and δ_i = (L_i ⊕ b_i) − L_i, so h_n = P^n·h_0 + Σ_i P^(n−i)·δ_i. The
/// low byte obeys L_(i+1) = 0xB3·(L_i ⊕ b_i) mod 256 (0xB3 = P mod 256),
/// a T-function: bit j of L_(i+1) is bit j of L_i ⊕ b_i plus terms from
/// the bits below j. So L runs bit plane by bit plane, each plane an
/// exclusive prefix XOR over the chunk, and the δ_i then enter 64
/// independent multiply-add lanes in place of one serial multiply chain.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t seed = kFnvOffsetBasis);

/// The byte loop Fnv1a reproduces: h ^= byte, h *= kFnvPrime. Fnv1a's
/// fallback and the tests' oracle; call Fnv1a instead.
uint64_t Fnv1aBytewise(const void* data, size_t bytes,
                       uint64_t seed = kFnvOffsetBasis);

/// True iff this CPU runs Fnv1a's kernel; decided once per process.
bool Fnv1aKernelActive();

/// FNV-1a over the offsets bytes, continued over the neighbor bytes.
uint64_t DataChecksum(std::span<const uint64_t> offsets,
                      std::span<const VertexId> neighbors);

/// FNV-1a over the header bytes before its trailing header_checksum.
/// Headers are memcpy'd whole, so they must be padding-free.
template <class Header>
uint64_t HeaderChecksum(const Header& h) {
  static_assert(sizeof(Header) == kHeaderBytes);
  static_assert(offsetof(Header, header_checksum) == kHeaderBytes - 8);
  return Fnv1a(&h, offsetof(Header, header_checksum));
}

/// Copies `file`'s header into `h` and checks the file is long enough,
/// then the magic, version and header checksum. Returns what failed, or
/// nullopt; `kind` names the file in the message (".grws shard").
template <class Header>
std::optional<std::string> ReadHeader(const MappedFile& file, uint32_t magic,
                                      uint32_t version, const char* kind,
                                      Header& h) {
  if (file.size() < sizeof h) {
    return "file too small for a " + std::string(kind) + " header (" +
           std::to_string(file.size()) + " bytes)";
  }
  std::memcpy(&h, file.data(), sizeof h);
  if (h.magic != magic) return "bad magic (not a " + std::string(kind) + ")";
  if (h.version != version) {
    return "unsupported " + std::string(kind) + " version " +
           std::to_string(h.version) + " (expected " +
           std::to_string(version) + ")";
  }
  if (h.header_checksum != HeaderChecksum(h)) {
    return std::string(kind) + " header checksum mismatch (corrupted header)";
  }
  return std::nullopt;
}

/// Writes the concatenated `parts` to `path + ".tmp.<pid>"`, fsyncs it,
/// renames it over `path`, then fsyncs the directory (best effort). A
/// crash at any point leaves `path` absent or complete (old or new), and
/// a live reader's mapping is never truncated. Throws std::runtime_error
/// prefixed with `who`, the temp file unlinked. Fault sites:
/// snapshot.save.{open,crash,write,rename}; `crash` exits the process
/// with the last part unwritten.
void AtomicWriteFile(
    const std::string& path,
    std::initializer_list<std::pair<const void*, size_t>> parts,
    const char* who);

/// The CSR fields of a snapshot header.
struct CsrFields {
  uint64_t num_rows = 0;
  uint64_t num_half_edges = 0;
  uint64_t id_bound = 0;  // every neighbor id must be below it
  uint64_t data_checksum = 0;
};

/// The caller's nouns for CheckCsr's messages.
struct CsrWords {
  const char* file;     // "truncated or oversized <file>"
  const char* offsets;  // "<offsets> not monotone at ..."
  const char* row;      // "... at <row> 7"
  const char* payload;  // "data checksum mismatch (corrupted <payload>)"
};

/// True iff `file_bytes` is exactly a header plus the payload `fields`
/// describes. Overflow-free for any header: it subtracts from and
/// divides the file size, never multiplies header counts.
bool CsrSizeMatches(uint64_t file_bytes, const CsrFields& fields);

/// The bounds check of `file`'s CSR payload: its size and the offsets'
/// end points; with `verify`, also offsets monotonicity, neighbor-id
/// bounds and the data checksum. Returns what failed, or nullopt. O(1)
/// without verify, and builds no string on success. The two verify scans
/// screen whole blocks with branch-free reductions and rescan only a
/// flagged block, so a message still names the first bad index.
std::optional<std::string> CheckCsr(const MappedFile& file,
                                    const CsrFields& fields, bool verify,
                                    const CsrWords& words);

/// The payload arrays of a file that passed CheckCsr.
inline const uint64_t* CsrOffsets(const MappedFile& file) {
  return reinterpret_cast<const uint64_t*>(file.data() + kHeaderBytes);
}
inline const VertexId* CsrNeighbors(const MappedFile& file,
                                    uint64_t num_rows) {
  return reinterpret_cast<const VertexId*>(CsrOffsets(file) + num_rows + 1);
}

}  // namespace snapshot

}  // namespace grw
