#include "graph/format.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

uint64_t Fnv1aBytewise(const void* data, size_t bytes, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

namespace {

constexpr uint64_t PrimePower(uint64_t e) {
  uint64_t result = 1;
  for (uint64_t base = kFnvPrime; e != 0; e >>= 1, base *= base) {
    if (e & 1) result *= base;
  }
  return result;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

// The bit-sliced kernel behind Fnv1a (the identity is in format.h). A
// chunk is 512 bytes, eight 64-byte blocks. Its bytes are transposed into
// eight bit planes — plane j holds bit j of every byte, qword q covering
// block q in stream order — and the low-byte chain L runs plane by plane:
// plane j of L is the exclusive prefix XOR of b ⊕ s, where s is bit j of
// 0xB3·x ⊕ x (x = L ⊕ b), which depends only on the planes below j.
// 0xB3·x = t + 16t + 128x with t = x + 2x, so s comes from two bit-sliced
// ripple adders whose carries advance one plane at a time. L's planes are
// transposed back to bytes, and each δ = x − L enters one of 64 lane
// accumulators, lane r holding positions ≡ r (mod 64), which are stepped
// by P^64 per block. Each chunk's chain is interleaved with the previous
// chunk's accumulation, so the out-of-order core overlaps the two.
#define GRW_FNV1A_KERNEL                                                \
  __attribute__((target(                                                \
      "avx512f,avx512bw,avx512dq,avx512vbmi,gfni,vpclmulqdq")))
// Every loop over planes, blocks or lanes is unrolled in full, so that
// its vectors stay in registers at -O2 as well.
#if defined(__clang__)
#define GRW_FNV1A_UNROLL _Pragma("unroll")
#else
#define GRW_FNV1A_UNROLL _Pragma("GCC unroll 8")
#endif

// A 64-byte vector constant, built at compile time.
template <class T>
struct alignas(64) Vec {
  T at[64 / sizeof(T)];
};

template <class T, class F>
constexpr Vec<T> MakeVec(F f) {
  Vec<T> v{};
  for (int i = 0; i < static_cast<int>(std::size(v.at)); ++i) {
    v.at[i] = static_cast<T>(f(i));
  }
  return v;
}

// Byte permutations: each qword's bytes reversed; the 8x8 byte transpose
// of the qwords (byte 8k + l <- byte 8l + k); and that transpose with its
// rows reversed (byte 8l + m <- byte 8(7 - m) + l).
constexpr auto kReverseBytes =
    MakeVec<uint8_t>([](int i) { return (i & ~7) | (7 - (i & 7)); });
constexpr auto kTransposeBytes =
    MakeVec<uint8_t>([](int i) { return 8 * (i & 7) + (i >> 3); });
constexpr auto kTransposeReversed =
    MakeVec<uint8_t>([](int i) { return 8 * (7 - (i & 7)) + (i >> 3); });

// kWiden[g] moves byte 8g + l to qword l's low byte (the zero-masking
// permute clears the rest).
constexpr auto kWiden = [] {
  std::array<Vec<uint8_t>, 8> widen{};
  for (int g = 0; g < 8; ++g) {
    widen[g] = MakeVec<uint8_t>([g](int i) { return 8 * g + (i >> 3); });
  }
  return widen;
}();
constexpr uint64_t kQwordLowBytes = 0x0101010101010101ull;

// TransposeQwords' lane selections at strides 1, 2 and 4 (8 + j selects
// the second row's lane j).
constexpr auto MakeSwap(bool high) {
  std::array<Vec<int64_t>, 3> swap{};
  for (int k = 0; k < 3; ++k) {
    const int s = 1 << k;
    swap[k] = MakeVec<int64_t>([s, high](int j) {
      if (high) return (j & s) ? 8 + j : j + s;
      return (j & s) ? 8 + j - s : j;
    });
  }
  return swap;
}
constexpr auto kSwapLow = MakeSwap(false);
constexpr auto kSwapHigh = MakeSwap(true);

// As the GF(2) matrix operand of gf2p8affine, a qword of data is an 8x8
// bit matrix; applied to these bytes (1 << j), it yields the matrix's
// bit planes.
constexpr uint64_t kBitSelect = 0x8040201008040201ull;

// Lane r's weight P^(64 - r) in the final sum.
constexpr auto kLaneWeight = [] {
  std::array<uint64_t, 64> weight{};
  for (int r = 0; r < 64; ++r) weight[r] = PrimePower(64 - r);
  return weight;
}();

template <class T>
GRW_FNV1A_KERNEL inline __m512i Load(const Vec<T>& v) {
  return _mm512_load_si512(v.at);
}

// The plain _mm512_permutexvar_epi8 and _mm512_unpacklo_epi64 merge into
// _mm512_undefined_epi32(), which GCC 12 reports under
// -Wmaybe-uninitialized; their zero-masking forms with every lane
// selected compile to the same instructions.
GRW_FNV1A_KERNEL inline __m512i PermuteBytes(__m512i index, __m512i v) {
  return _mm512_maskz_permutexvar_epi8(~__mmask64{0}, index, v);
}
GRW_FNV1A_KERNEL inline __m512i UnpackLowQwords(__m512i a, __m512i b) {
  return _mm512_maskz_unpacklo_epi64(0xFF, a, b);
}

// Transposes the 8x8 qword matrix r (r[i] lane j <-> r[j] lane i) by
// swapping its off-diagonal 1x1, 2x2 and 4x4 blocks: at stride s, row i
// (bit s clear) keeps its lane j, or takes row i + s's lane j - s when j
// has bit s; row i + s mirrors it.
GRW_FNV1A_KERNEL inline void TransposeQwords(__m512i r[8]) {
  GRW_FNV1A_UNROLL
  for (int k = 0; k < 3; ++k) {
    const int s = 1 << k;
    const __m512i low = Load(kSwapLow[k]);
    const __m512i high = Load(kSwapHigh[k]);
    GRW_FNV1A_UNROLL
    for (int i = 0; i < 8; ++i) {
      if (i & s) continue;
      const __m512i a = r[i];
      r[i] = _mm512_permutex2var_epi64(a, low, r[i + s]);
      r[i + s] = _mm512_permutex2var_epi64(a, high, r[i + s]);
    }
  }
}

// One chunk's bit planes: planes[j] qword q bit i is bit j of byte
// 64q + i.
GRW_FNV1A_KERNEL inline void ToBitPlanes(const unsigned char* chunk,
                                         __m512i planes[8]) {
  const __m512i select = _mm512_set1_epi64(static_cast<int64_t>(kBitSelect));
  GRW_FNV1A_UNROLL
  for (int q = 0; q < 8; ++q) {
    // Reversed, qword l's bytes form a matrix whose plane j lands in its
    // byte j with bit i from byte 8l + i; the byte transpose then gathers
    // plane j of every qword into qword j.
    __m512i v = _mm512_loadu_si512(chunk + 64 * q);
    v = PermuteBytes(Load(kReverseBytes), v);
    v = _mm512_gf2p8affine_epi64_epi8(select, v, 0);
    planes[q] = PermuteBytes(Load(kTransposeBytes), v);
  }
  TransposeQwords(planes);
}

// The inverse of ToBitPlanes for one block: its eight planes, one per
// qword, back to its 64 bytes.
GRW_FNV1A_KERNEL inline __m512i FromBitPlanes(__m512i block_planes) {
  const __m512i select = _mm512_set1_epi64(static_cast<int64_t>(kBitSelect));
  return _mm512_gf2p8affine_epi64_epi8(
      select, PermuteBytes(Load(kTransposeReversed), block_planes), 0);
}

// Steps the 64 lane accumulators over one block: lane 8g + l of the
// block's positions feeds acc[g] lane l.
GRW_FNV1A_KERNEL inline void AccumulateBlock(__m512i low, __m512i data,
                                             __m512i acc[8]) {
  const __m512i step = _mm512_set1_epi64(static_cast<int64_t>(PrimePower(64)));
  const __m512i x = _mm512_xor_si512(low, data);
  GRW_FNV1A_UNROLL
  for (int g = 0; g < 8; ++g) {
    const __m512i widen = Load(kWiden[g]);
    const __m512i delta = _mm512_sub_epi64(
        _mm512_maskz_permutexvar_epi8(kQwordLowBytes, widen, x),
        _mm512_maskz_permutexvar_epi8(kQwordLowBytes, widen, low));
    acc[g] = _mm512_add_epi64(_mm512_mullo_epi64(acc[g], step), delta);
  }
}

static_assert(kFnv1aKernelMinBytes == 512, "a chunk is eight 64-byte blocks");

// FNV-1a over `chunks` 512-byte chunks at p, continuing from seed.
GRW_FNV1A_KERNEL uint64_t Fnv1aChunks(const unsigned char* p, size_t chunks,
                                      uint64_t seed) {
  const __m512i ones = _mm512_set1_epi64(-1);
  __m512i acc[8] = {};
  __m512i prev_low[8] = {};  // L's bytes of the previous chunk, per block
  unsigned low = seed & 0xFF;  // L at the start of the chunk
  for (size_t c = 0; c < chunks; ++c) {
    const unsigned char* chunk = p + 512 * c;
    __m512i b[8];
    ToBitPlanes(chunk, b);
    __m512i l[8];
    // The adders' state: x's previous plane, t = x + 2x's planes and
    // carry, and the carry of t + 16t.
    const __m512i zero = _mm512_setzero_si512();
    __m512i s = zero, x_prev = zero, x0 = zero, t_carry = zero,
            u_carry = zero;
    __m512i t[8];
    unsigned next_low = 0;
    GRW_FNV1A_UNROLL
    for (int j = 0; j < 8; ++j) {
      // L's plane j: y's inclusive prefix XOR per qword (a carry-less
      // multiply by all-ones), then each qword flipped by the parity of
      // the qwords before it and by L's bit j at the chunk start.
      const __m512i y = _mm512_xor_si512(b[j], s);
      const __m512i prefix =
          UnpackLowQwords(_mm512_clmulepi64_epi128(y, ones, 0x00),
                          _mm512_clmulepi64_epi128(y, ones, 0x01));
      const unsigned parity = _cvtmask8_u32(_mm512_movepi64_mask(prefix));
      unsigned scan = parity ^ (parity << 1);
      scan ^= scan << 2;
      scan ^= scan << 4;
      const unsigned start = (low >> j) & 1;
      const __mmask8 flip = _cvtu32_mask8((scan << 1) ^ (0u - start));
      next_low |= ((scan >> 7 ^ start) & 1) << j;
      l[j] = _mm512_xor_si512(_mm512_mask_xor_epi64(prefix, flip, prefix, ones),
                              y);
      // Advance the adders by plane j and form plane j + 1's s:
      // bit j+1 of 0xB3·x is x_(j+1) ⊕ x_j ⊕ carry(t) ⊕ t_(j-3) ⊕
      // carry(t + 16t), and ⊕ x_0 at bit 7 (the 128x term).
      const __m512i x = _mm512_xor_si512(l[j], b[j]);
      if (j == 0) x0 = x;
      // 0x96 is the XOR of the three inputs, 0xE8 their majority.
      t[j] = _mm512_ternarylogic_epi64(x, x_prev, t_carry, 0x96);
      t_carry = _mm512_ternarylogic_epi64(x, x_prev, t_carry, 0xE8);
      if (j >= 4) {
        u_carry = _mm512_ternarylogic_epi64(t[j], t[j - 4], u_carry, 0xE8);
      }
      s = _mm512_xor_si512(x, t_carry);
      if (j >= 3) s = _mm512_xor_si512(s, t[j - 3]);
      if (j >= 4) s = _mm512_xor_si512(s, u_carry);
      if (j == 6) s = _mm512_xor_si512(s, x0);
      x_prev = x;
      if (c > 0) {
        AccumulateBlock(prev_low[j],
                        _mm512_loadu_si512(chunk - 512 + 64 * j), acc);
      }
    }
    low = next_low;
    TransposeQwords(l);  // l[q]: block q's eight planes, one per qword
    GRW_FNV1A_UNROLL
    for (int q = 0; q < 8; ++q) prev_low[q] = FromBitPlanes(l[q]);
  }
  const unsigned char* last = p + 512 * (chunks - 1);
  GRW_FNV1A_UNROLL
  for (int q = 0; q < 8; ++q) {
    AccumulateBlock(prev_low[q], _mm512_loadu_si512(last + 64 * q), acc);
  }
  // h = P^n·seed + Σ_r P^(64 - r)·acc_r.
  uint64_t h = PrimePower(512 * chunks) * seed;
  for (int g = 0; g < 8; ++g) {
    alignas(64) uint64_t lanes[8];
    _mm512_store_si512(lanes, acc[g]);
    for (int lane = 0; lane < 8; ++lane) {
      h += kLaneWeight[8 * g + lane] * lanes[lane];
    }
  }
  return h;
}

bool KernelSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vbmi") &&
         __builtin_cpu_supports("gfni") &&
         __builtin_cpu_supports("vpclmulqdq");
}

#else

uint64_t Fnv1aChunks(const unsigned char*, size_t, uint64_t seed) {
  return seed;
}
bool KernelSupported() { return false; }

#endif

}  // namespace

bool Fnv1aKernelActive() {
  static const bool active = KernelSupported();
  return active;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const size_t chunks =
      Fnv1aKernelActive() ? bytes / kFnv1aKernelMinBytes : 0;
  if (chunks != 0) seed = Fnv1aChunks(p, chunks, seed);
  const size_t done = chunks * kFnv1aKernelMinBytes;
  return Fnv1aBytewise(p + done, bytes - done, seed);
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

namespace {

constexpr uint64_t kScanBlock = 1024;

// The first i < n with bad(i), or n. Whole blocks are screened first by
// clean(begin), a branch-free reduction over [begin, begin + kScanBlock)
// that vectorizes; the per-index scan starts at the first block it flags.
template <class Clean, class Bad>
uint64_t FirstBad(uint64_t n, const Clean& clean, const Bad& bad) {
  uint64_t i = 0;
  while (n - i >= kScanBlock && clean(i)) i += kScanBlock;
  while (i < n && !bad(i)) ++i;
  return i;
}

// Bit 63 of the result is the borrow of a − b, set iff a < b (Hacker's
// Delight, 2-12): an unsigned compare that vectorizes without 64-bit
// compare instructions.
constexpr uint64_t Borrow(uint64_t a, uint64_t b) {
  return (~a & b) | (~(a ^ b) & (a - b));
}

}  // namespace

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
  const uint64_t bad_row = FirstBad(
      fields.num_rows,
      [&](uint64_t begin) {
        const uint64_t* o = offsets.data() + begin;
        uint64_t borrows = 0;
        for (uint64_t r = 0; r < kScanBlock; ++r) {
          borrows |= Borrow(o[r + 1], o[r]);
        }
        return borrows >> 63 == 0;
      },
      [&](uint64_t r) { return offsets[r] > offsets[r + 1]; });
  if (bad_row != fields.num_rows) {
    return std::string(words.offsets) + " not monotone at " + words.row +
           " " + std::to_string(bad_row);
  }
  // Every id is below a bound past the 32-bit id space.
  if (fields.id_bound <= std::numeric_limits<VertexId>::max()) {
    const auto bound = static_cast<VertexId>(fields.id_bound);
    const uint64_t bad_id = FirstBad(
        neighbors.size(),
        [&](uint64_t begin) {
          const VertexId* ids = neighbors.data() + begin;
          uint32_t out_of_range = 0;
          for (uint64_t i = 0; i < kScanBlock; ++i) {
            out_of_range |= ids[i] >= bound;
          }
          return out_of_range == 0;
        },
        [&](uint64_t i) { return neighbors[i] >= bound; });
    if (bad_id != neighbors.size()) {
      return "neighbor id out of range at index " + std::to_string(bad_id);
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
