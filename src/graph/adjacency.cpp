#include "graph/adjacency.h"

#include <algorithm>
#include <limits>

#include "util/chain_pool.h"

#if defined(GRW_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace grw {

#if defined(GRW_SIMD_AVX2)

bool SignatureProbeBatchHasAvx2() {
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2");
  return kHasAvx2;
}

#else  // !GRW_SIMD_AVX2

bool SignatureProbeBatchHasAvx2() { return false; }

#endif  // GRW_SIMD_AVX2

AdjacencyIndex::AdjacencyIndex(const Graph& g,
                               const AdjacencyIndexOptions& options)
    : backing_(g.backing()),
      offsets_(g.RawOffsets().data()),
      neighbors_(g.RawNeighbors().data()),
      // A cutoff at or above the degree cap would route capped (huge)
      // lists into the linear scan with a truncated length; clamp it.
      linear_cutoff_(std::min<uint32_t>(options.linear_cutoff,
                                        kDegreeCap - 1)),
      wide_offsets_(g.RawNeighbors().size() >
                    std::numeric_limits<uint32_t>::max()) {
  vector_scan_ = SignatureProbeBatchHasAvx2();
  scan_cutoff_ = linear_cutoff_;
  if (vector_scan_) {
    scan_cutoff_ = std::max(
        scan_cutoff_,
        std::min<uint32_t>(options.simd_scan_cutoff, kDegreeCap - 1));
  }
  const VertexId n = g.NumNodes();
  meta_.assign(n, NodeMeta{});
  if (n == 0) return;

  // Per-node records: each node's signature depends only on its own
  // neighbor list, so the fan-out is race-free and the result identical
  // at any thread count. A pool index is a block of nodes: claiming
  // nodes one at a time from the shared counter made this pass about
  // 15x slower on a 250k-node graph (4 cores). Hub slots are filled in
  // below.
  constexpr size_t kNodesPerBlock = 4096;
  ChainPool::Shared().ForEach(
      (n + kNodesPerBlock - 1) / kNodesPerBlock,
      [&](size_t block) {
        const size_t end = std::min<size_t>(n, (block + 1) * kNodesPerBlock);
        for (size_t v = block * kNodesPerBlock; v < end; ++v) {
          uint64_t sig = 0;
          for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
            sig |= NeighborSignatureBit(w);
          }
          meta_[v].signature = sig;
          if (!wide_offsets_) {
            meta_[v].offset = static_cast<uint32_t>(offsets_[v]);
          }
          meta_[v].degree = static_cast<uint16_t>(std::min<uint32_t>(
              g.Degree(static_cast<VertexId>(v)), kDegreeCap));
        }
      },
      options.threads);

  // Hub selection: from the degree histogram, the smallest threshold t
  // (starting at the explicit threshold or min_hub_degree) whose rows
  // {v : deg(v) >= t} fit the memory budget. Raising t only sheds the
  // lowest-degree hubs, so the fit is monotone.
  row_words_ = (static_cast<size_t>(n) + 63) / 64;
  const uint64_t row_bytes = row_words_ * sizeof(uint64_t);
  const uint32_t max_degree = g.MaxDegree();
  // True (uncapped) degrees throughout hub fitting: the record's capped
  // degree would fold everything above the cap into one histogram bin.
  std::vector<uint64_t> ge(static_cast<size_t>(max_degree) + 2, 0);
  for (VertexId v = 0; v < n; ++v) ge[g.Degree(v)]++;
  for (uint32_t d = max_degree; d > 0; --d) ge[d - 1] += ge[d];
  uint64_t threshold = options.hub_degree_threshold > 0
                           ? options.hub_degree_threshold
                           : options.min_hub_degree;
  threshold = std::max<uint64_t>(threshold, 1);
  while (threshold <= max_degree &&
         (ge[threshold] * row_bytes > options.hub_memory_budget ||
          ge[threshold] > kMaxHubs)) {
    ++threshold;
  }
  if (threshold > max_degree) return;  // nothing qualifies: no hub rows

  hub_threshold_ = static_cast<uint32_t>(threshold);
  std::vector<VertexId> hubs;
  hubs.reserve(ge[threshold]);
  for (VertexId v = 0; v < n; ++v) {
    if (g.Degree(v) >= hub_threshold_) {
      meta_[v].hub_slot = static_cast<uint16_t>(hubs.size());
      hubs.push_back(v);
    }
  }
  num_hubs_ = static_cast<uint32_t>(hubs.size());

  // Row fill: rows are disjoint slices of bits_, one per hub.
  bits_.assign(static_cast<size_t>(num_hubs_) * row_words_, 0);
  ChainPool::Shared().ForEach(
      hubs.size(),
      [&](size_t slot) {
        uint64_t* row = bits_.data() + slot * row_words_;
        for (VertexId w : g.Neighbors(hubs[slot])) {
          row[w >> 6] |= 1ull << (w & 63);
        }
      },
      options.threads);
}

bool AdjacencyIndex::LinearContains(const VertexId* list, size_t len,
                                    VertexId v) {
  // Short sorted lists: sequential compare with early exit beats any
  // probing — the whole list is one or two cache lines.
  for (size_t i = 0; i < len; ++i) {
    if (list[i] >= v) return list[i] == v;
  }
  return false;
}

#if defined(GRW_SIMD_AVX2)

__attribute__((target("avx2"))) bool AdjacencyIndex::VectorContainsAvx2(
    const VertexId* list, size_t len, VertexId v) {
  // 16 entries per iteration as two masked 8-lane compares: no
  // data-dependent exit branch inside a block, so a probe that resolves
  // in the first block (every list up to simd_scan_cutoff's first 16
  // entries) retires without a single unpredictable branch. Masked loads
  // never touch bytes past the list, and masked-off lanes are stripped
  // from the hit mask so a candidate id of 0 cannot alias the load's
  // zero fill. Between blocks the sorted order gives an exact early
  // exit: if the block's last entry is >= v, no later block can hold v.
  const __m256i key = _mm256_set1_epi32(static_cast<int>(v));
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (size_t i = 0; i < len; i += 16) {
    const size_t rem = len - i;
    const __m256i n0 =
        _mm256_set1_epi32(static_cast<int>(std::min<size_t>(rem, 8)));
    const __m256i m0 = _mm256_cmpgt_epi32(n0, iota);
    const __m256i a = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(list + i), m0);
    __m256i hit = _mm256_and_si256(_mm256_cmpeq_epi32(a, key), m0);
    const size_t rem1 = rem > 8 ? std::min<size_t>(rem - 8, 8) : 0;
    const __m256i n1 = _mm256_set1_epi32(static_cast<int>(rem1));
    const __m256i m1 = _mm256_cmpgt_epi32(n1, iota);
    // rem <= 8 keeps the pointer at list + i (still in bounds); the
    // all-zero mask then loads nothing from it.
    const __m256i b = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(list + i + (rem > 8 ? 8 : 0)), m1);
    hit = _mm256_or_si256(hit, _mm256_and_si256(_mm256_cmpeq_epi32(b, key), m1));
    if (!_mm256_testz_si256(hit, hit)) return true;
    if (list[i + std::min<size_t>(rem, 16) - 1] >= v) return false;
  }
  return false;
}

#else  // !GRW_SIMD_AVX2

bool AdjacencyIndex::VectorContainsAvx2(const VertexId* list, size_t len,
                                        VertexId v) {
  return LinearContains(list, len, v);
}

#endif  // GRW_SIMD_AVX2

bool AdjacencyIndex::GallopContains(const VertexId* list, size_t len,
                                    VertexId v) {
  // Galloping: double the probe distance until the window [hi/2, hi)
  // brackets v, then finish with a branchless (conditional-move) binary
  // search over that window.
  size_t hi = 1;
  while (hi < len && list[hi - 1] < v) hi <<= 1;
  const VertexId* base = list + (hi >> 1);
  size_t span = std::min(hi, len) - (hi >> 1);
  while (span > 1) {
    const size_t half = span / 2;
    base += (base[half - 1] < v) ? half : 0;
    span -= half;
  }
  return *base == v;
}

}  // namespace grw
