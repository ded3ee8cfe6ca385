// Adjacency acceleration index: near-free edge-existence queries.
//
// Every random-walk step is dominated by HasEdge probes — the sliding
// sample window issues k-1 per step (paper Section 5) and the G(d) walk's
// neighbor enumeration issues O(d^2 |E|/|V|) of them. A plain CSR answers
// each probe with a binary search over the smaller endpoint's neighbor
// list; this index layers three structures on top of the (unmodified) CSR
// so most probes never touch the list at all:
//
//   1. Hub bitsets — dense one-bit-per-node rows for the highest-degree
//      vertices ("hubs", degree >= threshold), under a configurable memory
//      budget. A probe whose larger endpoint is a hub is a single bit
//      test, O(1). Degree-skewed graphs concentrate walk traffic on hubs,
//      so a few rows absorb most of the expensive probes.
//   2. Neighbor signatures — a per-node 64-bit Bloom-style fingerprint of
//      the neighbor set. A probe whose fingerprint bit is clear is a
//      certain miss, answered without touching the neighbor list; only
//      signature hits fall through to the list search. Miss-heavy
//      workloads (the common case: most candidate pairs are non-edges)
//      short-circuit here.
//   3. Hybrid list search — linear scan below a small cutoff (short lists
//      fit in one or two cache lines, where branch-free sequential
//      compares beat log-time probing) and branchless galloping search
//      (exponential range narrowing + conditional-move binary search)
//      above it.
//
// Dispatch layout: signature, degree and hub slot are fused into one
// 16-byte per-node record, so a probe classifies both endpoints (reject /
// hub / short-list / long-list) from at most two cache lines instead of
// re-deriving the regime from scattered arrays (signatures, CSR offsets,
// hub slots) on every query. Present-edge probes — the one regime the
// split layout regressed — skip the signature math entirely once the
// record says the resolving list is short.
//
// SignatureProbeBatchHasAvx2() gates the AVX2 list scan inside HasEdge
// (runtime-dispatched; bit-identical scalar scan otherwise).
//
// The index is an overlay: it stores no adjacency of its own beyond the
// bitset rows, keeps the CSR's lowest-degree-endpoint probe orientation,
// and returns bit-identical answers to Graph::HasEdgeBinarySearch. Attach
// one via Graph::BuildAdjacencyIndex() and every HasEdge caller on that
// graph routes through it transparently. No product path attaches one:
// walks, crawls, serve and exact counting read by binary search, and the
// index's only remaining users are the per-layer benchmark
// (e2ebench/layers.cpp), its two micro benches and its own tests.
// Construction is a
// deterministic parallel pass over the CSR (same index at any thread
// count).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace grw {

/// The multiplicative (Fibonacci) hash picking one of 64 signature bits
/// for a vertex id; the high bits of the product are well mixed even for
/// dense sequential ids.
inline uint64_t NeighborSignatureBit(VertexId v) {
  return 1ull << ((v * 0x9E3779B97F4A7C15ull) >> 58);
}

/// True when this binary carries the AVX2 path and the CPU supports it.
bool SignatureProbeBatchHasAvx2();

/// Tuning knobs for AdjacencyIndex construction.
struct AdjacencyIndexOptions {
  /// Vertices with degree >= this get a dense bitset row. 0 = choose the
  /// smallest threshold (>= min_hub_degree) whose rows fit the budget.
  /// An explicit value is a starting point, not a promise: it is still
  /// raised as far as hub_memory_budget requires (never lowered). Check
  /// AdjacencyIndex::hub_threshold() for the effective value.
  uint32_t hub_degree_threshold = 0;
  /// Upper bound on total bitset-row memory. Rows are n bits each, so the
  /// default 64 MiB holds ~500 hub rows on a 1M-node graph.
  uint64_t hub_memory_budget = 64ull << 20;
  /// Never spend a bitset row on a vertex below this degree, no matter how
  /// roomy the budget: a short sorted list is already fast to search.
  uint32_t min_hub_degree = 64;
  /// Neighbor lists shorter than this are scanned linearly instead of
  /// galloping-searched.
  uint32_t linear_cutoff = 16;
  /// When the AVX2 membership scan is available, lists up to this length
  /// are resolved by a branchless vector scan instead of a hub-row probe
  /// or galloping search — a few *sequential* cache lines beat one random
  /// line in tens of MiB of bitset, and no data-dependent scan-exit
  /// branch means no mispredict per probe. 0 disables the widening (the
  /// linear_cutoff policy applies unchanged); ignored without AVX2.
  uint32_t simd_scan_cutoff = 64;
  /// Shared-pool threads for construction; 0 = every pool thread.
  unsigned threads = 0;
};

/// Immutable acceleration overlay for one Graph. Thread-safe to query
/// concurrently; build once before sharing (Graph::BuildAdjacencyIndex).
class AdjacencyIndex {
 public:
  AdjacencyIndex(const Graph& g, const AdjacencyIndexOptions& options = {});

  /// Same contract and result as Graph::HasEdgeBinarySearch, faster.
  /// Requires u, v < NumNodes() and u != v (Graph::HasEdge pre-checks).
  bool HasEdge(VertexId u, VertexId v) const {
    // One-load Bloom reject, before even classifying the endpoints: a
    // clear bit proves the edge is absent (the bit was set for every real
    // neighbor at build time, so there are no false negatives). Most
    // non-edge probes — the dominant query shape on sparse graphs —
    // finish here having touched exactly one cache line.
    const NodeMeta mu = meta_[u];
    if (!(mu.signature & NeighborSignatureBit(v))) return false;
    // u's own list already short: scan it directly. The CSR is symmetric,
    // so either endpoint's list answers the question — and because the
    // record carries the list's CSR offset, the scan starts without
    // loading meta_[v], a hub row, or the offsets array. Present edges
    // with a low-degree endpoint (most edges of a sparse graph) finish
    // in two cache lines: the record and the list itself.
    if (mu.degree <= scan_cutoff_) {
      return ListContains(ListBegin(u, mu), mu.degree, v);
    }
    // Keep the CSR's orientation: resolve against the lower-degree
    // endpoint's list. Everything needed to classify the probe (degree,
    // hub slot, list offset) rides in the two records just loaded.
    // Capped degrees compare correctly: a capped record is >= the cap,
    // an uncapped one is below it, and between two capped records either
    // orientation resolves the same symmetric membership question.
    const NodeMeta mv = meta_[v];
    VertexId small = u;
    VertexId large = v;
    NodeMeta small_meta = mu;
    uint16_t large_slot = mv.hub_slot;
    if (mu.degree > mv.degree) {
      small = v;
      large = u;
      small_meta = mv;
      large_slot = mu.hub_slot;
    }
    if (small_meta.degree <= scan_cutoff_) {
      // Short resolving list: the scan is cheaper than the random cache
      // line a hub-row bit test would touch, and present edges (which
      // always pass the filter) skip the signature math entirely.
      return ListContains(ListBegin(small, small_meta), small_meta.degree,
                          large);
    }
    if (large_slot != kNoHub) {
      // O(1): one bit test in the large endpoint's dense row. Only long
      // small sides reach here — anything scannable resolved above.
      return (bits_[static_cast<size_t>(large_slot) * row_words_ +
                    (small >> 6)] >>
              (small & 63)) &
             1u;
    }
    // Small-side filter (a different, more selective fingerprint when the
    // swap above fired; a register-only recheck otherwise), then the
    // branchless galloping search.
    if (!(small_meta.signature & NeighborSignatureBit(large))) return false;
    return GallopContains(ListBegin(small, small_meta),
                          ListLength(small, small_meta), large);
  }

  /// Membership test over a sorted neighbor list slice — the two
  /// implementations behind the probe's list scan, exposed for the
  /// SIMD-vs-scalar parity property tests. LinearContains is the scalar
  /// early-exit reference; VectorContainsAvx2 is the branchless masked
  /// vector scan (16 entries per iteration, sorted early exit per block;
  /// requires SignatureProbeBatchHasAvx2()). Identical results on every
  /// input.
  static bool LinearContains(const VertexId* list, size_t len, VertexId v);
  static bool VectorContainsAvx2(const VertexId* list, size_t len,
                                 VertexId v);

  /// True iff v has a dense bitset row.
  bool IsHub(VertexId v) const { return meta_[v].hub_slot != kNoHub; }

  /// The effective hub degree threshold (after budget fitting);
  /// 0 when the graph has no hubs.
  uint32_t hub_threshold() const { return hub_threshold_; }
  uint32_t num_hubs() const { return num_hubs_; }
  uint64_t bitset_bytes() const { return bits_.size() * sizeof(uint64_t); }
  /// Bytes of fused per-node records (signature + degree + hub slot).
  uint64_t metadata_bytes() const {
    return meta_.size() * sizeof(NodeMeta);
  }

 private:
  static constexpr uint16_t kNoHub = 0xFFFFu;
  /// Degrees at or above this are stored capped; ListLength() recovers the
  /// exact length from the CSR offsets (rare deep path, extra load there
  /// only).
  static constexpr uint16_t kDegreeCap = 0xFFFFu;
  /// Hub slots must fit 16 bits with kNoHub reserved, so at most this many
  /// bitset rows (threshold fitting raises the degree bar to comply).
  static constexpr uint64_t kMaxHubs = 0xFFFFu;

  /// Fused per-node probe dispatch record: everything HasEdge needs to
  /// classify a probe (reject it, route it to a hub row, or pick the list
  /// search flavor) AND find the neighbor list (CSR offset) in one
  /// 16-byte load per endpoint — list-resolved probes never touch the
  /// offsets array.
  struct NodeMeta {
    uint64_t signature = 0;  // Bloom fingerprint of the neighbor set
    uint32_t offset = 0;     // CSR list start (unused if wide_offsets_)
    uint16_t degree = 0;     // min(true degree, kDegreeCap)
    uint16_t hub_slot = kNoHub;
  };
  static_assert(sizeof(NodeMeta) == 16, "one 16-byte record per node");

  /// Start of u's neighbor list. The record's 32-bit offset covers graphs
  /// up to 2^32 half-edges; beyond that the constructor sets
  /// wide_offsets_ and probes fall back to the 64-bit CSR offsets (one
  /// perfectly predicted branch on a never-changing member).
  const VertexId* ListBegin(VertexId u, const NodeMeta& m) const {
    return neighbors_ + (wide_offsets_ ? offsets_[u] : m.offset);
  }
  /// Exact length of u's neighbor list (resolves the degree cap).
  size_t ListLength(VertexId u, const NodeMeta& m) const {
    return m.degree != kDegreeCap
               ? m.degree
               : static_cast<size_t>(offsets_[u + 1] - offsets_[u]);
  }

  static bool GallopContains(const VertexId* list, size_t len, VertexId v);

  /// Runtime-dispatched list scan (vector when the CPU has AVX2).
  bool ListContains(const VertexId* list, size_t len, VertexId v) const {
    return vector_scan_ ? VectorContainsAvx2(list, len, v)
                        : LinearContains(list, len, v);
  }

  // CSR views (shared with the graph; backing_ keeps them alive even if
  // the original Graph object is destroyed).
  std::shared_ptr<const Graph::Backing> backing_;
  const uint64_t* offsets_ = nullptr;
  const VertexId* neighbors_ = nullptr;

  std::vector<NodeMeta> meta_;  // one dispatch record per node
  std::vector<uint64_t> bits_;  // num_hubs_ rows of row_words_ words
  size_t row_words_ = 0;
  uint32_t hub_threshold_ = 0;
  uint32_t num_hubs_ = 0;
  uint32_t linear_cutoff_ = 16;
  uint32_t scan_cutoff_ = 16;  // linear_cutoff_, widened under AVX2
  bool vector_scan_ = false;   // AVX2 membership scan available
  bool wide_offsets_ = false;  // > 2^32 half-edges: offsets via CSR
};

}  // namespace grw
