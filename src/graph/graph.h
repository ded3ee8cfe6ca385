// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// This is the substrate every other module walks on. Design points:
//  * Adjacency lists are sorted, so HasEdge is SortedContains, an inline
//    branchless search of the lower-degree endpoint's list — the
//    estimator's incremental sample-window maintenance (paper Section 5)
//    performs at most k-1 such searches per random-walk step, fewer where
//    the walk already knows the answer. Attaching an AdjacencyIndex
//    (graph/adjacency.h) upgrades HasEdge to O(1) hub bitset tests and
//    signature-filtered hybrid searches without changing any result.
//  * The structure is immutable after construction; all samplers share one
//    const Graph& across threads without synchronization.
//  * Node ids are dense uint32_t in [0, NumNodes()).
//  * The CSR arrays are viewed through spans whose storage lives in a
//    shared, opaque Backing. The backing is either a pair of owned vectors
//    (graphs built in memory) or a memory-mapped `.grwb` snapshot
//    (graph/format.h), which makes loading a multi-gigabyte graph a
//    zero-copy mmap instead of a parse. Copying a Graph shares the backing;
//    it never duplicates the arrays.

#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace grw {

using VertexId = uint32_t;

/// True iff `v` is in `list`, which must be strictly increasing (a
/// neighbor list). Every membership test of the access family goes
/// through it: a halving search whose step is a conditional move, not a
/// branch, so a probe costs log2(size) dependent loads and no
/// mispredicted jumps, finished by one compare.
inline bool SortedContains(std::span<const VertexId> list, VertexId v) {
  if (list.empty()) return false;
  const VertexId* base = list.data();
  size_t n = list.size();
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] <= v ? base + half : base;
    n -= half;
  }
  return *base == v;
}

class AdjacencyIndex;
struct AdjacencyIndexOptions;

/// Undirected simple graph, CSR storage, sorted neighbor lists.
class Graph {
 public:
  /// Opaque owner of the memory the CSR spans point into. Concrete
  /// subclasses hold owned vectors (in-memory build) or an mmap'd file
  /// region (zero-copy snapshot load, graph/format.cpp).
  struct Backing {
    virtual ~Backing() = default;
  };

  Graph() = default;

  /// Constructs from owned CSR arrays. offsets.size() == num_nodes + 1,
  /// neighbors.size() == offsets.back() == 2 * NumEdges().
  /// Neighbor ranges must be sorted and free of duplicates/self-loops;
  /// use GraphBuilder to produce such arrays from raw edges.
  Graph(std::vector<uint64_t> offsets, std::vector<VertexId> neighbors);

  /// Zero-copy construction: the spans must satisfy the same invariants as
  /// above and stay valid for the lifetime of *backing (which the graph —
  /// and every copy of it — keeps alive).
  Graph(std::span<const uint64_t> offsets, std::span<const VertexId> neighbors,
        std::shared_ptr<const Backing> backing)
      : backing_(std::move(backing)),
        offsets_(offsets),
        neighbors_(neighbors),
        max_degree_(std::make_shared<std::atomic<uint32_t>>(kUnknownDegree)) {
    assert(offsets_.empty() || offsets_.back() == neighbors_.size());
  }

  VertexId NumNodes() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of undirected edges |E|.
  uint64_t NumEdges() const { return neighbors_.size() / 2; }

  uint32_t Degree(VertexId v) const {
    assert(v < NumNodes());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbors of v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    assert(v < NumNodes());
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// The i-th neighbor of v (0-based, in sorted order).
  VertexId Neighbor(VertexId v, uint32_t i) const {
    assert(i < Degree(v));
    return neighbors_[offsets_[v] + i];
  }

  /// Starts loading v's offsets row, which Degree(v) and Neighbors(v)
  /// read (the pair can straddle a line). A hint only, like the next one:
  /// no result depends on it.
  void PrefetchRow(VertexId v) const {
    assert(v < NumNodes());
    __builtin_prefetch(offsets_.data() + v);
    __builtin_prefetch(offsets_.data() + v + 1);
  }

  /// Starts loading Neighbor(v, i)'s slot; reads v's offsets row.
  void PrefetchNeighbor(VertexId v, uint32_t i) const {
    assert(i < Degree(v));
    __builtin_prefetch(neighbors_.data() + offsets_[v] + i);
  }

  /// True iff the undirected edge (u, v) exists. Routes through the
  /// attached AdjacencyIndex when one exists (O(1) for hub endpoints,
  /// signature-filtered hybrid search otherwise); otherwise, inline,
  /// SortedContains over the lower-degree endpoint's list. Both paths
  /// return identical results for every input.
  bool HasEdge(VertexId u, VertexId v) const {
    if (index_) [[unlikely]] return IndexedHasEdge(u, v);
    return HasEdgeBinarySearch(u, v);
  }

  /// The index-free reference path: SortedContains over the lower-degree
  /// endpoint's sorted list, O(log Degree(min-side)). Used by the
  /// equivalence property tests and the HasEdge micro bench baseline.
  bool HasEdgeBinarySearch(VertexId u, VertexId v) const {
    if (u >= NumNodes() || v >= NumNodes() || u == v) return false;
    if (Degree(u) > Degree(v)) std::swap(u, v);
    return SortedContains(Neighbors(u), v);
  }

  /// Builds and attaches an AdjacencyIndex (graph/adjacency.h) so every
  /// HasEdge caller takes the accelerated path. Call before sharing the
  /// graph across threads; copies made afterwards share the index.
  /// Attaching never changes any query result, only its cost.
  void BuildAdjacencyIndex();
  void BuildAdjacencyIndex(const AdjacencyIndexOptions& options);

  /// The attached acceleration index, or nullptr. (Stats reporting and
  /// tests; queries should just call HasEdge.)
  const AdjacencyIndex* adjacency_index() const { return index_.get(); }

  /// Shares the CSR storage owner (nullptr for a default-constructed
  /// graph). The AdjacencyIndex holds this so its CSR views outlive any
  /// particular Graph copy.
  std::shared_ptr<const Backing> backing() const { return backing_; }

  /// Maximum degree over all nodes. O(n) on first call, then cached
  /// (copies of the graph share the cache).
  uint32_t MaxDegree() const;

  /// Sum over nodes of Degree(v)^2; used by |R(2)| and wedge counting.
  uint64_t DegreeSquareSum() const;

  /// Number of wedges (paths of length two) = sum_v C(d_v, 2).
  /// Also equals |R(2)|, the edge count of the 2-node subgraph
  /// relationship graph G(2) (paper Section 3.3).
  uint64_t WedgeCount() const;

  /// True iff the graph is connected (empty graph counts as connected).
  bool IsConnected() const;

  /// One-line summary "n=<nodes> m=<edges> dmax=<max degree>".
  std::string Summary() const;

  /// Raw CSR arrays, for serialization (graph/format.*) and tests.
  /// RawOffsets().size() == NumNodes() + 1 (or 0 for a default graph);
  /// RawNeighbors().size() == 2 * NumEdges().
  std::span<const uint64_t> RawOffsets() const { return offsets_; }
  std::span<const VertexId> RawNeighbors() const { return neighbors_; }

 private:
  static constexpr uint32_t kUnknownDegree = 0xFFFFFFFFu;

  // HasEdge through the attached index; out of line, off the hot path.
  bool IndexedHasEdge(VertexId u, VertexId v) const;

  std::shared_ptr<const Backing> backing_;
  std::span<const uint64_t> offsets_;
  std::span<const VertexId> neighbors_;
  std::shared_ptr<const AdjacencyIndex> index_;
  // Lazily computed MaxDegree(), shared by all copies of this graph. A
  // benign race (two threads computing the same value) is the worst case.
  std::shared_ptr<std::atomic<uint32_t>> max_degree_;
};

}  // namespace grw
