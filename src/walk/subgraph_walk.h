// Random walk on G(d) for d >= 3: states are connected induced d-node
// subgraphs, and a step moves to a uniform neighbor state: one that drops
// a vertex z of the state and adds a vertex w so the result stays
// connected.
//
// This is the walk behind SRW3 and SRW4 — i.e. PSRW (Wang et al.) when
// d = k-1 — kept as the paper's main comparison method. Per Section 5,
// drawing a uniform neighbor by writing out all of a state's neighbors
// costs O(d^2 |E|/|V|) per step, which is why the paper argues for walking
// with small d; the Table 6 bench times that listing in its own column.
//
// The walk draws its move by rejection instead, one rule for every d. For
// the sorted state S = {s_0 < ... < s_{d-1}} a try draws a slot of the
// concatenated lists N(s_0) ++ ... ++ N(s_{d-1}), which names a state
// vertex u and its neighbor w, and a vertex z uniformly from the other
// d - 1. It accepts iff w is outside S, no kept vertex before u in state
// order is adjacent to w, and S - z + w is connected. Each neighbor state
// (z, w) has exactly one accepting draw (u is w's first kept neighbor), so
// each has probability 1 / ((d - 1) * sum d_i) per try and the accepted
// move is exactly uniform. The walk carries its state's internal
// adjacency rows, so connectivity is a bitmask BFS over them plus w's row,
// which the test has just probed. It also carries its state vertices'
// degrees (the slot draw's weights), so a step reads one degree, the
// entering vertex's, not d; after Reset the first step reads all d.
// Moving needs no G(d) degree: the walk counts it only when asked
// (StateDegree), and a non-backtracking walk asks only when a try returns
// to the previous state.
//
// The degree itself (SubgraphStateDegree) is a closed form at d = 3, three
// intersection counts, and the count of EnumerateGdNeighbors at d >= 4.
// The enumerator reuses a caller-owned GdScratch (zero allocations once
// warm): the state's internal adjacency mask is built once per call with
// C(d,2) edge queries, each evicted vertex derives its base mask by bit
// surgery, and candidates come from a (d-1)-way sorted merge of the base
// vertices' neighbor lists, so each distinct v_in arrives in ascending
// order with its base-adjacency mask already assembled and costs zero edge
// queries, just an O(d) bitmask BFS. It is the test oracle for the closed
// form and for the walk's moves; the pre-optimization path is preserved
// as EnumerateGdNeighborsReference for the equivalence tests and the
// micro-bench baseline.
//
// Everything here is templated on the graph access policy and explicitly
// instantiated in subgraph_walk.cpp for every member of the access family
// (GRW_ACCESS_FAMILY, graph/access.h). Each edge query and neighbor-list
// read goes through the policy, so a crawl simulation charges the walk
// its true API cost.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/access.h"
#include "walk/walker.h"

namespace grw {

/// Reusable scratch for G(d) neighbor enumeration. One instance per
/// walker/chain; reuse across calls makes the hot path allocation-free
/// after the first few steps (the vectors keep their high-water capacity).
struct GdScratch {
  std::vector<VertexId> base;       // state minus the evicted vertex
  std::vector<VertexId> candidate;  // base plus the incoming vertex
  std::array<uint32_t, 32> state_rows = {};  // state internal adjacency
  std::array<uint32_t, 32> base_rows = {};   // derived per evicted vertex
  // Cursors for the (d-1)-way sorted merge over base neighbor lists.
  std::array<const VertexId*, 32> heads = {};
  std::array<const VertexId*, 32> ends = {};
};

/// Appends to *out_neighbors (if non-null) all G(d)-neighbors of `state`
/// (sorted node ids, d = state.size() <= 32), flattened d ids per
/// neighbor, each sorted; returns the neighbor count. A neighbor is any
/// connected induced d-node subgraph sharing exactly d-1 nodes with
/// `state`. Pass out_neighbors == nullptr to count without materializing.
/// Defined in subgraph_walk.cpp for every GRW_ACCESS_FAMILY member.
template <class G>
uint64_t EnumerateGdNeighbors(const G& g, std::span<const VertexId> state,
                              std::vector<VertexId>* out_neighbors,
                              GdScratch& scratch);

/// Convenience overload with a throwaway scratch (tests, one-off calls).
template <class G>
inline void EnumerateGdNeighbors(const G& g,
                                 std::span<const VertexId> state,
                                 std::vector<VertexId>* out_neighbors) {
  GdScratch scratch;
  EnumerateGdNeighbors(g, state, out_neighbors, scratch);
}

/// The pre-acceleration enumerator: per-call vector allocations and a full
/// adjacency-probing BFS per candidate. Kept verbatim as the behavioral
/// reference — tests assert the accelerated path emits the identical
/// flattened neighbor sequence, and bench_micro_hasedge uses it as the
/// end-to-end SRW baseline. Full access only.
void EnumerateGdNeighborsReference(const Graph& g,
                                   std::span<const VertexId> state,
                                   std::vector<VertexId>* out_neighbors);

/// Degree of `state` in G(d): the number of neighbors above. Closed form
/// (three intersection counts) when state.size() == 3, enumerated above.
template <class G>
uint64_t SubgraphStateDegree(const G& g, std::span<const VertexId> state,
                             GdScratch& scratch);

/// Convenience overload with a throwaway scratch.
template <class G>
inline uint64_t SubgraphStateDegree(const G& g,
                                    std::span<const VertexId> state) {
  GdScratch scratch;
  return SubgraphStateDegree(g, state, scratch);
}

/// True iff the subgraph induced by `nodes` (<= 32 of them) is connected.
/// Costs C(|nodes|, 2) edge queries and one bitmask BFS.
template <class G>
bool InducedSubgraphConnected(const G& g, std::span<const VertexId> nodes);

/// |a ∩ b| of two strictly increasing id lists (neighbor lists), the
/// count behind the closed-form G(3) degree. Size-adaptive: when the
/// longer list holds more than 8x the shorter one's ids, each id of the
/// shorter list skips the longer one 8 ids at a time; otherwise an SSE2
/// 4x4 block compare, with a scalar merge for the tails (and for
/// everything where SSE2 is unavailable). Never reads past either span.
uint64_t SortedIntersectionSize(std::span<const VertexId> a,
                                std::span<const VertexId> b);

/// Random walk on connected induced d-node subgraphs of G, 3 <= d <= 32,
/// through access policy G.
template <class G = Graph>
class SubgraphWalkT final : public StateWalker {
 public:
  SubgraphWalkT(const G& g, int d, bool non_backtracking = false)
      : g_(&g), d_(d), nb_(non_backtracking) {
    if (d < 3) {
      throw std::invalid_argument("SubgraphWalk: use NodeWalk/EdgeWalk");
    }
    if (d > 32) throw std::invalid_argument("SubgraphWalk: d above 32");
    if (g.NumNodes() < static_cast<VertexId>(d + 1)) {
      throw std::invalid_argument("SubgraphWalk: graph too small");
    }
    nodes_.reserve(d);
  }

  void Reset(Rng& rng) override;

  void Step(Rng& rng) override;

  std::span<const VertexId> Nodes() const override {
    return {nodes_.data(), nodes_.size()};
  }

  /// Number of neighbor states, counted by SubgraphStateDegree on the
  /// first call at each state and cached until the state changes.
  uint64_t StateDegree() const override {
    if (degree_ == 0) degree_ = SubgraphStateDegree(*g_, Nodes(), scratch_);
    return degree_;
  }

  /// At d = 3, the whole state's adjacency (the carried rows); nothing
  /// otherwise.
  KnownAdjacency Known() const override;

 private:
  static constexpr VertexId kNone = ~VertexId{0};  // above every node id

  const G* g_;
  int d_;
  bool nb_;
  std::vector<VertexId> nodes_;  // sorted
  // Bit j of rows_[i]: nodes_[i] ~ nodes_[j].
  std::array<uint32_t, 32> rows_ = {};
  // degrees_[i]: Degree(nodes_[i]), or 0 until Step reads it.
  std::array<uint32_t, 32> degrees_ = {};
  // The vertices the last move dropped and added; kNone after Reset.
  VertexId left_ = kNone;
  VertexId entered_ = kNone;
  mutable uint64_t degree_ = 0;  // 0 until StateDegree counts it
  mutable GdScratch scratch_;
};

/// The full-access walk every pre-policy call site uses.
using SubgraphWalk = SubgraphWalkT<Graph>;

}  // namespace grw
