// Random walk on G(d) for d >= 3: states are connected induced d-node
// subgraphs, and a step moves to a uniform neighbor state: one that drops
// a vertex z of the state and adds a vertex w so the result stays
// connected.
//
// This is the walk behind SRW3 and SRW4 — i.e. PSRW (Wang et al.) when
// d = k-1 — kept as the paper's main comparison method. Per Section 5,
// drawing a uniform neighbor of a state means generating all of its
// neighbors, O(d^2 |E|/|V|) per step, which is why the paper argues for
// walking with small d; our Table 6 bench reproduces the resulting
// runtime gap. At d = 3 the listing can be skipped but the list work
// cannot: a step still merges the state vertices' neighbor lists, so the
// argument holds with a smaller constant. The two regimes:
//
// * d = 3: counted in closed form. For the sorted state {s0, s1, s2}, drop
//   z and keep the pair x < y. If x ~ y, every vertex of N(x) ∪ N(y)
//   outside the state is a valid w: d_x + d_y - |N(x) ∩ N(y)| - 3 of them
//   when the state is connected. If x !~ y, w must join them: the
//   |N(x) ∩ N(y)| - 1 common neighbors other than z. The degree needs
//   one intersection count per kept pair, but only two are fresh: the
//   move into a state kept one of its pairs, and carries that pair's
//   count and adjacency over from the state before (G3Carry). The fresh
//   counts go through SortedIntersectionSize, a skip-scan for skewed
//   pairs and an SSE2 block compare for balanced ones. A step draws
//   pick < degree, chooses z from the running per-z counts, and walks
//   one merge of N(x) and N(y) to the pick-th qualifying w. No neighbor
//   state is ever written out, and the order (z ascending, then w
//   ascending) is the enumerator's, so the walk reaches the same state
//   as a pick from the written-out list.
// * d >= 4: enumerated. Each step writes out every neighbor state and
//   picks one. The enumerator reuses a caller-owned GdScratch (zero
//   allocations once warm): the state's internal adjacency mask is built
//   once per call with C(d,2) edge queries, each evicted vertex derives
//   its base mask by bit surgery, and candidates come from a (d-1)-way
//   sorted merge of the base vertices' neighbor lists, so each distinct
//   v_in arrives in ascending order with its base-adjacency mask already
//   assembled and costs zero edge queries, just an O(d) bitmask BFS.
//   EnumerateGdNeighbors serves every d and is the test oracle for the
//   closed form; the pre-optimization path is preserved as
//   EnumerateGdNeighborsReference for the equivalence tests and the
//   micro-bench baseline.
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

/// The G(3) degree of a 3-vertex state split by the vertex a move drops:
/// count[z] neighbor states keep the other two vertices x, y of the
/// state, common[z] is their |N(x) ∩ N(y)|, and bit z of pair_edges says
/// whether they are adjacent. Filled by the closed-form count in
/// subgraph_walk.cpp: two fresh intersection counts and one carried (see
/// G3Carry), or three fresh ones from SubgraphStateDegree.
struct G3Split {
  std::array<uint64_t, 3> count = {};
  std::array<uint64_t, 3> common = {};
  uint32_t pair_edges = 0;
  uint64_t Total() const { return count[0] + count[1] + count[2]; }
};

/// What a d = 3 move {x, y, z} -> {x, y, w} carries into the new state:
/// the pair (x, y)'s |N(x) ∩ N(y)| from the old state's G3Split, filed
/// under slot, w's position in the new sorted state (the position whose
/// drop keeps x, y); and the new state's whole adjacency in G3Split's
/// pair_edges form: x ~ y from the old split, w's edges to x and y from
/// the merge that found w. slot < 0 carries nothing.
struct G3Carry {
  int slot = -1;
  uint64_t common = 0;
  uint32_t pair_edges = 0;
};

/// Random walk on connected induced d-node subgraphs of G, d >= 3,
/// through access policy G.
template <class G = Graph>
class SubgraphWalkT final : public StateWalker {
 public:
  SubgraphWalkT(const G& g, int d, bool non_backtracking = false)
      : g_(&g), d_(d), nb_(non_backtracking) {
    if (d < 3) {
      throw std::invalid_argument("SubgraphWalk: use NodeWalk/EdgeWalk");
    }
    if (g.NumNodes() < static_cast<VertexId>(d + 1)) {
      throw std::invalid_argument("SubgraphWalk: graph too small");
    }
    nodes_.reserve(d);
    prev_.reserve(d);
    next_.reserve(d);
  }

  void Reset(Rng& rng) override;

  void Step(Rng& rng) override;

  std::span<const VertexId> Nodes() const override {
    return {nodes_.data(), nodes_.size()};
  }

  /// Number of neighbor states, computed once per state: the closed-form
  /// per-z counts at d = 3, the written-out neighbor list at d >= 4.
  uint64_t StateDegree() const override {
    EnsureDegree();
    return d_ == 3 ? g3_.Total() : neighbors_.size() / d_;
  }

  /// At d = 3 after a Step(), the whole state's adjacency (the carry's
  /// pair_edges); nothing otherwise.
  KnownAdjacency Known() const override;

 private:
  void EnsureDegree() const;
  // Writes the pick-th neighbor state (enumeration order) into next_;
  // at d = 3, returns what that move keeps of this state's count.
  G3Carry Locate(uint64_t pick);

  const G* g_;
  int d_;
  bool nb_;
  std::vector<VertexId> nodes_;  // sorted
  std::vector<VertexId> prev_;   // sorted; empty until first Step
  std::vector<VertexId> next_;   // the located move, before it is taken
  mutable bool degree_valid_ = false;
  G3Carry carry_;                            // d == 3: into nodes_
  mutable G3Split g3_;                       // d == 3
  mutable std::vector<VertexId> neighbors_;  // d >= 4: flattened states
  mutable GdScratch scratch_;
};

/// The full-access walk every pre-policy call site uses.
using SubgraphWalk = SubgraphWalkT<Graph>;

}  // namespace grw
