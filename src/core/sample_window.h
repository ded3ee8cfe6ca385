// Sliding window over the last l states of a walk on G(d), maintaining the
// union vertex set and its induced adjacency incrementally.
//
// Paper Section 5 ("Identify Graphlet Types"): because consecutive states
// share d-1 nodes, at most one vertex enters the union per step, so its
// adjacency against the <= k-1 retained vertices costs at most k-1 edge
// queries — versus C(k,2) for rebuilding from scratch. Fewer in practice:
// the walker hands each push the adjacency its move already revealed
// (KnownAdjacency, walk/walker.h), and only the pairs it leaves unknown
// are probed: 1 of 2 per step for d = 1 at k = 3, 2 of 3 for d = 2 at
// k = 4, 1 of 3 for d = 3 at k = 4. Both paths are implemented; tests
// assert they agree and the micro bench measures the gap. Each query goes
// through the access policy's HasEdge: with full access
// (SampleWindow = SampleWindowT<Graph>) that is Graph::HasEdge, an inline
// branchless search (SortedContains, graph/graph.h) of the lower-degree
// endpoint's list; through a crawl cache the same probes are answered
// from the crawler's cached neighbor lists and charged API cost on a
// miss.
//
// The window also snapshots each state's G(d)-degree (provided by the
// caller as states are pushed) because the expanded-chain weight of a
// sample needs the degrees of the *interior* states (Theorem 2).

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "graph/access.h"
#include "graph/graph.h"
#include "graphlet/catalog.h"
#include "walk/walker.h"

namespace grw {

/// One state in the window.
struct WindowState {
  std::array<VertexId, kMaxGraphletSize> nodes = {};
  uint8_t num_nodes = 0;
  /// Degree of this state in G(d); filled when known (a state's degree is
  /// discovered when the walk steps *from* it, so the newest state's
  /// degree may lag one step behind — interiors are always filled).
  uint64_t degree = 0;
};

/// Sliding window of l consecutive d-node states, reading adjacency
/// through access policy G. Defined in sample_window.cpp for every
/// GRW_ACCESS_FAMILY member (graph/access.h).
template <class G = Graph>
class SampleWindowT {
 public:
  /// k: graphlet size, l = k - d + 1 states per window.
  SampleWindowT(const G& g, int k, int l)
      : g_(&g), k_(k), l_(l) {
    assert(l >= 2 && k >= 3 && k <= kMaxGraphletSize);
  }

  /// Clears the window (new chain).
  void Clear() {
    size_ = 0;
    head_ = 0;
    registry_size_ = 0;
  }

  /// Pushes the walker's new state (d node ids, any order); evicts the
  /// oldest state when the window is full. `state_degree` is the state's
  /// G(d)-degree if already known, or 0 to fill in later via
  /// SetNewestDegree(). `known` is what the walker's move revealed of
  /// the adjacency (StateWalker::Known()); the pairs it covers are not
  /// probed. The default knows nothing, so every pair is probed.
  void Push(std::span<const VertexId> nodes, uint64_t state_degree,
            const KnownAdjacency& known = {});

  /// Records the newest state's G(d)-degree once the walk knows it.
  void SetNewestDegree(uint64_t degree) {
    assert(size_ > 0);
    StateAt(size_ - 1).degree = degree;
  }

  bool Full() const { return size_ == l_; }

  /// True iff the window is full and covers exactly k distinct vertices —
  /// i.e. it is a valid k-node graphlet sample (paper Figure 3).
  bool Valid() const { return Full() && registry_size_ == k_; }

  /// Union vertices in first-appearance order. Matches the vertex order
  /// used by Mask().
  std::span<const VertexId> UnionNodes() const {
    return {registry_nodes_.data(), static_cast<size_t>(registry_size_)};
  }

  /// Induced adjacency mask over UnionNodes() order. Requires Valid().
  uint32_t Mask() const;

  /// Oldest-first access to the window's states; index 0 is X_1 of the
  /// paper's X^(l). Requires i < l and Full().
  const WindowState& State(int i) const {
    assert(Full());
    return states_[(head_ + i) % l_];
  }

  /// Recomputes the mask from scratch with C(k,2) adjacency queries —
  /// the naive path, for tests and the ablation micro bench.
  uint32_t MaskNaive() const;

 private:
  WindowState& StateAt(int i) { return states_[(head_ + i) % l_]; }

  void AddVertex(VertexId v, const KnownAdjacency& known);
  void ReleaseVertex(VertexId v);

  const G* g_;
  int k_;
  int l_;
  std::array<WindowState, kMaxGraphletSize> states_ = {};  // l <= k
  int size_ = 0;
  int head_ = 0;

  // Union registry: vertices in first-appearance order with reference
  // counts (number of window states containing each), plus one adjacency
  // bit row per vertex (bit j of registry_rows_[i]: vertex i ~ vertex j),
  // in registry order. Union size never exceeds k = d + l - 1. Slots are
  // not reused: UnionNodes() order decides which vertex each CSS term
  // (CssTable::Eval) maps to, and so the order the weight sums them in.
  std::array<VertexId, kMaxGraphletSize> registry_nodes_ = {};
  std::array<uint8_t, kMaxGraphletSize> registry_refs_ = {};
  std::array<uint32_t, kMaxGraphletSize> registry_rows_ = {};
  int registry_size_ = 0;
};

/// The full-access window every pre-policy call site uses.
using SampleWindow = SampleWindowT<Graph>;

}  // namespace grw
