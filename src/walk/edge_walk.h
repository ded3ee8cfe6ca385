// Simple and non-backtracking random walk on G(2), whose states are the
// edges of G (d = 2).
//
// This is the walk behind SRW2 / SRW2CSS — the paper's recommended method
// for 4- and 5-node graphlets. Neighbor selection follows Section 5
// ("Populate Neighbors of Graphlet"): the neighbors of state e_uv are
//   { e_uw : w in N(u)\{v} }  union  { e_vz : z in N(v)\{u} },
// all distinct, so deg_{G(2)}(e_uv) = d_u + d_v - 2. A uniform neighbor is
// drawn in O(1) expected time by picking endpoint u with probability
// d_u/(d_u+d_v), then a uniform neighbor of it, rejecting the draw that
// reproduces the other endpoint.
//
// Templated on the graph access policy (graph/access.h); EdgeWalk =
// EdgeWalkT<Graph> is the unchanged full-access walk, static dispatch.

#pragma once

#include <array>
#include <stdexcept>

#include "graph/access.h"
#include "walk/walker.h"

namespace grw {

/// Random walk on the edges of G (states of G(2)), through policy G.
template <class G = Graph>
class EdgeWalkT final : public StateWalker {
 public:
  /// g must be connected with at least 3 nodes (so every edge state has at
  /// least one neighbor).
  explicit EdgeWalkT(const G& g, bool non_backtracking = false)
      : g_(&g), nb_(non_backtracking) {
    if (g.NumNodes() < 3 || g.NumEdges() < 2) {
      throw std::invalid_argument("EdgeWalk: graph too small");
    }
  }

  void Reset(Rng& rng) override {
    // A random endpoint's random incident edge; the init distribution is
    // irrelevant asymptotically.
    const VertexId u = static_cast<VertexId>(rng.UniformInt(g_->NumNodes()));
    const VertexId w = g_->Neighbor(
        u, static_cast<uint32_t>(rng.UniformInt(g_->Degree(u))));
    nodes_[0] = u < w ? u : w;  // states are canonicalized as (min, max)
    nodes_[1] = u < w ? w : u;
    has_prev_ = false;
  }

  void Step(Rng& rng) override {
    const VertexId u = nodes_[0];
    const VertexId v = nodes_[1];
    const uint64_t deg = StateDegree();
    VertexId a;
    VertexId b;
    while (true) {
      SampleNeighborState(rng, &a, &b);
      if (nb_ && has_prev_ && deg >= 2 && a == prev_[0] && b == prev_[1]) {
        continue;  // exclude the previous state (unless it is the only one)
      }
      break;
    }
    prev_[0] = u;
    prev_[1] = v;
    has_prev_ = true;
    nodes_[0] = a;
    nodes_[1] = b;
  }

  std::span<const VertexId> Nodes() const override {
    return {nodes_.data(), 2};
  }

  uint64_t StateDegree() const override {
    return static_cast<uint64_t>(g_->Degree(nodes_[0])) +
           g_->Degree(nodes_[1]) - 2;
  }

  /// The state is an edge.
  KnownAdjacency Known() const override {
    return {{nodes_[0], nodes_[1]}, {0b10, 0b01}, 2};
  }

  /// The slot of the first neighbor the next Step() draws, drawn as
  /// SampleNeighborState draws it.
  void PrefetchNext(Rng rng) const override {
    if constexpr (kAccessReadsArePlainLoads<G>) {
      const uint64_t du = g_->Degree(nodes_[0]);
      const uint64_t dv = g_->Degree(nodes_[1]);
      const VertexId base = nodes_[rng.UniformInt(du + dv) >= du];
      g_->PrefetchNeighbor(
          base, static_cast<uint32_t>(rng.UniformInt(g_->Degree(base))));
    }
  }

 private:
  // Draws a uniform neighbor state of (nodes_[0], nodes_[1]) into (*a, *b),
  // normalized so the retained endpoint is first... no normalization is
  // needed for correctness, but we canonicalize (min, max) so state
  // equality checks (non-backtracking) are well defined.
  void SampleNeighborState(Rng& rng, VertexId* a, VertexId* b) const {
    const VertexId u = nodes_[0];
    const VertexId v = nodes_[1];
    const uint64_t du = g_->Degree(u);
    const uint64_t dv = g_->Degree(v);
    while (true) {
      // Endpoint proportional to degree, then uniform neighbor, rejecting
      // the draw that lands back on the opposite endpoint: uniform over
      // the d_u + d_v - 2 neighbor states.
      const bool pick_u = rng.UniformInt(du + dv) < du;
      const VertexId base = pick_u ? u : v;
      const VertexId other = pick_u ? v : u;
      const VertexId w = g_->Neighbor(
          base, static_cast<uint32_t>(rng.UniformInt(g_->Degree(base))));
      if (w == other) continue;
      *a = base < w ? base : w;
      *b = base < w ? w : base;
      return;
    }
  }

  const G* g_;
  bool nb_;
  std::array<VertexId, 2> nodes_ = {0, 0};
  std::array<VertexId, 2> prev_ = {0, 0};
  bool has_prev_ = false;
};

/// The full-access walk every pre-policy call site uses.
using EdgeWalk = EdgeWalkT<Graph>;

}  // namespace grw
