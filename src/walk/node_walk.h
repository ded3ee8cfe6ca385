// Simple and non-backtracking random walk on G itself (d = 1).
//
// This is the walk behind SRW1 / SRW1CSS / SRW1CSSNB — the paper's best
// performer for 3-node graphlets — and also the substrate of the
// Hardiman–Katzir clustering-coefficient estimator, which Section 6.3.1
// shows is SRW1 in disguise.
//
// Templated on the graph access policy (graph/access.h); NodeWalk =
// NodeWalkT<Graph> is the unchanged full-access walk, static dispatch.

#pragma once

#include <stdexcept>

#include "graph/access.h"
#include "walk/walker.h"

namespace grw {

/// Random walk on the nodes of G, reading through access policy G.
template <class G = Graph>
class NodeWalkT final : public StateWalker {
 public:
  /// g must be connected with at least 2 nodes.
  explicit NodeWalkT(const G& g, bool non_backtracking = false)
      : g_(&g), nb_(non_backtracking) {
    if (g.NumNodes() < 2) {
      throw std::invalid_argument("NodeWalk: graph too small");
    }
  }

  void Reset(Rng& rng) override {
    current_ = static_cast<VertexId>(rng.UniformInt(g_->NumNodes()));
    has_prev_ = false;
  }

  void Step(Rng& rng) override {
    const uint32_t deg = g_->Degree(current_);
    VertexId next = g_->Neighbor(
        current_, static_cast<uint32_t>(rng.UniformInt(deg)));
    if (nb_ && has_prev_ && deg >= 2) {
      // Uniform over neighbors excluding the previous node (paper
      // Section 4.2 transition matrix P'): rejection is exact here.
      while (next == prev_) {
        next = g_->Neighbor(current_,
                            static_cast<uint32_t>(rng.UniformInt(deg)));
      }
    }
    prev_ = current_;
    has_prev_ = true;
    current_ = next;
  }

  std::span<const VertexId> Nodes() const override { return {&current_, 1}; }

  uint64_t StateDegree() const override { return g_->Degree(current_); }

  /// The node stepped from is adjacent to the current one.
  KnownAdjacency Known() const override {
    if (!has_prev_) return {};
    return {{prev_, current_}, {0b10, 0b01}, 2};
  }

  /// The slot of the first neighbor the next Step() draws.
  void PrefetchNext(Rng rng) const override {
    if constexpr (kAccessReadsArePlainLoads<G>) {
      const uint32_t deg = g_->Degree(current_);
      g_->PrefetchNeighbor(current_,
                           static_cast<uint32_t>(rng.UniformInt(deg)));
    }
  }

  VertexId Current() const { return current_; }

 private:
  const G* g_;
  bool nb_;
  VertexId current_ = 0;
  VertexId prev_ = 0;
  bool has_prev_ = false;
};

/// The full-access walk every pre-policy call site uses.
using NodeWalk = NodeWalkT<Graph>;

}  // namespace grw
