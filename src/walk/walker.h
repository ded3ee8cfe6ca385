// Common interface for random walks on the subgraph relationship graph G(d).
//
// A StateWalker's state is a connected induced d-node subgraph of G (a node
// of G(d), paper Section 2.1); Step() moves to a uniformly random neighbor
// in G(d) — or, in non-backtracking mode (paper Section 4.2), a uniformly
// random neighbor excluding the previous state unless that is the only
// neighbor. The estimator (core/estimator.h) consumes l = k-d+1 consecutive
// states per sample.
//
// Degree accounting: the expanded-chain stationary weight of a window needs
// the G(d)-degree of each *interior* state (Theorem 2). Degrees are exposed
// via StateDegree() for the current state; the estimator snapshots them as
// the window slides.

#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/rng.h"

namespace grw {

/// Abstract random walk over G(d).
class StateWalker {
 public:
  virtual ~StateWalker() = default;

  /// Re-initializes the walk at a (roughly uniform) random starting state.
  /// The initial distribution does not affect asymptotic unbiasedness
  /// (SLLN, paper Theorem 1).
  virtual void Reset(Rng& rng) = 0;

  /// Advances one transition of the walk.
  virtual void Step(Rng& rng) = 0;

  /// The d graph nodes of the current state. The span is valid until the
  /// next Step()/Reset().
  virtual std::span<const VertexId> Nodes() const = 0;

  /// Degree of the current state in G(d): number of neighboring states.
  /// O(1) for d <= 2; for d >= 3 this is the size of the enumerated
  /// neighbor set (computed lazily, cached until the state changes).
  virtual uint64_t StateDegree() const = 0;
};

}  // namespace grw
