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
// the window slides when its weight reads them (the base weight with
// l >= 3 states per window). No walk needs its degree to move.

#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/rng.h"

namespace grw {

/// Adjacency a walk learned making its last move, handed to the sample
/// window (core/sample_window.h) so it does not probe those pairs again:
/// the induced adjacency of up to three vertices, one bit row each. What
/// each walk knows after a Step():
///   d = 1: the node it stepped from is adjacent to the node it is on;
///   d = 2: the state is an edge (also after Reset());
///   d = 3: the whole state (also after Reset()): the walk carries its
///          state's adjacency rows, and each move updates them from the
///          entering vertex's row, which the move's acceptance test probed;
///   d >= 4: nothing.
struct KnownAdjacency {
  std::array<VertexId, 3> nodes = {};
  /// Bit j of rows[i]: nodes[i] ~ nodes[j].
  std::array<uint8_t, 3> rows = {};
  int size = 0;

  /// Position of v among nodes, or -1.
  int Find(VertexId v) const {
    for (int i = 0; i < size; ++i) {
      if (nodes[i] == v) return i;
    }
    return -1;
  }
};

/// Abstract random walk over G(d). Cache-line aligned: a walk writes its
/// state every step, and must share no line with another thread's data.
class alignas(64) StateWalker {
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
  /// O(1) for d <= 2; for d >= 3 counted on the first call at each state
  /// (closed form at d = 3, the enumerator's count above) and cached
  /// until the state changes. Not the graph degrees of the state's
  /// vertices: a d >= 3 walk carries those itself and reads only the
  /// entering vertex's per step.
  virtual uint64_t StateDegree() const = 0;

  /// What the last move revealed of the adjacency around the current
  /// state (see KnownAdjacency); valid until the next Step()/Reset().
  virtual KnownAdjacency Known() const { return {}; }

  /// Starts loading what the next Step() reads first, drawing its first
  /// choice from `rng` by value, so the caller's stream does not move:
  /// the drawn neighbor slot for d <= 2; nothing for d >= 3, whose first
  /// read is the entering vertex's degree (the kept vertices' are
  /// carried), or for a reader whose reads are not plain loads
  /// (kAccessReadsArePlainLoads, graph/access.h). A hint only: no result
  /// depends on it.
  virtual void PrefetchNext(Rng rng) const { (void)rng; }
};

}  // namespace grw
